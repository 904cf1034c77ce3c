"""Shared pytest hooks.

Replays the one-line-per-criterion verdicts recorded by the acceptance
battery at the end of the run, so they stay visible when output capture is
on (the default).  Also loads the Hypothesis profile of the property tests:
derandomized, so every run draws the same examples, and bounded, so the
suite's wall time stays predictable.
"""

from __future__ import annotations

import sys

from hypothesis import settings

settings.register_profile(
    "hankelinv", derandomize=True, deadline=None, max_examples=100, database=None
)
settings.load_profile("hankelinv")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    module = sys.modules.get("test_acceptance")
    lines = getattr(module, "SUMMARY_LINES", None)
    if not lines:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for line in lines:
        terminalreporter.write_line(line)
