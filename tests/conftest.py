"""Shared pytest hooks: print one verdict line per acceptance criterion.

Property tests draw their examples deterministically (a seed derived from
each test), a bounded number of them, and store nothing between runs, so
every run of the suite checks the same cases.
"""

from hypothesis import settings

settings.register_profile(
    "deterministic", derandomize=True, max_examples=100, deadline=None,
    database=None)
settings.load_profile("deterministic")

_CRITERIA: dict = {}


def record_criterion(num: int, verdict: str) -> None:
    _CRITERIA[num] = verdict


def pytest_terminal_summary(terminalreporter):
    if not _CRITERIA:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_CRITERIA):
        terminalreporter.write_line(
            "criterion %02d: %s" % (num, _CRITERIA[num]))
