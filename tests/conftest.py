"""Shared pytest configuration.

Prints one PASS/FAIL line per numbered acceptance criterion after the
run, so the checklist outcome is visible at a glance, and builds the
ladder maps that several test modules share.
"""

import re

import pytest

from cluster_reduce import (
    PresymplecticForm,
    cluster_map,
    derive_reduced_map,
    detect_period,
    find_invariant_poisson,
    fordy_marsh,
    get_fixture,
    null_submersion,
)
from cluster_reduce.pipeline import AnalysisReport, WorkflowConfig, _foliations

# First rows of the Fordy-Marsh period-1 quivers N = 6..9 of the ladder.
_FORDY_MARSH_ROWS = (
    (1, -1, 0, -1, 1),
    (1, -1, 0, 0, -1, 1),
    (1, -1, 0, 0, 0, -1, 1),
    (1, 0, -1, 0, 0, -1, 0, 1),
)


@pytest.fixture(scope="session")
def ladder_maps() -> dict:
    """The cluster maps of the seven ladder quivers and the reduced maps of
    their null and Casimir submersions (22 maps), keyed "fm-n8" or
    "fm-n8:casimir1" (submersion kind and index)."""
    matrices = {name: get_fixture(name).matrix("B")
                for name in ("somos5", "c7-pair", "somos5-2periodic")}
    matrices |= {f"fm-n{len(row) + 1}": fordy_marsh(row) for row in _FORDY_MARSH_ROWS}
    maps = {}
    for name, b in matrices.items():
        phi = maps[name] = cluster_map(b, detect_period(b))
        form = PresymplecticForm(b)
        subs = [null_submersion(form)] if 0 < form.rank < form.dim else []
        basis = find_invariant_poisson(phi, b)
        subs += _foliations(basis, None, AnalysisReport(b, WorkflowConfig()))
        for i, sub in enumerate(subs):
            maps[f"{name}:{sub.kind}{i}"] = derive_reduced_map(phi, sub).map
    return maps

_CRITERION = re.compile(r"test_acceptance\.py::test_criterion_(\d+)_([a-z0-9_]+)")

_VERDICTS = {
    "passed": "PASS",
    "failed": "FAIL",
    "error": "ERROR",
    "skipped": "SKIP",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    results = {}
    for outcome, verdict in _VERDICTS.items():
        for report in terminalreporter.stats.get(outcome, ()):
            match = _CRITERION.search(getattr(report, "nodeid", ""))
            if not match:
                continue
            key = (match.group(1), match.group(2).replace("_", "-"))
            # any non-pass phase (setup error, call failure) overrides a pass
            if key not in results or verdict != "PASS":
                results[key] = verdict
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for (number, label), verdict in sorted(results.items()):
        terminalreporter.write_line(f"ACCEPTANCE {number} {label}: {verdict}")
