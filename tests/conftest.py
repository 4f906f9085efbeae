"""Shared pytest configuration.

Prints one PASS/FAIL line per numbered acceptance criterion after the
run, so the checklist outcome is visible at a glance, and builds the
ladder maps and reduced systems that several test modules share.
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
from cluster_reduce.geometry import maximal_flag
from cluster_reduce.pipeline import AnalysisReport, WorkflowConfig, _foliations

# First rows of the Fordy-Marsh period-1 quivers N = 6..9 of the ladder.
_FORDY_MARSH_ROWS = (
    (1, -1, 0, -1, 1),
    (1, -1, 0, 0, -1, 1),
    (1, -1, 0, 0, 0, -1, 1),
    (1, 0, -1, 0, 0, -1, 0, 1),
)


@pytest.fixture(scope="session")
def ladder_systems() -> dict:
    """Per ladder quiver, (phi, systems, links): its cluster map, the reduced
    systems of its null and Casimir submersions, and the links
    (outer, inner, p) of the flag the pipeline builds over them."""
    matrices = {name: get_fixture(name).matrix("B")
                for name in ("somos5", "c7-pair", "somos5-2periodic")}
    matrices |= {f"fm-n{len(row) + 1}": fordy_marsh(row) for row in _FORDY_MARSH_ROWS}
    ladder = {}
    for name, b in matrices.items():
        phi = cluster_map(b, detect_period(b))
        form = PresymplecticForm(b)
        null = null_submersion(form) if 0 < form.rank < form.dim else None
        basis = find_invariant_poisson(phi, b)
        report = AnalysisReport(b, WorkflowConfig())
        subs = ([null] if null else []) + _foliations(basis, None, report)
        systems = [derive_reduced_map(phi, sub) for sub in subs]
        by_rows = {s.submersion.map.exponents: s for s in systems}
        # the flag of the pipeline, where a Casimir lattice equal to the
        # null one is taken once
        flag, _ = maximal_flag(_foliations(basis, null, report))
        chain = [by_rows[s.map.exponents] for s in flag.submersions]
        ladder[name] = (phi, systems, list(zip(chain, chain[1:], flag.projections)))
    return ladder


@pytest.fixture(scope="session")
def ladder_maps(ladder_systems) -> dict:
    """The cluster maps of the seven ladder quivers and the reduced maps of
    their null and Casimir submersions (22 maps), keyed "fm-n8" or
    "fm-n8:casimir1" (submersion kind and index)."""
    maps = {}
    for name, (phi, systems, _) in ladder_systems.items():
        maps[name] = phi
        for i, system in enumerate(systems):
            maps[f"{name}:{system.submersion.kind}{i}"] = system.map
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
