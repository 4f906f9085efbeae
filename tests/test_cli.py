"""Command-line interface: subcommands, exit codes, JSON output, pipeline."""

import builtins
import json
import time
from pathlib import Path

import pytest

from cluster_reduce import DynamicsError, IntMatrix, fordy_marsh, get_fixture, submersion_from_rows
from cluster_reduce import build_flag, chained_reduction, cluster_map, derive_reduced_map
from cluster_reduce import detect_period
from cluster_reduce import dynamics, geometry, intlinalg, laurent, pipeline
from cluster_reduce.cli import WorkflowConfig, main, run_pipeline
from reference import longest_chain, report_digest

# byte-exact `pipeline` reports at seed 0; a change that is meant to leave
# the analysis alone must leave them unchanged
DATA = Path(__file__).parent / "data"

# first rows of the Fordy-Marsh period-1 quivers on the ladder
_FORDY_MARSH_ROWS = {
    "fm-n6": (1, -1, 0, -1, 1),
    "fm-n7": (1, -1, 0, 0, -1, 1),
    "fm-n8": (1, -1, 0, 0, 0, -1, 1),
    "fm-n9": (1, 0, -1, 0, 0, -1, 0, 1),
}
_LADDER = ("somos5", "c7-pair", "somos5-2periodic", *_FORDY_MARSH_ROWS)


def _ladder_matrix(name: str) -> IntMatrix:
    if name in _FORDY_MARSH_ROWS:
        return fordy_marsh(_FORDY_MARSH_ROWS[name])
    return get_fixture(name).matrix("B")


@pytest.fixture
def files(tmp_path):
    """Fixture matrices and a Somos-5 map written to disk."""
    paths = {}
    fix5 = get_fixture("somos5")
    fix7 = get_fixture("c7-pair")
    for name, matrix in [
        ("b5", fix5.matrix("B")),
        ("c5", fix5.matrix("C")),
        ("b7", fix7.matrix("B")),
        ("c71", fix7.matrix("C1")),
        ("c72", fix7.matrix("C2")),
    ]:
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(matrix.to_json_dict()))
        paths[name] = str(p)
    phi5 = tmp_path / "phi5.json"
    phi5.write_text(json.dumps({"schema": "v1", "dim_in": 5, "components": [
        "x2", "x3", "x4", "x5", "(x2*x5 + x3*x4)/x1"]}))
    paths["phi5"] = str(phi5)
    sub = submersion_from_rows([(1, -1, -1, 1, 0), (0, 1, -1, -1, 1)], 5, kind="null")
    subp = tmp_path / "null5.json"
    subp.write_text(json.dumps(sub.to_json_dict()))
    paths["null5"] = str(subp)
    paths["dir"] = str(tmp_path)
    return paths


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def _run_json(capsys, argv):
    code, out = _run(capsys, argv)
    return code, json.loads(out)


class TestPeriod:
    def test_matrix_mode(self, capsys, files):
        code, doc = _run_json(capsys, ["period", "--matrix", files["b5"]])
        assert code == 0
        assert doc["period"] == 1

    def test_map_mode(self, capsys, files):
        code, doc = _run_json(capsys, ["period", "--map", files["phi5"]])
        assert code == 0
        assert doc["kind"] == "none"

    @pytest.mark.parametrize("samples", ["0", "-2"])
    def test_nonpositive_samples_exit_3(self, capsys, files, samples):
        code, out = _run(capsys, ["period", "--map", files["phi5"], "--samples", samples])
        assert (code, out) == (3, "")

    def test_requires_exactly_one_input(self, capsys, files):
        code, _ = _run(capsys, ["period"])
        assert code == 3
        code, _ = _run(
            capsys, ["period", "--matrix", files["b5"], "--map", files["phi5"]]
        )
        assert code == 3


class TestMap:
    def test_builds_cluster_map(self, capsys, files):
        code, doc = _run_json(capsys, ["map", "--matrix", files["b5"]])
        assert code == 0
        assert doc["components"] == ["x2", "x3", "x4", "x5", "(x2*x5 + x3*x4)/x1"]
        assert doc["period"] == 1

    def test_out_file(self, capsys, files, tmp_path):
        out = tmp_path / "map.json"
        code, text = _run(
            capsys, ["map", "--matrix", files["b5"], "--out", str(out)]
        )
        assert code == 0
        assert "wrote" in text
        assert json.loads(out.read_text())["dim_in"] == 5

    def test_non_periodic_matrix(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(
            json.dumps(
                {
                    "schema": "v1",
                    "rows": 4,
                    "cols": 4,
                    "entries": [
                        ["0", "3", "0", "3"],
                        ["-3", "0", "0", "-3"],
                        ["0", "0", "0", "-1"],
                        ["-3", "3", "1", "0"],
                    ],
                }
            )
        )
        assert main(["map", "--matrix", str(p)]) == 2


class TestFindPoisson:
    def test_somos5(self, capsys, files):
        code, doc = _run_json(
            capsys,
            ["find-poisson", "--map", files["phi5"], "--compatible", files["b5"]],
        )
        assert code == 0
        assert doc["count"] == 1
        entries = doc["basis"][0]["entries"]
        assert entries[0][1] in ("1", "-1")

    @pytest.mark.parametrize("rows", [7, 5])
    def test_wrong_size_compatible_matrix_exits_3(self, capsys, files, tmp_path, rows):
        # 7 x 7 does not match the map; 5 x 7 is not square
        b7 = get_fixture("c7-pair").matrix("B")
        path = tmp_path / "compat.json"
        path.write_text(json.dumps(IntMatrix.from_rows(b7.entries[:rows]).to_json_dict()))
        code, _ = _run(capsys, ["find-poisson", "--map", files["phi5"], "--compatible", str(path)])
        assert code == 3


class TestReduce:
    def test_null_reduction(self, capsys, files):
        code, doc = _run_json(
            capsys,
            ["reduce", "--map", files["phi5"], "--structure", files["b5"], "--kind", "null"],
        )
        assert code == 0
        assert doc["verified"] is True
        assert doc["pi"]["kind"] == "null"
        assert len(doc["psi"]) == 2

    def test_casimir_reduction(self, capsys, files):
        code, doc = _run_json(
            capsys,
            ["reduce", "--map", files["phi5"], "--structure", files["c5"], "--kind", "casimir"],
        )
        assert code == 0
        assert len(doc["psi"]) == 3

    def test_explicit_exponents(self, capsys, files, tmp_path):
        rows = tmp_path / "rows.json"
        rows.write_text(
            json.dumps(
                {
                    "schema": "v1",
                    "rows": 2,
                    "cols": 5,
                    "entries": [
                        ["1", "-1", "-1", "1", "0"],
                        ["0", "1", "-1", "-1", "1"],
                    ],
                }
            )
        )
        code, doc = _run_json(
            capsys, ["reduce", "--map", files["phi5"], "--exponents", str(rows)]
        )
        assert code == 0
        assert doc["psi"] == ["x2", "(x2 + 1)/(x1*x2)"]

    def test_structure_and_exponents_conflict(self, capsys, files):
        code, _ = _run(
            capsys,
            ["reduce", "--map", files["phi5"], "--structure", files["b5"],
             "--exponents", files["b5"]],
        )
        assert code == 3


class TestFlag:
    def test_default_kinds(self, capsys, files):
        code, doc = _run_json(
            capsys,
            ["flag", "--structures", files["b7"], files["c71"], files["c72"]],
        )
        assert code == 0
        assert doc["chain"] == "null(2) < casimir(3) < casimir(5)"
        assert len(doc["projections"]) == 2

    def test_nested_casimir_pair_chains(self, capsys, files):
        code, doc = _run_json(
            capsys,
            ["flag", "--structures", files["c71"], files["c72"], "--kinds",
             "casimir,casimir"],
        )
        assert code == 0
        assert doc["chain"] == "casimir(3) < casimir(5)"

    def test_transverse_casimir_pair_exits_2(self, capsys, tmp_path):
        # kernels span e5 and (e1, e2, e3): neither lattice contains the other
        def write(name, pairs):
            entries = [[0] * 5 for _ in range(5)]
            for i, j in pairs:
                entries[i][j], entries[j][i] = 1, -1
            path = tmp_path / name
            path.write_text(json.dumps(IntMatrix.from_rows(entries).to_json_dict()))
            return str(path)

        argv = ["flag", "--structures", write("rank4.json", [(0, 1), (2, 3)]),
                write("rank2.json", [(3, 4)]), "--kinds", "casimir,casimir"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("verification failed: ")
        assert "longest chain casimir(1): casimir(3);" in captured.err

    def test_kinds_length_mismatch(self, capsys, files):
        code, _ = _run(
            capsys,
            ["flag", "--structures", files["b7"], "--kinds", "null,casimir"],
        )
        assert code == 3


class TestVerify:
    def test_invariant_structure(self, capsys, files):
        code, doc = _run_json(
            capsys,
            ["verify", "--map", files["phi5"], "--structure", files["c5"],
             "--kind", "poisson"],
        )
        assert code == 0
        assert doc["invariant"] is True

    def test_non_invariant_structure_exits_2(self, capsys, files, tmp_path):
        bad = get_fixture("somos5").matrix("C").entries
        entries = [list(r) for r in bad]
        entries[0][2] += 1
        entries[2][0] -= 1
        p = tmp_path / "badc.json"
        p.write_text(
            json.dumps(
                {
                    "schema": "v1",
                    "rows": 5,
                    "cols": 5,
                    "entries": [[str(e) for e in row] for row in entries],
                }
            )
        )
        code, doc = _run_json(
            capsys,
            ["verify", "--map", files["phi5"], "--structure", str(p),
             "--kind", "poisson"],
        )
        assert code == 2
        assert doc["invariant"] is False
        assert "witness" in doc

    def test_dimension_mismatch_exits_3(self, capsys, files):
        code, _ = _run(
            capsys,
            ["verify", "--map", files["phi5"], "--structure", files["c71"],
             "--kind", "poisson"],
        )
        assert code == 3

    @pytest.mark.parametrize("kind, samples", [("presymplectic", "0"), ("poisson", "-2")])
    def test_nonpositive_samples_exit_3(self, capsys, files, tmp_path, kind, samples):
        # a 5 x 5 form that is not invariant: three samples find it out,
        # and no samples must not certify it
        entries = [[0] * 5 for _ in range(5)]
        entries[0][2], entries[2][0] = 1, -1
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"schema": "v1", "rows": 5, "cols": 5,
                                 "entries": [[str(e) for e in row] for row in entries]}))
        argv = ["verify", "--map", files["phi5"], "--structure", str(p), "--kind", kind]
        code, doc = _run_json(capsys, argv + ["--samples", "3"])
        assert (code, doc["invariant"]) == (2, False)
        code, out = _run(capsys, argv + ["--samples", samples])
        assert (code, out) == (3, "")


class TestStructureFiles:
    @pytest.mark.parametrize("shape", ["5x4", "non-skew"])
    @pytest.mark.parametrize("command", [
        ["verify", "--kind", "presymplectic"],
        ["verify", "--kind", "poisson"],
        ["reduce", "--kind", "null"],
        ["reduce", "--kind", "casimir"],
        ["flag"],
    ], ids=" ".join)
    def test_bad_structure_matrix_exits_3(self, capsys, files, tmp_path, command, shape):
        # bad input, not a failed verification (exit 2)
        if shape == "5x4":
            entries = [[0, 1, 0, 0], [-1, 0, 0, 0], [0] * 4, [0] * 4, [0] * 4]
        else:
            entries = [[0] * 5 for _ in range(5)]
            entries[0][1] = entries[1][0] = 1
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"schema": "v1", "rows": 5, "cols": len(entries[0]),
                                 "entries": [[str(e) for e in row] for row in entries]}))
        if command == ["flag"]:
            argv = ["flag", "--structures", files["b5"], str(p)]
        else:
            argv = command + ["--map", files["phi5"], "--structure", str(p)]
        assert _run(capsys, argv) == (3, "")


class TestMapFiles:
    @pytest.mark.parametrize("command", [
        ["period"],
        ["orbit", "--start", "1,1", "--steps", "3"],
        ["itinerary", "--submersions", "null5", "--start", "1,1", "--steps", "3"],
        ["find-poisson"],
        ["reduce", "--structure", "c5", "--kind", "casimir"],
        ["verify", "--structure", "c5", "--kind", "poisson"],
    ], ids=lambda command: command[0])
    def test_map_that_is_not_a_self_map_exits_3(self, capsys, files, tmp_path, command):
        # every subcommand that reads --map needs a self-map: bad input
        p = tmp_path / "wide.json"
        p.write_text(json.dumps({"schema": "v1", "dim_in": 2,
                                 "components": ["x1", "x2", "x1*x2"]}))
        argv = [command[0], "--map", str(p)] + [files.get(a, a) for a in command[1:]]
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert "not a self-map" in captured.err


class TestOrbit:
    def test_exact_orbit(self, capsys, files):
        code, doc = _run_json(
            capsys,
            ["orbit", "--map", files["phi5"], "--start", "1,1,1,1,1", "--steps", "8"],
        )
        assert code == 0
        lasts = [p[-1] for p in doc["points"]]
        assert lasts[:9] == ["1", "2", "3", "5", "11", "37", "83", "274", "1217"]

    def test_float_orbit_with_env_precision(self, capsys, files, monkeypatch):
        monkeypatch.setenv("CLUSTER_REDUCE_PRECISION", "40")
        code, doc = _run_json(
            capsys,
            ["orbit", "--map", files["phi5"], "--start", "1,1,1,1,1",
             "--steps", "3", "--mode", "float"],
        )
        assert code == 0
        assert doc["precision"] == 40

    def test_bad_env_precision(self, capsys, files, monkeypatch):
        monkeypatch.setenv("CLUSTER_REDUCE_PRECISION", "fast")
        code, _ = _run(
            capsys,
            ["orbit", "--map", files["phi5"], "--start", "1,1,1,1,1",
             "--steps", "3", "--mode", "float"],
        )
        assert code == 3

    def test_flag_precision_overrides_env(self, capsys, files, monkeypatch):
        monkeypatch.setenv("CLUSTER_REDUCE_PRECISION", "40")
        code, doc = _run_json(
            capsys,
            ["orbit", "--map", files["phi5"], "--start", "1,1,1,1,1",
             "--steps", "2", "--mode", "float", "--precision", "30"],
        )
        assert code == 0
        assert doc["precision"] == 30

    @pytest.mark.parametrize("value", ["0", "-4"])
    @pytest.mark.parametrize("command, flag", [
        ("orbit", "--precision"), ("itinerary", "--precision"),
        ("orbit", "--steps"), ("itinerary", "--steps"),
        ("period --matrix b5", "--max-m"), ("period --map phi5", "--max-p"),
        ("map --matrix b5", "--max-m"),
    ])
    def test_nonpositive_flag_exits_3(self, capsys, files, command, flag, value):
        argv = [files.get(word, word) for word in command.split()]
        if command in ("orbit", "itinerary"):
            argv += ["--map", files["phi5"], "--start", "1,1,1,1,1", "--mode", "float"]
            argv += ["--steps", "2"] if flag != "--steps" else []
        if command == "itinerary":
            argv += ["--submersions", files["null5"]]
        code = main(argv + [flag, value])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert f"{flag} must be a positive integer" in captured.err

    def test_wrong_arity_start(self, capsys, files):
        code, _ = _run(
            capsys,
            ["orbit", "--map", files["phi5"], "--start", "1,1", "--steps", "2"],
        )
        assert code == 3

    @pytest.mark.parametrize("source", ["flag", "env"])
    def test_pipeline_precision_below_30_exits_3(self, capsys, files, monkeypatch, source):
        argv = ["pipeline", "--matrix", files["b5"]]
        if source == "flag":
            argv += ["--precision", "24"]
        else:
            monkeypatch.setenv("CLUSTER_REDUCE_PRECISION", "24")
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert "precision must be at least 30 digits" in captured.err

    @pytest.mark.parametrize("command", ["orbit", "itinerary"])
    def test_orbits_accept_low_precision(self, capsys, files, command):
        argv = [command, "--map", files["phi5"], "--start", "1,1,1,1,1",
                "--steps", "2", "--mode", "float", "--precision", "15"]
        if command == "itinerary":
            argv += ["--submersions", files["null5"]]
        code, doc = _run_json(capsys, argv)
        assert code == 0

    def test_nonpositive_start(self, capsys, files):
        code, _ = _run(
            capsys,
            ["orbit", "--map", files["phi5"], "--start", "1,-1,1,1,1", "--steps", "2"],
        )
        assert code == 3


class TestSubmersionFiles:
    """A submersion document is checked as a row matrix is."""

    @pytest.mark.parametrize("form", ["document", "matrix"])
    @pytest.mark.parametrize("command", ["reduce", "itinerary"])
    def test_dependent_rows_exit_3(self, capsys, tmp_path, command, form):
        rows = [["1", "0"], ["2", "0"]]
        doc = ({"schema": "v1", "kind": "custom", "exponents": rows, "dim_in": 2}
               if form == "document" else
               {"schema": "v1", "rows": 2, "cols": 2, "entries": rows})
        sub = tmp_path / "sub.json"
        sub.write_text(json.dumps(doc))
        lyness = tmp_path / "lyness.json"
        lyness.write_text(json.dumps(["x2", "(x2 + 1)/x1"]))
        argv = (["reduce", "--map", str(lyness), "--exponents", str(sub)]
                if command == "reduce" else
                ["itinerary", "--map", str(lyness), "--submersions", str(sub),
                 "--start", "1,1", "--steps", "4"])
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "submersion exponent rows must be linearly independent" in captured.err


class TestItinerary:
    def test_labels_and_periods(self, capsys, files):
        code, doc = _run_json(
            capsys,
            ["itinerary", "--map", files["phi5"], "--submersions", files["null5"],
             "--start", "1,1,1,1,1", "--steps", "10"],
        )
        assert code == 0
        assert doc["names"] == ["null-2d"]
        assert doc["label_periods"] == [None]
        assert len(doc["labels"][0]) == 11
        assert doc["labels"][0][0] == ["1", "1"]

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_submersion_dimension_mismatch_exits_3(self, capsys, files, tmp_path, mode):
        sub7 = submersion_from_rows([(1, 0, 0, 0, 0, 0, -1)], 7)
        path = tmp_path / "sub7.json"
        path.write_text(json.dumps(sub7.to_json_dict()))
        code, _ = _run(
            capsys,
            ["itinerary", "--map", files["phi5"], "--submersions", files["null5"], str(path),
             "--start", "1,1,1,1,1", "--steps", "3", "--mode", mode],
        )
        assert code == 3


class TestFixturesCommand:
    def test_listing(self, capsys):
        code, doc = _run_json(capsys, ["fixtures"])
        assert code == 0
        names = [f["name"] for f in doc["fixtures"]]
        assert names == ["somos5", "somos5-2periodic", "c7-pair"]

    def test_unknown_name(self, capsys):
        code, _ = _run(capsys, ["fixtures", "--name", "nope"])
        assert code == 3

    def test_export(self, capsys, tmp_path):
        out = tmp_path / "fx"
        code, text = _run(capsys, ["fixtures", "--name", "somos5", "--out", str(out)])
        assert code == 0
        written = sorted(p.name for p in out.iterdir())
        assert "somos5-B.json" in written
        assert "somos5-exponents-null.json" in written


class TestPipeline:
    def test_somos5_report(self, capsys, files):
        code, doc = _run_json(capsys, ["pipeline", "--matrix", files["b5"]])
        assert code == 0
        assert doc["period"] == 1
        assert doc["presymplectic_invariant"] is True
        assert doc["flag"] == "null(2) < casimir(3)"
        assert len(doc["discovered_structures"]) == 1
        assert [r["kind"] for r in doc["reductions"]] == ["null", "casimir"]
        assert all(r["verified"] for r in doc["reductions"])
        assert len(doc["chained_reductions"]) == 1
        assert doc["errors"] == []

    def test_seven_node_report(self, capsys, files):
        code, doc = _run_json(capsys, ["pipeline", "--matrix", files["b7"]])
        assert code == 0
        assert doc["flag"] == "null(2) < casimir(3) < casimir(5)"
        assert len(doc["discovered_structures"]) == 2
        periods = [d.get("global_period") for d in doc["dynamics"]]
        assert periods[:2] == [5, 10]
        assert doc["itinerary"]["label_periods"][:2] == [5, 10]
        assert len(doc["chained_reductions"]) == 2

    def test_determinism(self, capsys, files):
        code1, out1 = _run(capsys, ["pipeline", "--matrix", files["b5"], "--seed", "7"])
        code2, out2 = _run(capsys, ["pipeline", "--matrix", files["b5"], "--seed", "7"])
        assert code1 == code2 == 0
        assert out1 == out2

    def test_text_rendering(self, capsys, files, tmp_path):
        out = tmp_path / "report.json"
        code, text = _run(
            capsys, ["pipeline", "--matrix", files["b5"], "--out", str(out)]
        )
        assert code == 0
        assert "mutation period: 1" in text
        assert "flag of foliations: null(2) < casimir(3)" in text
        assert ("degree growth: d_60 = 685 (exact (tropical d-vectors)); "
                "quadratic, entropy 0.0 (read off d_30, d_59, d_60)") in text
        assert json.loads(out.read_text())["schema"] == "v1"

    @pytest.mark.parametrize("name", _LADDER)
    def test_golden_report(self, capsys, tmp_path, name):
        path = tmp_path / "b.json"
        path.write_text(json.dumps(_ladder_matrix(name).to_json_dict()))
        code, out = _run(capsys, ["pipeline", "--matrix", str(path), "--seed", "0"])
        assert code == 0
        assert out == (DATA / f"pipeline-{name}-seed0.json").read_text()

    @pytest.mark.parametrize("name", _LADDER)
    def test_sampled_basis_gives_the_golden_report(self, name):
        # --no-compatible has no golden file of its own: its sampled basis
        # runs the same flag and chain stages, and on the ladder it finds
        # the compatible basis, so only the setting itself differs
        config = WorkflowConfig(seed=0, require_compatible=False)
        doc = json.loads(json.dumps(run_pipeline(_ladder_matrix(name), config).to_json_dict()))
        golden = json.loads((DATA / f"pipeline-{name}-seed0.json").read_text())
        assert doc["config"].pop("require_compatible") is False
        assert golden["config"].pop("require_compatible") is True
        assert doc == golden

    @pytest.mark.parametrize("compatible", [True, False])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("name", _LADDER)
    def test_report_is_pinned(self, name, seed, compatible):
        # the JSON and text of every ladder report at three seeds, with and
        # without compatibility imposed, as SHA-256s (tests/data/README.md)
        key = f"{name}:seed{seed}:{'compatible' if compatible else 'sampled'}"
        want = json.loads((DATA / "report-digests.json").read_text())[key]
        assert report_digest(_ladder_matrix(name), seed, compatible) == want

    def test_somos6_foliation_analysed_once(self):
        report = run_pipeline(fordy_marsh((1, -1, 0, -1, 1)))
        assert report.errors == []
        assert report.flag_chain == "null(4)"
        assert [r["kind"] for r in report.reductions] == ["null"]
        assert [d["kind"] for d in report.dynamics] == ["null"]
        assert report.chained == []
        assert report.itinerary["names"] == ["null-4d"]
        assert report.notes == [
            "the casimir(4) and null(4) foliations have the same exponent "
            "lattice and were analysed once"
        ]


class TestRunPipelineApi:
    @pytest.mark.parametrize("name", ["somos5", "c7-pair"])
    def test_finer_flag_level_searched_on_fibers(self, monkeypatch, name):
        # null(2) runs the 16-start grid; casimir(3) starts 4 runs on the
        # fiber over null(2)'s one fixed point instead of its 64-start grid
        newton = dynamics._periodic_point_newton
        calls = []

        def counting(*args):
            calls.append(len(args[3]))
            return newton(*args)

        monkeypatch.setattr(dynamics, "_periodic_point_newton", counting)
        report = run_pipeline(get_fixture(name).matrix("B"))
        assert [len(d["fixed_points"]) for d in report.dynamics[:2]] == [1, 1]
        assert calls == [2] * 16 + [3] * 4

    @pytest.mark.parametrize("name", _LADDER)
    def test_flag_facts_are_proven_once(self, monkeypatch, name):
        # run_pipeline takes the flag's witnesses and chained links on
        # trust; here a search over every subset of the foliations, build_flag
        # and chained_reduction prove them again
        calls = []
        maximal_flag = pipeline.maximal_flag

        def recording(subs):
            calls.append((subs, maximal_flag(subs)))
            return calls[-1][1]

        monkeypatch.setattr(pipeline, "maximal_flag", recording)
        b = _ladder_matrix(name)
        report = run_pipeline(b)
        ((subs, (flag, omitted)),) = calls
        assert flag.submersions == longest_chain(subs)
        assert omitted == [s for s in sorted(subs, key=lambda s: s.dim_out)
                           if s not in flag.submersions]
        assert build_flag(flag.submersions) == flag
        phi = cluster_map(b, detect_period(b))
        certified = []
        for outer, inner, p in zip(flag.submersions, flag.submersions[1:], flag.projections):
            assert p.after_monomial(inner.map) == outer.map
            link = chained_reduction(derive_reduced_map(phi, outer),
                                     derive_reduced_map(phi, inner), p)
            certified.append({"outer": f"{outer.kind}({outer.dim_out})",
                              "inner": f"{inner.kind}({inner.dim_out})",
                              "verified": link.verified})
        assert report.chained == certified

    def test_a_ladder_pass_takes_no_prs_and_one_hermite_form_per_basis(self, monkeypatch):
        # the heuristic gcd certifies every gcd of the pass, and
        # solve_in_lattice puts each basis it is given in Hermite form once
        core = laurent._prs
        fallbacks = []

        def counting_core(f, g):
            fallbacks.append((f, g))
            return core(f, g)

        solve, hermite = intlinalg.solve_in_lattice, intlinalg.hermite_normal_form
        bases, open_bases, forms = [], [], {}

        def recording_solve(basis, v):
            bases.append(basis)  # kept alive, so that ids stay distinct
            open_bases.append(basis)
            try:
                return solve(basis, v)
            finally:
                open_bases.pop()

        def counting_hermite(m):
            if open_bases:
                key = id(open_bases[-1])
                forms[key] = forms.get(key, 0) + 1
            return hermite(m)

        monkeypatch.setattr(laurent, "_prs", counting_core)
        monkeypatch.setattr(intlinalg, "solve_in_lattice", recording_solve)
        monkeypatch.setattr(geometry, "solve_in_lattice", recording_solve)
        monkeypatch.setattr(intlinalg, "hermite_normal_form", counting_hermite)
        for name in _LADDER:
            assert run_pipeline(_ladder_matrix(name), WorkflowConfig(seed=0)).errors == []
        assert fallbacks == []
        assert max(forms.values()) == 1
        assert len(bases) > 2 * len(forms)
        # each submersion keeps one basis: 13 forms for the 12 distinct
        # lattices of the pass (65 with a new basis per lattice() call)
        assert sum(forms.values()) == 13

    def test_a_ladder_pass_inverts_once_per_residue_step(self, monkeypatch):
        # every (phi, start) of one fresh seed-0 pass is walked mod p once,
        # as far as its longest horizon: a call inverts once for a start
        # not walked before and once per step past the last one walked
        # (coefficients are converted mod p before the count).  The pass
        # draws 141 starts and walks 1540 steps on 77 starts, the
        # itinerary's among them; a walk per level and stage would take
        # 2712 steps
        residue_orbit, real_pow = dynamics._residue_orbit, builtins.pow
        inversions, walked, draws, alive = [0], {}, [0], []
        draw = dynamics.random_positive_point

        def counting_pow(*args):
            inversions[0] += len(args) == 3 and args[1] == -1
            return real_pow(*args)

        def counting_orbit(phi, x0, steps, p, walks=None):
            phi._compiled(dynamics._residues(p))
            alive.append((phi, walks))  # keeps every id() of the pass distinct
            # walks None: the itinerary's orbit, walked once on its own
            key = id(phi), id(walks), p, tuple(x0)
            # the last step walked from x0, -1 before its start is inverted
            before = walked.get(key, -1)
            inversions[0] = 0
            builtins.pow = counting_pow
            try:
                result = residue_orbit(phi, x0, steps, p, walks)
            finally:
                builtins.pow = real_pow
            assert result is not None and len(result[0]) == steps + 1
            walked[key] = max(steps, before)
            assert inversions[0] == walked[key] - before
            return result

        def counting_draw(*args):
            draws[0] += 1
            return draw(*args)

        monkeypatch.setattr(dynamics, "_residue_orbit", counting_orbit)
        monkeypatch.setattr(dynamics, "random_positive_point", counting_draw)
        for name in _LADDER:
            assert run_pipeline(_ladder_matrix(name), WorkflowConfig(seed=0)).errors == []
        assert (draws[0], len(walked), sum(walked.values())) == (141, 77, 1540)

    def test_non_periodic_matrix_stops_early(self):
        from cluster_reduce import IntMatrix

        report = run_pipeline(
            IntMatrix.from_rows(
                [(0, 3, 0, 3), (-3, 0, 0, -3), (0, 0, 0, -1), (-3, 3, 1, 0)]
            )
        )
        assert report.period is None
        assert "no mutation period" in report.render_text()

    def test_degenerate_zero_matrix(self):
        from cluster_reduce import IntMatrix

        report = run_pipeline(IntMatrix.zeros(2, 2))
        assert report.period == 1
        assert report.map_components == ["x2", "2/x1"]
        assert report.rank == 0
        assert report.growth["degrees"][-4:] == [1, 1, 1, 0]
        assert report.growth["class"] == "bounded"
        assert report.reductions == []
        assert any("no reduction" in note for note in report.notes)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            WorkflowConfig(m_max=0)

    def test_pipeline_has_no_samples_setting(self, files):
        # global periodicity samples a fixed number of orbits (config.samples)
        assert not hasattr(WorkflowConfig(), "samples")
        with pytest.raises(SystemExit):
            main(["pipeline", "--matrix", files["b5"], "--samples", "20"])

    def test_default_run_samples_no_invariance(self, monkeypatch):
        def sampled(*args, **kwargs):
            raise AssertionError("the certificate already fixes this fact")

        for module in (geometry, pipeline):
            for name in ("check_presymplectic_invariance", "find_invariant_poisson"):
                monkeypatch.setattr(module, name, sampled, raising=False)
        report = run_pipeline(get_fixture("c7-pair").matrix("B"))
        golden = json.loads((DATA / "pipeline-c7-pair-seed0.json").read_text())
        assert report.presymplectic_invariant is True
        assert report.discovered == golden["discovered_structures"]
        text = report.render_text()
        assert "(rank 2, exact (mutation period))" in text
        assert "discovered: 2 (compatibility imposed, exact (mutation period))" in text
        assert "sampled points" not in text

    def test_unsearched_structure_space_is_noted(self, monkeypatch):
        from cluster_reduce import IntMatrix

        c = get_fixture("somos5").matrix("C").entries
        basis = [IntMatrix.from_rows([[k * v for v in row] for row in c]) for k in (1, 2, 3, 4)]
        monkeypatch.setattr(pipeline, "_period_poisson_basis", lambda *args, **kwargs: basis)
        report = run_pipeline(get_fixture("somos5").matrix("B"))
        assert [note for note in report.notes if "dimension 4" in note] == [
            "the invariant Poisson structures span dimension 4; degenerate combinations "
            "are searched only up to dimension 3, so only the basis structures were analysed"
        ]
        assert len(report.discovered) == 4

    def test_a_level_that_does_not_reduce_is_recorded(self, monkeypatch):
        # somos5's null(2) level fails to reduce: its error is recorded and
        # casimir(3), the next flag level, runs the 64-start grid of
        # find_periodic_points, as there are no fixed points to search over
        derive = pipeline.derive_reduced_map

        def failing(phi, sub):
            if sub.kind == "null":
                raise geometry.NotReducibleError("psi does not descend")
            return derive(phi, sub)

        newton = dynamics._periodic_point_newton
        calls = []

        def counting(*args):
            calls.append(len(args[3]))
            return newton(*args)

        monkeypatch.setattr(pipeline, "derive_reduced_map", failing)
        monkeypatch.setattr(dynamics, "_periodic_point_newton", counting)
        report = run_pipeline(get_fixture("somos5").matrix("B"))
        assert report.errors == [["reduce", "psi does not descend"]]
        assert [r["kind"] for r in report.reductions] == ["casimir"]
        assert [d["kind"] for d in report.dynamics] == ["casimir"]
        assert report.chained == []
        assert len(report.dynamics[0]["fixed_points"]) == 1
        assert calls == [3] * 64

    def test_a_failed_fixed_point_search_is_recorded(self, monkeypatch):
        # neither somos5 level has fixed points to search over, so both
        # run find_periodic_points, and each failure is recorded
        def failing(*args, **kwargs):
            raise DynamicsError("the search failed")

        monkeypatch.setattr(pipeline, "find_periodic_points", failing)
        report = run_pipeline(get_fixture("somos5").matrix("B"))
        assert report.errors == [["fixed-points", "the search failed"]] * 2
        assert [d["kind"] for d in report.dynamics] == ["null", "casimir"]
        assert not any("fixed_points" in d for d in report.dynamics)

    def test_a_failed_discovery_is_recorded_and_rendered(self, monkeypatch):
        # no cluster map makes the sampled discovery fail (its values at
        # positive points are positive), so the failure is patched in:
        # --no-compatible records it and goes on with the null foliation,
        # and the text report names the stage
        def failing(*args, **kwargs):
            raise geometry.GeometryError("could not sample enough well-defined points")

        monkeypatch.setattr(pipeline, "find_invariant_poisson", failing)
        report = run_pipeline(get_fixture("somos5").matrix("B"),
                              WorkflowConfig(require_compatible=False))
        assert report.errors == [["find-poisson", "could not sample enough well-defined points"]]
        assert report.discovered == []
        assert [r["kind"] for r in report.reductions] == ["null"]
        lines = report.render_text().splitlines()
        assert lines[-1] == "stage find-poisson failed: could not sample enough well-defined points"

    def test_a_period_beyond_p_max_is_found_by_the_scan(self):
        # with p_max 8, c7-pair's casimir(3) map (period 10) has no global
        # period up to 8, and the scan, up to 20, closes the first sampled
        # orbit at 10
        report = run_pipeline(get_fixture("c7-pair").matrix("B"), WorkflowConfig(p_max=8))
        entry = report.dynamics[1]
        assert (entry["kind"], entry["dimension"]) == ("casimir", 3)
        assert entry["scan"] == {"period_found": 10, "samples": 10, "p_max": 20}
        assert entry["summary"] == "sampled orbit closed at period 10"
        assert "dynamics [casimir]: sampled orbit closed at period 10" in report.render_text()

    @pytest.mark.parametrize("stage, name", [
        ("dynamics", "no_periodic_points_scan"),
        ("itinerary", "leaf_itinerary"),
    ])
    def test_orbit_leaving_the_domain_is_recorded(self, monkeypatch, stage, name):
        def leaves_domain(*args, **kwargs):
            raise DynamicsError("denominator vanished at step 3")

        monkeypatch.setattr(pipeline, name, leaves_domain)
        report = run_pipeline(get_fixture("somos5-2periodic").matrix("B"))
        assert report.errors == [[stage, "denominator vanished at step 3"]]
        assert (report.itinerary is None) == (stage == "itinerary")
        assert len(report.dynamics) == (stage == "itinerary")


class TestLadderGates:
    """The two rungs whose exact orbits outgrow direct iteration."""

    def test_somos5_2periodic_finishes(self):
        began = time.perf_counter()
        report = run_pipeline(get_fixture("somos5-2periodic").matrix("B"))
        assert time.perf_counter() - began < 10
        assert report.errors == []
        (entry,) = report.dynamics
        assert (entry["kind"], entry["dimension"]) == ("null", 4)
        assert "global_period" not in entry
        assert entry["scan"]["period_found"] is None
        assert (report.growth["class"], report.growth["entropy"]) == ("exponential", 0.9624)
        assert report.itinerary["label_periods"] == [None]

    def test_fordy_marsh_n8_scans_finish(self, monkeypatch):
        spent = []
        scan = pipeline.no_periodic_points_scan

        def timed_scan(*args, **kwargs):
            began = time.perf_counter()
            try:
                return scan(*args, **kwargs)
            finally:
                spent.append(time.perf_counter() - began)

        monkeypatch.setattr(pipeline, "no_periodic_points_scan", timed_scan)
        report = run_pipeline(fordy_marsh((1, -1, 0, 0, 0, -1, 1)))
        assert report.errors == []
        assert len(spent) == len(report.dynamics) == 1
        assert sum(spent) < 5
        for entry in report.dynamics:
            assert entry["scan"]["period_found"] is None
        assert report.growth["class"] == "quadratic"
