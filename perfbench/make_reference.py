"""Write reference.json, the exact objects the benchmark's checks compare with.

Run from the repository root:  python3 perfbench/make_reference.py

The objects come from the symbolic stages only (no exact orbits), so the
cases the pipeline cannot finish get references too.  Fixed points of the
reduced maps of dimension <= 3 are stored to 30 digits in the Hermite
basis of each lattice; those of somos5 and c7-pair are checked against
their closed forms (plastic number and golden ratio) before anything is
written.
"""

from __future__ import annotations

import json
import sys

import run
import cases
import workloads


def main() -> int:
    cr = run.import_package()
    import mpmath as mp

    out = {"c7_global_periods": {"2": 5, "3": 10}, "cases": {}}
    for case in cases.LADDER:
        result = workloads.analyse(cr, cases.ladder_matrix(cr, case), seed=0)
        summary = workloads.structure_summary(cr, result)
        keys = summary["lattices"]
        summary["lattices"] = sorted(set(keys))
        fixed, periods = {}, {}
        for system, key in zip(result["systems"], keys):
            psi = system.map
            if psi.dim_in <= 3:
                points = cr.find_periodic_points(psi, 1, precision=64, grid=4)
                with mp.workdps(40):
                    v = workloads.to_canonical(cr, system.submersion.map.exponents.entries)
                    got = [workloads.canonical_point(mp, v, p.point) for p in points]
                    fixed[key] = [[mp.nstr(x, 30) for x in p] for p in got]
                    name = f"{case}:{system.submersion.kind}{psi.dim_in}"
                    if case in ("somos5", "c7-pair") and not workloads.points_match(
                        mp, got, workloads.closed_form_fixed_points(cr, mp, name),
                        mp.mpf(10) ** -30,
                    ):
                        raise SystemExit(f"{name}: fixed points differ from the closed form")
            if case == "c7-pair":
                p = out["c7_global_periods"].get(str(psi.dim_in))
                if p is not None and psi.iterate(p).is_identity():
                    periods[key] = p
        if fixed:
            summary["fixed_points"] = fixed
        if periods:
            summary["global_periods"] = periods
        out["cases"][case] = summary
        print(case, summary["period"], summary["rank"], len(summary["lattices"]), file=sys.stderr)
    if len(out["cases"]["c7-pair"].get("global_periods", {})) != 2:
        raise SystemExit("c7-pair global periods 5 and 10 were not certified")
    path = workloads.HERE / "reference.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
