#!/usr/bin/env python3
"""Seven-node quiver: a three-level foliation flag and an orbit taxonomy.

The seven-node exchange matrix drives a Somos-7-type recurrence (middle
coefficient zero) that preserves, besides its presymplectic form, two
distinct log-canonical Poisson structures of ranks 4 and 2.  Their
Casimir foliations nest, giving a chain of reductions

    2-d Lyness map  <  3-d map  <  5-d map  <  full 7-d map

whose levels behave completely differently: globally 5-periodic,
globally 10-periodic, and (empirically) without periodic points at all.
The leaf itinerary of a generic orbit shows all levels at once.

Run with:  python3 demos/seven_node_taxonomy.py
"""

from fractions import Fraction

from mpmath import mp

from cluster_reduce import (
    build_flag,
    chained_reduction,
    cluster_map,
    degree_growth,
    derive_reduced_map,
    detect_global_periodicity,
    detect_period,
    find_periodic_points,
    get_fixture,
    golden_ratio,
    growth_class,
    kernel_lattice,
    leaf_itinerary,
    no_periodic_points_scan,
    random_positive_point,
    rng_substream,
    sublattice_subset,
    submersion_from_rows,
)


def section(title):
    print()
    print(f"== {title} ==")


def main():
    fix = get_fixture("c7-pair")
    b = fix.matrix("B")
    c1 = fix.matrix("C1")
    c2 = fix.matrix("C2")

    section("Two invariant Poisson structures")
    print(f"exchange matrix rank: {b.rank()}")
    print(f"rank C1 = {c1.rank()}, rank C2 = {c2.rank()}")
    nested = sublattice_subset(kernel_lattice(c1), kernel_lattice(c2))
    print(f"Casimir lattice of C1 sits inside that of C2: {nested}")

    section("Cluster map")
    cert = detect_period(b)
    phi = cluster_map(b, cert)
    print(f"mutation period {cert.period}; recurrence component: {phi.to_strings()[-1]}")

    section("The foliation flag")
    subs = [
        submersion_from_rows(fix.exponent("null").entries, 7, kind="null"),
        submersion_from_rows(fix.exponent("casimir1").entries, 7, kind="casimir"),
        submersion_from_rows(fix.exponent("casimir2").entries, 7, kind="casimir"),
    ]
    flag = build_flag(subs)
    print(f"chain: {flag.describe()}")
    systems = [derive_reduced_map(phi, s) for s in subs]
    for i, p in enumerate(flag.projections):
        link = chained_reduction(systems[i], systems[i + 1], p)
        print(f"level {i + 2} -> level {i + 1} chained reduction verified: {link.verified}")

    section("Dynamics per level")
    lyness, psi1, psi2 = (s.map for s in systems)
    rep5 = detect_global_periodicity(lyness)
    print(f"2-d level is the Lyness map {lyness.to_strings()}: "
          f"global period {rep5.period} ({rep5.certificate} certificate)")
    rep10 = detect_global_periodicity(psi1)
    print(f"3-d level: global period {rep10.period} ({rep10.certificate} certificate)")
    scan = no_periodic_points_scan(psi2, p_max=20, samples=25, seed=0)
    print(f"5-d level: periodic points found up to p=20 over 25 sampled orbits: "
          f"{scan.period_found}")
    print(f"  ({scan.note})")
    degrees = degree_growth(b, cert)
    kind, _ = growth_class(degrees)
    print(f"full 7-d map: exact degrees of its iterates (tropical d-vectors) "
          f"{degrees[:8]} ... {degrees[-1]}; {kind} growth, read off d_30, d_59, d_60")

    section("Fixed points of the periodic levels")
    with mp.workdps(64):
        g = golden_ratio()
        fp2 = find_periodic_points(lyness, 1)[0]
        fp3 = find_periodic_points(psi1, 1, grid=4)[0]
        print(f"2-d fixed point: ({mp.nstr(fp2.point[0], 15)}, {mp.nstr(fp2.point[1], 15)})")
        print(f"   golden ratio:  {mp.nstr(g, 15)}")
        print(f"3-d fixed point: ({mp.nstr(fp3.point[0], 15)}, {mp.nstr(fp3.point[1], 15)}, "
              f"{mp.nstr(fp3.point[2], 15)})")
        print(f"   (g, g, sqrt(g^3)) with g the golden ratio; "
              f"sqrt(g^3) = {mp.nstr(mp.sqrt(g**3), 15)}")

    section("Orbit taxonomy via leaf itineraries")
    print("labels of an orbit under the 2-d and 3-d projections:")
    start = tuple(Fraction(1) for _ in range(7))
    itin = leaf_itinerary(phi, subs[:2], start, 20, names=["2-d leaf", "3-d leaf"])
    print(itin.summary())
    print("the same pattern from a random positive rational start:")
    start = random_positive_point(7, rng_substream(0, 1))
    itin = leaf_itinerary(phi, subs[:2], start, 20, names=["2-d leaf", "3-d leaf"])
    print(f"  label periods: {itin.periods}")
    print("so a generic orbit projects 5-periodically onto the 2-d level and")
    print("10-periodically onto the 3-d level, while the 5-d projection and the")
    print("full orbit never return: growth without periodicity.")


if __name__ == "__main__":
    main()
