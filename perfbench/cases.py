"""Ladder inputs: the shipped fixtures plus Fordy-Marsh period-1 quivers.

The Fordy-Marsh quivers are built here rather than taken from the
package, so the benchmark's inputs do not change when the package's
fixtures do.
"""

from __future__ import annotations

# Palindromic first rows of period-1 quivers (Fordy & Marsh, J. Algebr.
# Comb. 34, 2011).  The N = 6, 7 rows give the Somos-6 and Somos-7 quivers.
FORDY_MARSH_ROWS = {
    "fm-n6": (1, -1, 0, -1, 1),
    "fm-n7": (1, -1, 0, 0, -1, 1),
    "fm-n8": (1, -1, 0, 0, 0, -1, 1),
    "fm-n9": (1, 0, -1, 0, 0, -1, 0, 1),
}

SOMOS5_ROW = (1, -1, -1, 1)

LADDER = ("somos5", "c7-pair", "somos5-2periodic", *FORDY_MARSH_ROWS)

# Wall budget of each ladder case in seconds, child start-up included.
# Every rung gets 5 s, the "finishes in seconds" target, except somos5 and
# c7-pair: they take 2.9-4.6 s and 1.7-2.5 s on a 2-core Xeon whose speed
# drops by up to half for stretches of 5-30 s, so they get 12 s and cannot
# time out on a slow stretch.  The fastest rung that does not finish,
# fm-n6, takes 9.0-11.5 s there, so it never finishes near its budget.
BUDGET_S = {name: 5.0 for name in LADDER} | {"somos5": 12.0, "c7-pair": 12.0}


def fordy_marsh_rows(first_row) -> list[list[int]]:
    """Exchange matrix of the period-1 quiver with the given first row.

    With b_{1,j+1} = first_row[j], the rest follows the rule
    b_{i+1,j+1} = b_{i,j} + b_{1,i+1} [-b_{1,j+1}]_+ - b_{1,j+1} [-b_{1,i+1}]_+
    and skew-symmetry.
    """
    top = [0, *first_row]
    if list(first_row) != list(reversed(first_row)):
        raise ValueError(f"first row {first_row} is not palindromic")
    n = len(top)
    b = [[0] * n for _ in range(n)]
    b[0] = list(top)
    for i in range(1, n):
        b[i][0] = -top[i]
        for j in range(1, n):
            b[i][j] = (
                b[i - 1][j - 1]
                + top[i] * max(-top[j], 0)
                - top[j] * max(-top[i], 0)
            )
    return b


def ladder_matrix(cr, name: str):
    """IntMatrix of one ladder case; ``cr`` is the imported package."""
    if name in FORDY_MARSH_ROWS:
        return cr.IntMatrix.from_rows(fordy_marsh_rows(FORDY_MARSH_ROWS[name]))
    return cr.get_fixture(name).matrix("B")


def self_check(cr) -> None:
    """The rule reproduces Somos-5, and every Fordy-Marsh row has period 1."""
    somos5 = cr.IntMatrix.from_rows(fordy_marsh_rows(SOMOS5_ROW))
    if somos5 != cr.get_fixture("somos5").matrix("B"):
        raise RuntimeError("Fordy-Marsh rule does not reproduce the Somos-5 quiver")
    for name in FORDY_MARSH_ROWS:
        cert = cr.detect_period(ladder_matrix(cr, name), 1)
        if cert is None or cert.period != 1:
            raise RuntimeError(f"{name} is not mutation-periodic with period 1")
