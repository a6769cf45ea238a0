"""The mod-p echelon form and annihilator as they stood before their
per-rank savings, kept verbatim as an oracle for
``stablerank.ranks._echelon_mod_p`` and ``_annihilator_mod_p``.

``test_fp_kernel_oracle.py`` runs both on the same vectors and asserts that
the pivots, the echelon rows and the annihilator bases are equal: the
kernels may do less work per rank, but they must return what these return.
Nothing in this file is imported by the package.
"""

from __future__ import annotations

from typing import Sequence


def _echelon_mod_p(vectors: Sequence[Sequence[int]], p: int) -> tuple[list[tuple[int, int]], list[list[int]]]:
    """A row echelon form of ``vectors`` mod p: the (row, column) of each
    pivot, rows numbered as given, in column order, and the echelon row of
    each pivot, zero mod p left of its column.  The number of pivots is
    the rank.

    Each echelon row is its given row plus multiples of the given rows of
    earlier pivots, so the echelon rows span the same space as
    ``vectors``, and the square minor of ``vectors`` on the pivot rows and
    columns is nonsingular mod p.
    """
    index = [i for i, v in enumerate(vectors) if any(x % p for x in v)]
    rows = [list(vectors[i]) for i in index]
    pivots: list[tuple[int, int]] = []
    width = len(rows[0]) if rows else 0
    for col in range(width):
        rank = len(pivots)
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] % p), -1)
        if piv < 0:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        index[rank], index[piv] = index[piv], index[rank]
        pivots.append((index[rank], col))
        pivot = rows[rank]
        inv = pow(pivot[col], p - 2, p)
        for r in range(rank + 1, len(rows)):  # echelon form: rows below only
            if f := rows[r][col] * inv % p:
                rows[r] = [(a - f * b) % p for a, b in zip(rows[r], pivot)]
        if rank + 1 == len(rows):
            break
    return pivots, rows[: len(pivots)]


def _annihilator_mod_p(vectors: Sequence[Sequence[int]], p: int, width: int) -> list[tuple[int, list[int]]]:
    """A basis of the x in F_p^width with u . x = 0 mod p for every u in
    ``vectors``, by back substitution in their echelon rows: one x per
    non-pivot column f, returned as (f, x), with 1 at f and 0 at every
    other non-pivot column.  Nothing here is checked."""
    pivots, rows = _echelon_mod_p(vectors, p)
    cols = [c for _, c in pivots]
    basis = []
    for f in sorted(set(range(width)).difference(cols)):
        x = [0] * width
        x[f] = 1
        for c, row in zip(reversed(cols), reversed(rows)):
            x[c] = -sum(a * b for a, b in zip(row[c + 1 :], x[c + 1 :])) * pow(row[c], p - 2, p) % p
        basis.append((f, x))
    return basis
