"""Sparse exact row reduction kernels.

These are the hot loops of the whole engine: every subspace, kernel and
homology computation funnels into one of the two functions below.  A row is
a dict ``{column: value}`` holding its non-zero entries only; the matrices
the engine reduces are large and very sparse (relation pieces reach
~1000 x 600 at well under 1 % density), so work is proportional to the
non-zeros touched, never to the width.

Both kernels run incremental Gauss-Jordan elimination: rows are inserted
sparsest first (a cheap form of sparsest-pivot ordering, after LaMacchia &
Odlyzko, CRYPTO '90), each new row is cleared at every existing pivot
column, and its own leading column is then cleared from the earlier pivot
rows that hold it.  The pivot rows therefore stay mutually reduced, and the
result is the canonical reduced row echelon form whatever the insertion
order.
"""

from __future__ import annotations

from math import gcd

BACKEND = "python"


def _gauss_jordan(rows, combine, normalize):
    """Canonical reduced rows, in pivot order, and the pivot columns.

    `rows` are owned by the caller's kernel and may be modified.
    `combine(row, other, c)` clears column c of `row` with the pivot row
    `other` (pivot c); `normalize(row, lead)` scales a row to its canonical
    multiple.  Both return the resulting row and may reuse `row`.
    """
    piv: dict[int, dict] = {}
    holders: dict[int, set] = {}    # non-pivot column -> pivots whose rows may hold it
    for row in sorted(rows, key=len):
        # pivot rows hold no other pivot's column, so one pass clears them all
        for c in [c for c in row if c in piv]:
            row = combine(row, piv[c], c)
        if not row:
            continue
        lead = min(row)
        row = normalize(row, lead)
        for k in row:
            if k != lead:
                holders.setdefault(k, set()).add(lead)
        for c in holders.pop(lead, ()):
            other = piv[c]
            if lead in other:
                piv[c] = normalize(combine(other, row, lead), c)
                for k in row:
                    if k != lead:
                        holders[k].add(c)
        piv[lead] = row
    pivots = tuple(sorted(piv))
    return [piv[c] for c in pivots], pivots


def rref_fp(rows, p):
    """Reduced row echelon form over F_p.

    `rows` is an iterable of ``{column: int}`` dicts; values are taken
    mod p and zeros are dropped.  The input is not modified.  Returns
    (reduced non-zero rows with leading 1s in pivot order, pivot column
    tuple).
    """
    def combine(row, other, c):
        f = row[c]
        for k, v in other.items():
            nv = (row.get(k, 0) - f * v) % p
            if nv:
                row[k] = nv
            else:
                del row[k]
        return row

    def normalize(row, lead):
        if row[lead] == 1:
            return row
        inv = pow(row[lead], p - 2, p)
        return {k: v * inv % p for k, v in row.items()}

    reduced = []
    for src in rows:
        row = {}
        for c, v in src.items():
            v %= p
            if v:
                row[c] = v
        reduced.append(row)
    return _gauss_jordan(reduced, combine, normalize)


def _combine_int(row, other, c):
    """a*row - b*other with a, b the smallest integers clearing column c."""
    a = other[c]
    b = row[c]
    g = gcd(a, b)
    a //= g
    b //= g
    if a != 1:
        row = {k: a * v for k, v in row.items()}
    for k, v in other.items():
        nv = row.get(k, 0) - b * v
        if nv:
            row[k] = nv
        else:
            del row[k]
    return row


def _primitive(row, lead):
    """Divide out the content of a row and make its leading entry positive."""
    g = gcd(*row.values())
    if row[lead] < 0:
        g = -g
    if g != 1:
        return {k: v // g for k, v in row.items()}
    return row


def rref_int(rows):
    """Integer row echelon data for a rational RREF.

    `rows` is an iterable of ``{column: int}`` dicts (callers clear
    denominators first); zero values are dropped and the input is not
    modified.  Fraction-free cross-multiplication with per-row content
    reduction; returns rows that are the canonical rational RREF scaled by
    the smallest positive integer clearing denominators (leading entries
    positive, content 1), in pivot order, plus the pivot columns.
    """
    reduced = [{c: v for c, v in src.items() if v} for src in rows]
    return _gauss_jordan(reduced, _combine_int, _primitive)
