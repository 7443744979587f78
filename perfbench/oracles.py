"""Checks that share no code path with the koszul package's linear algebra.

Everything here is plain `fractions.Fraction` arithmetic written for the
benchmark: its own row reduction, its own path enumeration and its own
reading of `.kz` relation lines.  It reads koszul objects only as data
(matrix rows, module dimensions, action matrices).
"""

from __future__ import annotations

import hashlib
from fractions import Fraction


def rank(rows) -> int:
    """Rank of a list of equal-length Fraction rows (Gaussian elimination)."""
    mat = [list(r) for r in rows if any(r)]
    if not mat:
        return 0
    ncols = len(mat[0])
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        piv = mat[r]
        inv = 1 / Fraction(piv[c])
        for i in range(r + 1, len(mat)):
            f = mat[i][c]
            if f:
                f *= inv
                row = mat[i]
                for j in range(c, ncols):
                    if piv[j]:
                        row[j] -= f * piv[j]
        r += 1
        if r == len(mat):
            break
    return r


def witness_holds(dn_rows, dp_rows, dp_ncols, w) -> bool:
    """d_n . w = 0 and w is not in the column space of d_{n-1}."""
    if any(sum(a * b for a, b in zip(row, w)) for row in dn_rows):
        return False
    cols = [[row[c] for row in dp_rows] for c in range(dp_ncols)]
    return rank(cols + [list(w)]) > rank(cols)


# -- Hilbert series of the algebra and of its quadratic dual, from the text alone ----


def parse_kz(text):
    """(vertices, arrows {name: (src, tgt)}, relations [{2-path: coeff}]) of a .kz text.

    Paths are tuples of arrow names in traversal order (`g*b` is (b, g)).
    """
    vertices, arrows, rels = [], {}, []
    section = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line in ("quiver", "relations"):
            section = line
            continue
        if line.startswith("vertices:"):
            vertices = line.split(":", 1)[1].split()
        elif line.startswith("arrows:"):
            toks = line.split(":", 1)[1].replace("->", " ").replace(":", " ").split()
            for i in range(0, len(toks), 3):
                arrows[toks[i]] = (toks[i + 1], toks[i + 2])
        elif section == "relations":
            for part in line.split(";"):
                if part.strip():
                    rels.append(_parse_relation(part))
    return vertices, arrows, rels


def _parse_relation(text):
    out = {}
    for sign, term in _signed_terms(text):
        coeff = Fraction(sign)
        if " * " in term:                      # "c * word", as printed by the DSL
            c, term = term.split(" * ", 1)
            coeff *= Fraction(c)
        path = tuple(reversed(term.replace(" ", "").split("*")))
        out[path] = out.get(path, 0) + coeff
    return out


def _signed_terms(text):
    text = text.replace("-", " - ").replace("+", " + ")
    sign, buf = 1, []
    for tok in text.split():
        if tok in "+-":
            if buf:
                yield sign, " ".join(buf)
                buf = []
            sign = -1 if tok == "-" else 1
        else:
            buf.append(tok)
    if buf:
        yield sign, " ".join(buf)


def _paths(arrows, n, start):
    layer = [((), start)]
    for _ in range(n):
        layer = [(p + (a,), t) for p, end in layer
                 for a, (s, t) in arrows.items() if s == end]
    return layer


def piece_dims(text, n_max, dual):
    """{(n, a, x): dim} for n <= n_max: e_a L_n e_x, or e_a L^!_n e_x if `dual`.

    Paths run from a to x.  A piece is the path space modulo the span of
    head.r.tail for r in R (for L) or in R^perp (for L^!, the standard
    pairing of paths); for L^! this equals dim R^(n)(a, x), the intersection
    of the spaces kQ.R.kQ, by orthogonality.
    """
    vertices, arrows, rels = parse_kz(text)
    two_paths = {}
    for x in vertices:
        for p, z in _paths(arrows, 2, x):
            two_paths.setdefault((x, z), []).append(p)
    gens2 = {}
    for key, basis in two_paths.items():
        inside = [rel for rel in rels if set(rel) <= set(basis)]
        if dual:
            idx = {p: i for i, p in enumerate(basis)}
            relrows = []
            for rel in inside:
                row = [Fraction(0)] * len(basis)
                for p, c in rel.items():
                    row[idx[p]] += c
                relrows.append(row)
            gens2[key] = [dict(zip(basis, vec)) for vec in _nullspace(relrows, len(basis))]
        else:
            gens2[key] = inside
    out = {}
    for a in vertices:
        for n in range(n_max + 1):
            by_end = {}
            for p, x in _paths(arrows, n, a):
                by_end.setdefault(x, []).append(p)
            for x in vertices:
                basis = by_end.get(x, [])
                if n < 2:
                    out[(n, a, x)] = len(basis)
                    continue
                idx = {p: i for i, p in enumerate(basis)}
                frames = {(p[:i], p[i + 2:], arrows[p[i]][0], arrows[p[i + 1]][1])
                          for p in basis for i in range(n - 1)}
                rows = []
                for head, tail, src, tgt in frames:
                    for vec in gens2.get((src, tgt), []):
                        row = [Fraction(0)] * len(basis)
                        for q, c in vec.items():
                            if c:
                                row[idx[head + q + tail]] += c
                        rows.append(row)
                out[(n, a, x)] = len(basis) - rank(rows)
    return out


def hilbert_failures(text, d_max):
    """Degrees 1..d_max where sum_n (-1)^n H^!_n H_{d-n} != 0 (numerical Koszulity).

    If every augmented local Koszul complex is exact in internal degree d at
    all positions, its Euler characteristic in that degree vanishes; so a
    certificate that found no failure up to d must leave this list empty.
    """
    vertices = parse_kz(text)[0]
    dual = piece_dims(text, d_max, dual=True)
    alg = piece_dims(text, d_max, dual=False)
    bad = []
    for d in range(1, d_max + 1):
        if any(sum((-1) ** n * dual[(n, a, x)] * alg[(d - n, x, y)]
                   for n in range(d + 1) for x in vertices)
               for a in vertices for y in vertices):
            bad.append(d)
    return bad


def _nullspace(rows, ncols):
    """Basis of {v : rows . v = 0}, as lists of Fractions."""
    mat = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [v * inv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [u - f * v for u, v in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    out = []
    for free in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -mat[i][free]
        out.append(vec)
    return out


# -- canonical bytes of library results ---------------------------------------------


def _mat(m):
    return f"{m.nrows}x{m.ncols}:" + ";".join(",".join(str(v) for v in row) for row in m.rows)


def _items(d):
    return sorted(d.items(), key=lambda kv: repr(kv[0]))


def module_bytes(m) -> str:
    dims = ",".join(f"{k!r}={v}" for k, v in _items(m.dims) if v)
    acts = ",".join(f"{k!r}={_mat(v)}" for k, v in _items(m.actions))
    return f"M[{tuple(m.window)!r}|{dims}|{acts}]"


def complex_bytes(cx) -> str:
    parts = [f"W{tuple(cx.window)!r}"]
    for n, m in _items(cx.modules):
        parts.append(f"P{n}{module_bytes(m)}")
    for n, d in _items(cx.diffs):
        mats = ",".join(f"{k!r}={_mat(v)}" for k, v in _items(d.mats))
        parts.append(f"D{n}[{mats}]")
    return "\n".join(parts)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]
