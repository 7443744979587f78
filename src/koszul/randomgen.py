"""Seeded random quivers, presentations, morphisms and double complexes.

Everything takes an explicit `random.Random` so the CLI self-checks and the
benchmark inputs are reproducible from a single seed.
"""

from __future__ import annotations

import random
import string

from .algebra import Presentation
from .complexes import DoubleChainMap, DoubleComplex
from .linalg import Matrix, MatrixEquations, Subspace, QQ
from .modules import GradedModule, GradedMorphism, hom_basis
from .quiver import PathEnumerator, Quiver


def random_quiver(rng: random.Random, max_vertices=4, max_arrows=6) -> Quiver:
    nv = rng.randint(1, max_vertices)
    vertices = [str(i + 1) for i in range(nv)]
    na = rng.randint(1, max_arrows)
    arrows = []
    names = iter(string.ascii_lowercase)
    for _ in range(na):
        arrows.append((next(names), rng.choice(vertices), rng.choice(vertices)))
    return Quiver(vertices, arrows)


def random_presentation(rng: random.Random, quiver: Quiver | None = None,
                        field=QQ, degree_cap=8) -> Presentation:
    quiver = quiver or random_quiver(rng)
    bases = PathEnumerator(quiver, 2)
    rels = {}
    for x in quiver.vertices:
        for y in quiver.vertices:
            m = len(bases.basis(2, x, y))
            if not m:
                continue
            k = rng.randint(0, m)
            if not k:
                continue
            vecs = [[field.of(rng.randint(-2, 2)) for _ in range(m)] for _ in range(k)]
            sp = Subspace.from_vectors(field, m, vecs)
            if sp.dim:
                rels[(x, y)] = sp
    return Presentation(quiver, field, rels, degree_cap)


def random_morphism(rng: random.Random, m: GradedModule, n: GradedModule):
    out = GradedMorphism(m, n, {})
    for f in hom_basis(m, n):
        c = rng.randint(-2, 2)
        if c:
            out = out.add(f.scale(m.pres.field.of(c)))
    return out


# -- random double complexes over graded vector spaces --------------------------------


def point_presentation(field=QQ) -> Presentation:
    """One vertex, no arrows: graded modules are graded vector spaces."""
    return Presentation(Quiver(["v"], []), field, {}, 2)


def _vspace(pres, window, dims: dict) -> GradedModule:
    return GradedModule(pres, window, {(i, "v"): d for i, d in dims.items() if d}, {})


def _vmap(pres, src: GradedModule, tgt: GradedModule, mats: dict) -> GradedMorphism:
    return GradedMorphism(src, tgt, {(i, "v"): m for i, m in mats.items()})


def random_invertible(rng, field, n: int) -> tuple[Matrix, Matrix]:
    """A unimodular integer matrix (product of elementary operations) and its inverse."""
    a = Matrix.identity(field, n)
    b = Matrix.identity(field, n)
    ops = rng.randint(0, 2 * n)
    for _ in range(ops):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        c = field.of(rng.randint(-2, 2))
        if not c:
            continue
        # row_i += c * row_j on a; the inverse takes c * column_i from column_j of b
        e = Matrix(field, n, n, [{j: c} if r == i else {} for r in range(n)])
        a = a + e * a
        b = b - b * e
    return a, b


def random_double_complex(rng: random.Random, pres, grid=(0, 2, 0, 2), exact_rows=False
                          ) -> DoubleComplex:
    """A bounded double complex of graded vector spaces in degrees 0 and 1.

    Built as a direct sum of elementary pieces (dots, exact row/column pairs,
    anticommuting unit squares) conjugated by random basis changes, so the
    axioms hold exactly while the matrices look generic.
    """
    i0, i1, j0, j1 = grid
    degrees = window = (0, 1)
    dims: dict = {}

    def bump(i, j, d):
        dims.setdefault((i, j), {}).setdefault(d, 0)
        dims[(i, j)][d] += 1
        return dims[(i, j)][d] - 1

    entries_v: dict = {}
    entries_h: dict = {}

    def put(table, key, d, r, c, val):
        table.setdefault(key, {}).setdefault(d, []).append((r, c, val))

    n_pieces = rng.randint(2, 6)
    for _ in range(n_pieces):
        d = rng.choice(degrees)
        if exact_rows:
            kind = "hpair"
        else:
            kind = rng.choice(["dot", "hpair", "vpair", "square", "square"])
        if kind == "dot":
            bump(rng.randint(i0, i1), rng.randint(j0, j1), d)
        elif kind == "hpair":
            i = rng.randint(i0, i1 - 1)
            j = rng.randint(j0, j1)
            r1 = bump(i, j, d)
            r2 = bump(i + 1, j, d)
            put(entries_h, (i, j), d, r2, r1, 1)
        elif kind == "vpair":
            i = rng.randint(i0, i1)
            j = rng.randint(j0, j1 - 1)
            r1 = bump(i, j, d)
            r2 = bump(i, j + 1, d)
            put(entries_v, (i, j), d, r2, r1, 1)
        else:
            i = rng.randint(i0, i1 - 1)
            j = rng.randint(j0, j1 - 1)
            c00 = bump(i, j, d)
            c10 = bump(i + 1, j, d)
            c01 = bump(i, j + 1, d)
            c11 = bump(i + 1, j + 1, d)
            put(entries_h, (i, j), d, c10, c00, 1)
            put(entries_h, (i, j + 1), d, c11, c01, 1)
            put(entries_v, (i, j), d, c01, c00, 1)
            put(entries_v, (i + 1, j), d, c11, c10, -1)
    field = pres.field
    cells = {}
    for (i, j), table in dims.items():
        cells[(i, j)] = _vspace(pres, window, table)

    def assemble(table, key, src_cell, tgt_cell):
        mats = {}
        for d in degrees:
            rows = tgt_cell.dim(d, "v") if tgt_cell else 0
            cols = src_cell.dim(d, "v")
            if not rows or not cols:
                continue
            vals = {(r, c): val for (r, c, val) in table.get(key, {}).get(d, [])}
            mats[(d, "v")] = Matrix.from_rows(field, [[vals.get((r, c), 0) for c in range(cols)]
                                                      for r in range(rows)])
        return mats

    vert = {}
    horiz = {}
    for (i, j), cell in cells.items():
        up = cells.get((i, j + 1))
        if up is not None:
            vert[(i, j)] = _vmap(pres, cell, up, {d: m for (d, _), m in
                                                  assemble(entries_v, (i, j), cell, up).items()})
        right = cells.get((i + 1, j))
        if right is not None:
            horiz[(i, j)] = _vmap(pres, cell, right, {d: m for (d, _), m in
                                                      assemble(entries_h, (i, j), cell, right).items()})
    dc = DoubleComplex(pres, window, cells, vert, horiz, validate=True)
    return conjugate_double_complex(rng, dc)


def conjugate_double_complex(rng: random.Random, dc: DoubleComplex) -> DoubleComplex:
    """Change basis independently in every cell piece; axioms are preserved."""
    field = dc.pres.field
    basis = {}
    for (i, j), cell in dc.cells.items():
        for (d, x), n in cell.dims.items():
            basis[(i, j, d, x)] = random_invertible(rng, field, n)

    def transform(src_key, tgt_key, mor, src_cell, tgt_cell):
        mats = {}
        for (d, x) in set(src_cell.dims) | set(tgt_cell.dims):
            m = mor.piece(d, x)
            u = basis.get((tgt_key[0], tgt_key[1], d, x))
            w = basis.get((src_key[0], src_key[1], d, x))
            if u is not None:
                m = u[0] * m
            if w is not None:
                m = m * w[1]
            mats[(d, x)] = m
        return GradedMorphism(src_cell, tgt_cell, mats)

    vert = {}
    for (i, j), mor in dc.vert.items():
        vert[(i, j)] = transform((i, j), (i, j + 1), mor, dc.cell(i, j), dc.cell(i, j + 1))
    horiz = {}
    for (i, j), mor in dc.horiz.items():
        horiz[(i, j)] = transform((i, j), (i + 1, j), mor, dc.cell(i, j), dc.cell(i + 1, j))
    return DoubleComplex(dc.pres, dc.window, dict(dc.cells), vert, horiz, validate=True)


def _by_cell(mats: dict) -> dict:
    """{(i, j, d, x): Matrix} regrouped as {(i, j): {(d, x): Matrix}}."""
    out: dict = {}
    for (i, j, d, x), mat in mats.items():
        out.setdefault((i, j), {})[(d, x)] = mat
    return out


def double_hom_basis(m: DoubleComplex, n: DoubleComplex):
    """Basis of morphisms of double complexes over a point presentation."""
    eqs = MatrixEquations(m.pres.field, [
        ((i, j, d, x), n.cell(i, j).dim(d, x), m.cell(i, j).dim(d, x))
        for (i, j) in sorted(set(m.cells) & set(n.cells))
        for (d, x) in sorted(set(m.cell(i, j).dims) & set(n.cell(i, j).dims))])
    for (i, j) in set(m.cells) | set(n.cells):
        for tgt, dm, dn in (((i, j + 1), m.v(i, j), n.v(i, j)),
                            ((i + 1, j), m.h(i, j), n.h(i, j))):
            # f_tgt . dm = dn . f_src
            for (d, x) in set(m.cell(i, j).dims) | set(n.cell(*tgt).dims):
                eqs.add(n.cell(*tgt).dim(d, x), m.cell(i, j).dim(d, x),
                        [(1, None, (*tgt, d, x), dm.piece(d, x)),
                         (-1, dn.piece(d, x), (i, j, d, x), None)])
    return [DoubleChainMap(m, n, {k: GradedMorphism(m.cell(*k), n.cell(*k), v)
                                  for k, v in _by_cell(mats).items()})
            for mats in eqs.kernel()]


def random_double_morphism(rng: random.Random, m: DoubleComplex, n: DoubleComplex):
    basis = double_hom_basis(m, n)
    parts = {}
    field = m.pres.field
    for f in basis:
        c = rng.randint(-1, 2)
        if not c:
            continue
        for k, g in f.parts.items():
            cur = parts.get(k)
            scaled = g.scale(field.of(c))
            parts[k] = scaled if cur is None else cur.add(scaled)
    # built whole, so that DoubleChainMap drops the parts that cancelled to zero
    return DoubleChainMap(m, n, parts)


def random_horizontal_homotopy(rng: random.Random, m: DoubleComplex, n: DoubleComplex):
    """Random u^{i,j}: M^{i,j} -> N^{i-1,j} with v u + u v = 0, and the induced
    horizontally null-homotopic morphism f = u h + h u."""
    field = m.pres.field
    eqs = MatrixEquations(field, [
        ((i, j, d, x), n.cell(i - 1, j).dim(d, x), m.cell(i, j).dim(d, x))
        for (i, j) in sorted(m.cells) if (i - 1, j) in n.cells
        for (d, x) in sorted(set(m.cell(i, j).dims) & set(n.cell(i - 1, j).dims))])
    # v_N^{i-1,j} u^{i,j} + u^{i,j+1} v_M^{i,j} = 0
    for (i, j) in m.cells:
        for (d, x) in set(m.cell(i, j).dims) | set(n.cell(i - 1, j + 1).dims):
            eqs.add(n.cell(i - 1, j + 1).dim(d, x), m.cell(i, j).dim(d, x),
                    [(1, n.v(i - 1, j).piece(d, x), (i, j, d, x), None),
                     (1, None, (i, j + 1, d, x), m.v(i, j).piece(d, x))])
    u = {key: Matrix.zeros(field, nrows, ncols)
         for key, (_, nrows, ncols) in eqs.slots.items()}
    for sol in eqs.kernel():
        c = rng.randint(-1, 2)
        if c:
            u = {key: mat + sol[key].scale(c) for key, mat in u.items()}
    u_mors = {k: GradedMorphism(m.cell(*k), n.cell(k[0] - 1, k[1]), v)
              for k, v in _by_cell(u).items()}
    # f = u h_M + h_N u
    parts = {}
    for (i, j) in set(m.cells) | set(n.cells):
        acc = None
        u1 = u_mors.get((i + 1, j))
        if u1 is not None:
            acc = u1.compose(m.h(i, j))
        u0 = u_mors.get((i, j))
        if u0 is not None:
            t = GradedMorphism(m.cell(i, j), n.cell(i, j),
                               n.h(i - 1, j).compose(u0).mats)
            acc = t if acc is None else acc.add(t)
        if acc is not None and not acc.is_zero():
            parts[(i, j)] = GradedMorphism(m.cell(i, j), n.cell(i, j), acc.mats)
    return u_mors, DoubleChainMap(m, n, parts)
