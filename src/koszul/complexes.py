"""Bounded complexes and double complexes of graded modules.

Double complexes follow the convention that makes the unsigned total
differential square to zero: rows and columns are complexes and the mixed
composites anticommute (h.v + v.h = 0).  Callers whose data arrives with
commuting squares twist the columns themselves: column i's differential
gets the sign (-1)^i.

Direct-sum positions carry ordered block labels (opaque tuples); the
canonical form sorts blocks by label so that structurally equal
constructions compare bit-exactly.  Cones, total complexes and the
canonical form assemble no matrices themselves: they hand their blocks to
`modules.block_morphism` and slice with `modules.block_parts`.

A mapping cone is the total complex of X (column -1, differential negated)
and Y (column 0).  The accessors (`module`, `diff`, `part`, `cell`, `v`,
`h`) synthesize zero objects only for outside callers.
"""

from __future__ import annotations

from .linalg import MatrixEquations, Subspace
from .modules import (GradedModule, GradedMorphism, block_morphism, block_parts,
                      direct_sum, zero_module, zero_morphism)


def blocks_of(m: GradedModule):
    if m.blocks is not None:
        return tuple((k, b) for k, b in m.blocks if not b.is_zero())
    if m.is_zero():
        return ()
    return (((), m),)


class ComplexOfModules:
    """A bounded cochain complex; differentials raise the position by one."""

    def __init__(self, pres, window, modules, diffs, validate=True):
        self.pres = pres
        self.window = window
        self.modules = {n: m for n, m in modules.items() if not m.is_zero()}
        self.diffs = {n: d for n, d in diffs.items() if not d.is_zero()}
        if validate:
            self._validate()

    def module(self, n: int) -> GradedModule:
        m = self.modules.get(n)
        return m if m is not None else zero_module(self.pres, self.window)

    def diff(self, n: int) -> GradedMorphism:
        d = self.diffs.get(n)
        return d if d is not None else zero_morphism(self.module(n), self.module(n + 1))

    def positions(self):
        return sorted(self.modules)

    def support(self):
        pos = self.positions()
        return (pos[0], pos[-1]) if pos else (0, -1)

    def _validate(self):
        for n, d in self.diffs.items():
            if d.source.dims != self.module(n).dims or d.target.dims != self.module(n + 1).dims:
                raise ValueError(f"differential at {n} has wrong endpoints")
        for n in list(self.diffs):
            nxt = self.diffs.get(n + 1)
            if nxt is not None and not nxt.compose(self.diffs[n]).is_zero():
                raise ValueError(f"d^2 != 0 at position {n}")

    # -- functorial operations -------------------------------------------------

    def shift(self, k: int) -> "ComplexOfModules":
        """The k-th shift: position n holds the old position n+k, signs (-1)^k."""
        modules = {n - k: m for n, m in self.modules.items()}
        sign = -1 if k % 2 else 1
        diffs = {}
        for n, d in self.diffs.items():
            diffs[n - k] = d if sign == 1 else d.negate()
        return ComplexOfModules(self.pres, self.window, modules, diffs, validate=False)

    def same_content(self, other: "ComplexOfModules") -> bool:
        if set(self.modules) != set(other.modules):
            return False
        for n in self.modules:
            if not self.module(n).same_content(other.module(n)):
                return False
        for n in set(self.diffs) | set(other.diffs):
            if not self.diff(n).same_content(other.diff(n)):
                return False
        return True

    def canonical_form(self) -> "ComplexOfModules":
        """Sort every position's blocks by label and conjugate the differentials."""
        blocks, new_index, modules = {}, {}, {}
        for n, m in self.modules.items():
            blocks[n] = blocks_of(m)
            order = sorted(range(len(blocks[n])), key=lambda t: repr(blocks[n][t][0]))
            new_index[n] = {t: k for k, t in enumerate(order)}
            modules[n] = direct_sum(self.pres, m.window, [blocks[n][t] for t in order])
        diffs = {}
        # a non-zero differential joins two non-zero positions
        for n, d in self.diffs.items():
            rows, cols = new_index[n + 1], new_index[n]
            parts = {(rows[r], cols[c]): mats for (r, c), mats in
                     block_parts(d, [b for _, b in blocks[n + 1]], [b for _, b in blocks[n]]).items()}
            diffs[n] = block_morphism(modules[n], modules[n + 1],
                                      [b for _, b in modules[n + 1].blocks],
                                      [b for _, b in modules[n].blocks], parts)
        return ComplexOfModules(self.pres, self.window, modules, diffs, validate=False)

    def __repr__(self):
        lo, hi = self.support()
        return f"Complex(positions {lo}..{hi})"


def single_module_complex(m: GradedModule) -> ComplexOfModules:
    """m alone at position 0."""
    return ComplexOfModules(m.pres, m.window, {0: m}, {}, validate=False)


def relabel_positions(cx: ComplexOfModules, tag) -> ComplexOfModules:
    """Wrap every position in a single labeled block (tag, n)."""
    mods = {n: direct_sum(cx.pres, m.window, [(((tag, n),), m)])
            for n, m in cx.modules.items()}
    diffs = {n: GradedMorphism(mods[n], mods[n + 1], d.mats)
             for n, d in cx.diffs.items() if n + 1 in mods}
    return ComplexOfModules(cx.pres, cx.window, mods, diffs, validate=False)


def relabel_cells(dc: "DoubleComplex", tag) -> "DoubleComplex":
    """Wrap every cell in a single labeled block (tag, i, j)."""
    cells = {(i, j): direct_sum(dc.pres, m.window, [(((tag, i, j),), m)])
             for (i, j), m in dc.cells.items()}
    vert = {(i, j): GradedMorphism(cells[(i, j)], cells[(i, j + 1)], d.mats)
            for (i, j), d in dc.vert.items() if (i, j + 1) in cells}
    horiz = {(i, j): GradedMorphism(cells[(i, j)], cells[(i + 1, j)], d.mats)
             for (i, j), d in dc.horiz.items() if (i + 1, j) in cells}
    return DoubleComplex(dc.pres, dc.window, cells, vert, horiz, validate=False)


def relabel_double_map(f: "DoubleChainMap", src: "DoubleComplex",
                       tgt: "DoubleComplex") -> "DoubleChainMap":
    parts = {k: GradedMorphism(src.cell(*k), tgt.cell(*k), g.mats)
             for k, g in f.parts.items()}
    return DoubleChainMap(src, tgt, parts)


class ChainMap:
    """A morphism of complexes, stored positionwise."""

    def __init__(self, source: ComplexOfModules, target: ComplexOfModules, parts):
        self.source = source
        self.target = target
        self.parts = {n: f for n, f in parts.items() if not f.is_zero()}

    def part(self, n: int) -> GradedMorphism:
        f = self.parts.get(n)
        if f is not None:
            return f
        return zero_morphism(self.source.module(n), self.target.module(n))

    def validate(self):
        for n in set(self.parts) | {k - 1 for k in self.parts}:     # else both sides are 0
            lhs, rhs = (g.compose(f).mats if g is not None and f is not None else {}
                        for g, f in ((self.target.diffs.get(n), self.parts.get(n)),
                                     (self.parts.get(n + 1), self.source.diffs.get(n))))
            for key in lhs.keys() | rhs.keys():
                a, b = lhs.get(key), rhs.get(key)
                if not (b.is_zero() if a is None else a.is_zero() if b is None else a == b):
                    raise ValueError(f"not a chain map at position {n}")
        return self


def mapping_cone(f: ChainMap) -> ComplexOfModules:
    """C_f, the total complex of X (column -1, differential negated) and Y
    (column 0) joined by f: position n is X^{n+1} (+) Y^n, blocks concatenated."""
    x, y = f.source, f.target
    cols = ((-1, x), (0, y))
    cells = {(c, n): m for c, cx in cols for n, m in cx.modules.items()}
    vert = {(c, n): d.negate() if c == -1 else d for c, cx in cols for n, d in cx.diffs.items()}
    horiz = {(-1, n): g for n, g in f.parts.items()}
    return total_complex(DoubleComplex(x.pres, x.window, cells, vert, horiz, validate=False))


class DoubleComplex:
    """Bounded grid with row/column complexes and anticommuting squares."""

    def __init__(self, pres, window, cells, vert, horiz, validate=True):
        self.pres = pres
        self.window = window
        self.cells = {k: m for k, m in cells.items() if not m.is_zero()}
        self.vert = {k: d for k, d in vert.items() if not d.is_zero()}
        self.horiz = {k: d for k, d in horiz.items() if not d.is_zero()}
        if validate:
            self._validate()

    def cell(self, i, j) -> GradedModule:
        m = self.cells.get((i, j))
        return m if m is not None else zero_module(self.pres, self.window)

    def v(self, i, j) -> GradedMorphism:
        d = self.vert.get((i, j))
        return d if d is not None else zero_morphism(self.cell(i, j), self.cell(i, j + 1))

    def h(self, i, j) -> GradedMorphism:
        d = self.horiz.get((i, j))
        return d if d is not None else zero_morphism(self.cell(i, j), self.cell(i + 1, j))

    def _validate(self):
        for (i, j) in set(self.vert) | set(self.horiz) | set(self.cells):
            if not self.v(i, j + 1).compose(self.v(i, j)).is_zero():
                raise ValueError(f"column {i} not a complex at {j}")
            if not self.h(i + 1, j).compose(self.h(i, j)).is_zero():
                raise ValueError(f"row {j} not a complex at {i}")
            anti = self.v(i + 1, j).compose(self.h(i, j)).add(
                self.h(i, j + 1).compose(self.v(i, j)))
            if not anti.is_zero():
                raise ValueError(f"squares do not anticommute at ({i},{j})")

    def row(self, j) -> ComplexOfModules:
        modules = {i: m for (i, jj), m in self.cells.items() if jj == j}
        diffs = {i: d for (i, jj), d in self.horiz.items() if jj == j}
        return ComplexOfModules(self.pres, self.window, modules, diffs, validate=False)

    def __repr__(self):
        return f"DoubleComplex({len(self.cells)} cells)"


class DoubleChainMap:
    def __init__(self, source: DoubleComplex, target: DoubleComplex, parts):
        self.source = source
        self.target = target
        self.parts = {k: f for k, f in parts.items() if not f.is_zero()}

    def part(self, i, j) -> GradedMorphism:
        f = self.parts.get((i, j))
        if f is not None:
            return f
        return zero_morphism(self.source.cell(i, j), self.target.cell(i, j))

    def validate(self):
        keys = set(self.source.cells) | set(self.target.cells) | set(self.parts)
        for (i, j) in keys:
            if not self.part(i, j + 1).compose(self.source.v(i, j)).same_content(
                    self.target.v(i, j).compose(self.part(i, j))):
                raise ValueError(f"not vertical-compatible at ({i},{j})")
            if not self.part(i + 1, j).compose(self.source.h(i, j)).same_content(
                    self.target.h(i, j).compose(self.part(i, j))):
                raise ValueError(f"not horizontal-compatible at ({i},{j})")
        return self


def _diagonals(dc: DoubleComplex) -> dict:
    """n -> the ascending i with a non-zero cell (i, n - i)."""
    out: dict = {}
    for (i, j) in sorted(dc.cells):
        out.setdefault(i + j, []).append(i)
    return out


def total_complex(dc: DoubleComplex) -> ComplexOfModules:
    """T(M)^n = (+)_i M^{i, n-i}, summands ascending in i, unsigned blocks."""
    pres, window, cells = dc.pres, dc.window, dc.cells
    order = _diagonals(dc)
    modules = {n: direct_sum(pres, window, [b for i in idxs for b in blocks_of(cells[(i, n - i)])])
               for n, idxs in order.items()}
    diffs = {}
    for n in sorted(modules):
        if n + 1 not in modules:
            continue
        row = {jj: r for r, jj in enumerate(order[n + 1])}
        parts = {}
        for c, ii in enumerate(order[n]):
            for jj, f in ((ii, dc.vert.get((ii, n - ii))), (ii + 1, dc.horiz.get((ii, n - ii)))):
                if f is not None and jj in row:
                    parts[(row[jj], c)] = f.mats
        diffs[n] = block_morphism(modules[n], modules[n + 1],
                                  [cells[(jj, n + 1 - jj)] for jj in order[n + 1]],
                                  [cells[(ii, n - ii)] for ii in order[n]], parts)
    return ComplexOfModules(pres, window, modules, diffs, validate=False)


def total_chain_map(f: DoubleChainMap) -> ChainMap:
    src = total_complex(f.source)
    tgt = total_complex(f.target)
    src_order, tgt_order = _diagonals(f.source), _diagonals(f.target)
    parts = {}
    # a non-zero part joins two non-zero positions
    for n in src.modules.keys() & tgt.modules.keys():
        src_idx, tgt_idx = src_order[n], tgt_order[n]
        row = {jj: r for r, jj in enumerate(tgt_idx)}
        blocks = {(row[ii], c): f.parts[(ii, n - ii)].mats for c, ii in enumerate(src_idx)
                  if ii in row and (ii, n - ii) in f.parts}
        parts[n] = block_morphism(src.modules[n], tgt.modules[n],
                                  [f.target.cells[(jj, n - jj)] for jj in tgt_idx],
                                  [f.source.cells[(ii, n - ii)] for ii in src_idx], blocks)
    return ChainMap(src, tgt, parts)


def horizontal_cone(f: DoubleChainMap) -> DoubleComplex:
    """Rows are the mapping cones of the rows of f."""
    return _double_cone(f, 1, 0)


def vertical_cone(f: DoubleChainMap) -> DoubleComplex:
    """Columns are the mapping cones of the columns of f."""
    return _double_cone(f, 0, 1)


def _double_cone(f: DoubleChainMap, di: int, dj: int) -> DoubleComplex:
    """Cell (i, j) is M^{(i,j)+(di,dj)} (+) N^{i,j}; f enters only the
    differential along (di, dj)."""
    m, n = f.source, f.target
    pres, window = m.pres, m.window
    keys = {(i, j) for (i, j) in set(m.cells) | set(n.cells)} | \
           {(i - di, j - dj) for (i, j) in m.cells}
    cells = {(i, j): direct_sum(pres, window, blocks_of(m.cell(i + di, j + dj)) +
                                blocks_of(n.cell(i, j))) for (i, j) in keys}
    vert, horiz = {}, {}
    for (i, j) in keys:
        for (ei, ej), maps, dm, dn in (((0, 1), vert, m.v, n.v), ((1, 0), horiz, m.h, n.h)):
            tgt = cells.get((i + ei, j + ej))
            if tgt is not None:
                c = f.part(i + di, j + dj) if (ei, ej) == (di, dj) else None
                maps[(i, j)] = _block2(cells[(i, j)], tgt, dm(i + di, j + dj).negate(),
                                       c, dn(i, j))
    return DoubleComplex(pres, window, cells, vert, horiz, validate=False)


def _block2(src, tgt, a, c, d):
    """2x2 block morphism [[a, 0], [c, d]]; c may be None for zero."""
    parts = {(0, 0): a.mats, (1, 1): d.mats}
    if c is not None:
        parts[(1, 0)] = c.mats
    return block_morphism(src, tgt, [a.target, d.target], [a.source, d.source], parts)


# -- homology ---------------------------------------------------------------------


def homology_tables(x: ComplexOfModules):
    """dict n -> dict[(degree, vertex)] -> dim H^n."""
    out = {}
    lo, hi = x.support()
    for n in range(lo, hi + 1):
        table = homology_at(x, n)
        if table:
            out[n] = table
    return out


def homology_at(x: ComplexOfModules, n: int):
    """dim ker d^n - rank d^(n-1) per (degree, vertex).  A missing position,
    differential or piece is zero (rank 0), and no zero object is built."""
    m = x.modules.get(n)
    if m is None:
        return {}
    dn, dp = (x.diffs[k].mats if k in x.diffs else {} for k in (n, n - 1))
    table = {}
    for key, d in m.dims.items():
        val = d - sum(mats[key].rank() for mats in (dn, dp) if key in mats)
        if val:
            table[key] = val
    return table


def is_acyclic(x: ComplexOfModules, positions=None) -> bool:
    lo, hi = x.support()
    rng = positions if positions is not None else range(lo, hi + 1)
    return all(not homology_at(x, n) for n in rng)


def homology_module(x: ComplexOfModules, n: int):
    """H^n as a graded module plus its kernel-representative data.

    Returns (module, reps) where reps maps (degree, vertex) to row vectors in
    the coordinates of x.module(n) projecting to the chosen basis.
    """
    from .modules import submodule, quotient_module

    m = x.module(n)
    dn = x.diff(n)
    dp = x.diff(n - 1)
    ker_pieces = {}
    for (i, v), d in m.dims.items():
        mat = dn.mats.get((i, v))
        ker_pieces[(i, v)] = mat.kernel() if mat is not None else Subspace.full(m.pres.field, d)
    ksub, incl = submodule(m, ker_pieces)
    img_in_k = {}
    for (i, v), sp in ker_pieces.items():
        mat = dp.mats.get((i, v))
        if not sp.dim or mat is None:
            continue
        img_in_k[(i, v)] = Subspace.from_matrix(sp.coordinates_of(mat).transpose())
    h, proj = quotient_module(ksub, img_in_k)
    reps = {}
    for (i, v), dim in h.dims.items():
        sp = ker_pieces[(i, v)]
        sub = img_in_k.get((i, v)) or Subspace.zero(m.pres.field, sp.dim)
        pivset = set(sub.pivots)
        free = [c for c in range(sp.dim) if c not in pivset]
        rows = sp.dense_rows()
        reps[(i, v)] = [rows[c] for c in free]
    return h, reps


def quasi_iso_check(f: ChainMap, positions=None) -> bool:
    return is_acyclic(mapping_cone(f), positions)


# -- homotopies ----------------------------------------------------------------


def null_homotopy_solve(f: ChainMap):
    """Find graded morphisms u^n: X^n -> Y^{n-1} with f = u d + d u, or None.

    The homotopy equations and the Lambda-linearity constraints are linear in
    the entries of the u^n, so this is one exact linear solve.
    """
    x, y = f.source, f.target
    positions = sorted(set(x.modules) | {n + 1 for n in y.modules})
    eqs = MatrixEquations(x.pres.field, [
        ((n, i, v), y.module(n - 1).dim(i, v), x.module(n).dim(i, v)) for n in positions
        for (i, v) in sorted(set(x.module(n).dims) & set(y.module(n - 1).dims))])
    # homotopy equations: f^n = u^{n+1} d_x^n + d_y^{n-1} u^n
    for n in set(x.modules) | set(y.modules):
        xm, ym = x.module(n), y.module(n)
        for (i, v) in set(xm.dims) | set(ym.dims):
            eqs.add(ym.dim(i, v), xm.dim(i, v),
                    [(1, None, (n + 1, i, v), x.diff(n).piece(i, v)),
                     (1, y.diff(n - 1).piece(i, v), (n, i, v), None)],
                    f.part(n).piece(i, v))
    # linearity: y-action . u = u . x-action
    for n in positions:
        xm, ym1 = x.module(n), y.module(n - 1)
        for arrow in x.pres.quiver.arrows:
            for i in range(x.window[0] - 1, x.window[1] + 1):
                eqs.add(ym1.dim(i + 1, arrow.target), xm.dim(i, arrow.source),
                        [(1, ym1.action(arrow.name, i), (n, i, arrow.source), None),
                         (-1, None, (n, i + 1, arrow.target), xm.action(arrow.name, i))])
    sol = eqs.solve()
    if sol is None:
        return None
    mats: dict = {}
    for (n, i, v), mat in sol.items():
        mats.setdefault(n, {})[(i, v)] = mat
    return {n: GradedMorphism(x.module(n), y.module(n - 1), m) for n, m in mats.items()}


def acyclic_assembly_check(dc: DoubleComplex, n: int):
    """Local acyclic assembly: verify the hypothesis H^{n-j}(row j) = 0 for
    all j, then H^n of the total.  Returns (verdict, trace), where verdict is
    None when the hypothesis fails.
    """
    trace = {"position": n, "hypothesis": []}
    ok = True
    for j in sorted({j for (_, j) in dc.cells}):
        hom = homology_at(dc.row(j), n - j)
        trace["hypothesis"].append({"row": j, "position": n - j,
                                    "dims": {f"{k[0]},{k[1]}": v for k, v in hom.items()}})
        if hom:
            ok = False
    if not ok:
        trace["verdict"] = "hypothesis-failed"
        return None, trace
    total_h = homology_at(total_complex(dc), n)
    trace["total_homology"] = {f"{k[0]},{k[1]}": v for k, v in total_h.items()}
    verdict = not total_h
    trace["verdict"] = "acyclic" if verdict else "NOT-acyclic"
    return verdict, trace
