"""Finitely piece-supported graded modules and graded morphisms.

A module stores piece dimensions and one action matrix per (arrow, degree);
vectors are columns, morphism matrices map source pieces to target pieces.
Pieces outside the stored window are zero by construction.  Modules are
never written into after construction: the standard projectives and
injectives are shared, one per (vertex, shift, window) and presentation,
and `tensor(1)` and `shift(0)` return the module itself.  A direct sum
stores only its ordered blocks: its block-diagonal actions are built from
them on the first read of `actions`, which most sums never see.  So is
`tensor(d)`, the lazy sum of d copies of the module: its multiplicity is
its number of blocks.

The block layout of a sum lives here alone: `block_morphism` builds a
morphism between direct sums from its blocks, and `block_parts` slices one
back into its non-zero blocks.

So does the action of paths: `evaluation_map` P_x<-i> (x) V -> M gives the
blocks of projective covers and eta, and by its transpose over DM, zeta's.
"""

from __future__ import annotations

import bisect
import itertools
import warnings

from .algebra import Presentation
from .linalg import Matrix, MatrixEquations, Subspace


class GradedModule:
    def __init__(self, pres: Presentation, window, dims, actions, blocks=None):
        self.pres = pres
        self.window = (int(window[0]), int(window[1]))
        self.dims = {k: v for k, v in dims.items() if v}
        # actions=None (a direct sum) builds them from the blocks on first read
        self._actions = None if actions is None else \
            {k: m for k, m in actions.items() if m.nrows and m.ncols}
        self.blocks = blocks  # optional ordered ((key, GradedModule), ...)

    @property
    def actions(self) -> dict:
        """(arrow, degree) -> action matrix; read-only, shared by every reader."""
        if self._actions is None:
            self._actions = _block_diagonal_actions(self.pres, self.blocks)
        return self._actions

    # -- basics ---------------------------------------------------------------

    def dim(self, i, x) -> int:
        return self.dims.get((i, x), 0)

    def is_zero(self) -> bool:
        return not self.dims

    def action(self, arrow_name: str, i: int) -> Matrix:
        arrow = self.pres.quiver.arrow(arrow_name)
        mat = self.actions.get((arrow_name, i))
        if mat is None:
            return Matrix.zeros(self.pres.field,
                                self.dim(i + 1, arrow.target), self.dim(i, arrow.source))
        return mat

    def same_content(self, other: "GradedModule") -> bool:
        if self.dims != other.dims:
            return False
        keys = set(self.actions) | set(other.actions)
        return all(self.action(a, i) == other.action(a, i) for a, i in keys)

    def validate(self):
        """Shape and relation-compatibility invariants."""
        quiver = self.pres.quiver
        lo, hi = self.window
        for (i, x) in self.dims:
            if not lo <= i <= hi:
                raise ValueError(f"piece ({i},{x}) outside window")
        for (name, i), mat in self.actions.items():
            arrow = quiver.arrow(name)
            if mat.nrows != self.dim(i + 1, arrow.target) or mat.ncols != self.dim(i, arrow.source):
                raise ValueError(f"action shape mismatch for ({name},{i})")
        for (x, z), space in self.pres.relations.items():
            basis = self.pres.path_basis(2, x, z)
            for row in space.sparse_rows:
                # the degrees of the pieces at x, not the whole window, which may be huge
                for i in sorted(i for (i, y) in self.dims if y == x and i < hi - 1):
                    acc = None
                    for c, coeff in row.items():
                        m = self.path_action(x, basis.words[c], i).scale(coeff)
                        acc = m if acc is None else acc + m
                    if acc is not None and not acc.is_zero():
                        raise ValueError(f"relation not respected at degree {i}, pair ({x},{z})")
        return self

    # -- constructions ----------------------------------------------------------

    def shift(self, s: int) -> "GradedModule":
        """Grading shift: result piece at i is the old piece at s+i."""
        if s == 0:
            return self
        dims = {(i - s, x): d for (i, x), d in self.dims.items()}
        lo, hi = self.window
        if self.blocks is not None:     # a sum stays lazy: shift its blocks
            return GradedModule(self.pres, (lo - s, hi - s), dims, None,
                                tuple((key, mod.shift(s)) for key, mod in self.blocks))
        actions = {(a, i - s): m for (a, i), m in self.actions.items()}
        return GradedModule(self.pres, (lo - s, hi - s), dims, actions)

    def tensor(self, d: int) -> "GradedModule":
        """Tensor with a d-dimensional space: the lazy direct sum of d copies,
        keyed (k,) so the tensor index is major, with d times the dims."""
        if d == 1:
            return self
        return GradedModule(self.pres, self.window, {k: d * v for k, v in self.dims.items()},
                            None, tuple(((k,), self) for k in range(d)))

    def dualize(self) -> "GradedModule":
        """The graded dual over the opposite presentation."""
        opp = self.pres.opposite()
        lo, hi = self.window
        dims = {(-i, x): d for (i, x), d in self.dims.items()}
        actions = {}
        for (name, i), mat in self.actions.items():
            actions[(name, -i - 1)] = mat.transpose()
        return GradedModule(opp, (-hi, -lo), dims, actions)

    def path_action(self, x, word, i: int) -> Matrix:
        """Action of the path from x with this word: M_i(x) -> M_{i+len}(end);
        identity for length 0."""
        mat = Matrix.identity(self.pres.field, self.dim(i, x))
        for k, aidx in enumerate(word):
            mat = self.action(self.pres.quiver.arrows[aidx].name, i + k) * mat
        return mat

    def __repr__(self):
        return f"GradedModule({sum(self.dims.values())} total dim, window {self.window})"


def zero_module(pres: Presentation, window) -> GradedModule:
    return GradedModule(pres, window, {}, {})


def direct_sum(pres, window, summands) -> GradedModule:
    """Ordered direct sum; `summands` is a sequence of (key, GradedModule).
    Its block-diagonal actions are built on the first read of `actions`."""
    dims: dict = {}
    for _, m in summands:
        for k, v in m.dims.items():
            dims[k] = dims.get(k, 0) + v
    return GradedModule(pres, window, dims, None, blocks=tuple(summands))


def _block_diagonal_actions(pres, summands) -> dict:
    """The actions of the direct sum of `summands`, block-diagonal."""
    actions = {}
    for (name, i) in {k for _, m in summands for k in m.actions}:
        arrow = pres.quiver.arrow(name)
        actions[(name, i)] = Matrix.block(
            pres.field, [m.dim(i + 1, arrow.target) for _, m in summands],
            [m.dim(i, arrow.source) for _, m in summands],
            {(r, r): m.actions[(name, i)] for r, (_, m) in enumerate(summands)
             if (name, i) in m.actions})
    return {k: m for k, m in actions.items() if m.nrows and m.ncols}


def block_morphism(src, tgt, tgt_parts, src_parts, parts) -> "GradedMorphism":
    """The morphism src -> tgt between the direct sums of `src_parts` and
    `tgt_parts` whose block (r, c) at piece (i, x) is parts[(r, c)][(i, x)], a
    map from that piece of src_parts[c] to that of tgt_parts[r].  Omitted
    blocks are zero, and a piece of src and tgt without any block is one
    `Matrix.zeros`; a block of the wrong shape, at any piece, raises ValueError."""
    by_piece: dict = {}
    for rc, mats in parts.items():
        for key, mat in mats.items():
            by_piece.setdefault(key, {})[rc] = mat
    field = src.pres.field
    mats = {key: Matrix.zeros(field, tgt.dims[key], src.dims[key])
            for key in (src.dims.keys() & tgt.dims.keys()) - by_piece.keys()}
    for key, blocks in by_piece.items():
        mats[key] = Matrix.block(field, [m.dims.get(key, 0) for m in tgt_parts],
                                 [m.dims.get(key, 0) for m in src_parts], blocks)
    return GradedMorphism(src, tgt, mats)


def block_parts(f: "GradedMorphism", tgt_parts, src_parts) -> dict:
    """The inverse of `block_morphism`: {(r, c): {(i, x): block}} for the
    non-zero blocks of f only, found from f's non-zero entries."""
    field = f.source.pres.field
    out: dict = {}
    for key, mat in f.mats.items():
        heights = [m.dim(*key) for m in tgt_parts]
        widths = [m.dim(*key) for m in src_parts]
        rstarts = list(itertools.accumulate(heights, initial=0))
        cstarts = list(itertools.accumulate(widths, initial=0))
        if (mat.nrows, mat.ncols) != (rstarts[-1], cstarts[-1]):
            raise ValueError(f"piece {key} does not fit the block layout")
        rows: dict = {}     # (r, c) -> {row in the block: {column in the block: value}}
        for i, row in enumerate(mat.sparse_rows):
            if row:
                r = bisect.bisect_right(rstarts, i) - 1
                for col, v in row.items():
                    c = bisect.bisect_right(cstarts, col) - 1
                    rows.setdefault((r, c), {}).setdefault(i - rstarts[r], {})[col - cstarts[c]] = v
        for (r, c), block in rows.items():
            out.setdefault((r, c), {})[key] = Matrix(
                field, heights[r], widths[c], [block.get(k, {}) for k in range(heights[r])])
    return out


class GradedMorphism:
    def __init__(self, source: GradedModule, target: GradedModule, mats):
        self.source = source
        self.target = target
        self.mats = {k: m for k, m in mats.items() if m.nrows and m.ncols}

    def piece(self, i, x) -> Matrix:
        mat = self.mats.get((i, x))
        if mat is None:
            return Matrix.zeros(self.source.pres.field,
                                self.target.dim(i, x), self.source.dim(i, x))
        return mat

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.mats.values())

    def validate(self):
        quiver = self.source.pres.quiver
        for (i, x), mat in self.mats.items():
            if mat.nrows != self.target.dim(i, x) or mat.ncols != self.source.dim(i, x):
                raise ValueError(f"morphism shape mismatch at ({i},{x})")
        keys = set(self.source.actions) | set(self.target.actions)
        for (name, i) in keys:
            arrow = quiver.arrow(name)
            lhs = self.target.action(name, i) * self.piece(i, arrow.source)
            rhs = self.piece(i + 1, arrow.target) * self.source.action(name, i)
            if lhs != rhs:
                raise ValueError(f"morphism does not commute with {name} at degree {i}")
        return self

    def compose(self, other: "GradedMorphism") -> "GradedMorphism":
        """self after other; a piece missing from either side composes to zero."""
        mats = {}
        for (i, x) in self.mats.keys() & other.mats.keys():
            mats[(i, x)] = self.mats[(i, x)] * other.mats[(i, x)]
        return GradedMorphism(other.source, self.target, mats)

    def add(self, other: "GradedMorphism") -> "GradedMorphism":
        mats = {}
        for (i, x) in set(self.mats) | set(other.mats):
            mats[(i, x)] = self.piece(i, x) + other.piece(i, x)
        return GradedMorphism(self.source, self.target, mats)

    def negate(self) -> "GradedMorphism":
        return GradedMorphism(self.source, self.target,
                              {k: -m for k, m in self.mats.items()})

    def scale(self, c) -> "GradedMorphism":
        return GradedMorphism(self.source, self.target,
                              {k: m.scale(c) for k, m in self.mats.items()})

    def same_content(self, other: "GradedMorphism") -> bool:
        keys = set(self.mats) | set(other.mats)
        return all(self.piece(i, x) == other.piece(i, x) for (i, x) in keys)

    def __repr__(self):
        return f"GradedMorphism({len(self.mats)} nonzero pieces)"


def zero_morphism(source: GradedModule, target: GradedModule) -> GradedMorphism:
    return GradedMorphism(source, target, {})


def identity_morphism(m: GradedModule) -> GradedMorphism:
    mats = {k: Matrix.identity(m.pres.field, d) for k, d in m.dims.items()}
    return GradedMorphism(m, m, mats)


# -- standard modules ------------------------------------------------------------


def simple_module(pres: Presentation, a, shift: int = 0, window=(0, 0)) -> GradedModule:
    lo = min(window[0], -shift)
    hi = max(window[1], -shift)
    return GradedModule(pres, (lo, hi), {(-shift, a): 1}, {})


def projective_module(pres: Presentation, a, shift: int = 0,
                      window=(0, 8)) -> GradedModule:
    """P_a<shift> on the given degree window; one shared module per presentation."""
    lo, hi = window = (int(window[0]), int(window[1]))
    key = ("projective", a, shift, window)
    if key not in pres._modules:
        pres._modules[key] = _projective_module(pres, a, shift, lo, hi)
    return pres._modules[key]


def _projective_module(pres: Presentation, a, shift: int, lo: int, hi: int) -> GradedModule:
    quiver, cap = pres.quiver, pres.degree_cap
    if shift + hi > cap and pres.lambda_vanishing_degree() is None:
        raise ValueError(f"projective piece needs algebra degree {max(shift + lo, cap + 1)} "
                         f"> cap {cap}; raise the degree cap (-D)")
    # Lambda is generated in degree 1, so Lambda_{d+1} e_a = Lambda_1 Lambda_d e_a:
    # P_a ends at the first degree d where every e_x Lambda_d e_a is 0
    dims = {}
    for d in range(max(shift + lo, 0), min(shift + hi, cap) + 1):
        row = {(d - shift, x): pres.dim_piece(d, a, x) for x in quiver.vertices}
        if not any(row.values()):
            break
        dims.update(row)
    actions = {(arrow.name, i): pres.left_arrow_matrix(arrow.name, i + shift, a)
               for i in sorted({i for i, _ in dims if i < hi}) for arrow in quiver.arrows
               if dims.get((i, arrow.source))}
    return GradedModule(pres, (lo, hi), dims, actions)


def injective_module(pres: Presentation, a, shift: int = 0,
                     window=(-8, 0)) -> GradedModule:
    """I_a<shift> on the given degree window, as a dualized opposite projective;
    one shared module per presentation."""
    lo, hi = window = (int(window[0]), int(window[1]))
    key = ("injective", a, shift, window)
    if key not in pres._modules:
        p = _projective_module(pres.opposite(), a, 0, -(shift + hi), -(shift + lo))
        pres._modules[key] = p.dualize().shift(shift)
    return pres._modules[key]


def standard_module(pres: Presentation, kind: str, a, shift: int = 0,
                    window=(-8, 8)) -> GradedModule:
    if kind == "simple":
        out = simple_module(pres, a, shift, window)
    elif kind == "projective":
        out = projective_module(pres, a, shift, window)
    elif kind == "injective":
        out = injective_module(pres, a, shift, window)
    else:
        raise ValueError(f"unknown module kind {kind!r}")
    if out.is_zero():
        warnings.warn(f"window {window} too small: {kind} module at {a} has no "
                      f"nonzero piece", stacklevel=2)
    return out


# -- submodules, quotients, covers -------------------------------------------------


def radical_pieces(m: GradedModule) -> dict:
    """Per piece, the subspace (rad Lambda) M."""
    out = {}
    quiver = m.pres.quiver
    for (i, x), d in m.dims.items():
        # the columns of the arrow actions into the piece, as transposed rows
        cols = [col for aidx in quiver.in_arrows(x)
                for col in m.action(quiver.arrows[aidx].name, i - 1).transpose().sparse_rows]
        out[(i, x)] = Subspace.from_sparse(m.pres.field, d, cols)
    return out


def submodule(m: GradedModule, pieces: dict) -> tuple[GradedModule, GradedMorphism]:
    """Module structure on arrow-stable piece subspaces, with its inclusion."""
    field = m.pres.field
    quiver = m.pres.quiver
    dims = {k: sp.dim for k, sp in pieces.items() if sp.dim}
    # the inclusion of each piece: its basis rows as columns
    incl = {k: sp.basis_matrix().transpose() for k, sp in pieces.items() if sp.dim}
    actions = {}
    for (i, x), basis in incl.items():
        for aidx in quiver.out_arrows(x):
            arrow = quiver.arrows[aidx]
            tgt = pieces.get((i + 1, arrow.target))
            if tgt is None:
                tgt = Subspace.zero(field, m.dim(i + 1, arrow.target))
            out = tgt.coordinates_of(m.action(arrow.name, i) * basis)
            if out.nrows and out.ncols:
                actions[(arrow.name, i)] = out
    sub = GradedModule(m.pres, m.window, dims, actions)
    return sub, GradedMorphism(sub, m, incl)


def quotient_module(m: GradedModule, pieces: dict) -> tuple[GradedModule, GradedMorphism]:
    """Quotient by arrow-stable piece subspaces, with its projection."""
    field = m.pres.field
    quiver = m.pres.quiver

    frees = {}
    proj_mats = {}
    for (i, x), d in m.dims.items():
        sp = pieces.get((i, x)) or Subspace.zero(field, d)
        pivset = set(sp.pivots)
        frees[(i, x)] = [c for c in range(d) if c not in pivset]
        proj_mats[(i, x)] = sp.project(range(d))
    dims = {k: len(free) for k, free in frees.items() if free}
    actions = {}
    for (i, x), free in frees.items():
        if not free:
            continue
        for aidx in quiver.out_arrows(x):
            arrow = quiver.arrows[aidx]
            tgt_proj = proj_mats.get((i + 1, arrow.target))
            if tgt_proj is None or not tgt_proj.nrows:
                continue
            # the free columns of the projected action, as transposed rows
            cols = (tgt_proj * m.action(arrow.name, i)).transpose().sparse_rows
            actions[(arrow.name, i)] = Matrix(field, len(free), tgt_proj.nrows,
                                              [cols[c] for c in free]).transpose()
    quot = GradedModule(m.pres, m.window, dims, actions)
    return quot, GradedMorphism(m, quot, {k: v for k, v in proj_mats.items() if v.nrows})


def top_generators(m: GradedModule):
    """Canonical top-basis: (i, x, unit vector index) triples."""
    rad = radical_pieces(m)
    gens = []
    order = {v: i for i, v in enumerate(m.pres.quiver.vertices)}
    for (i, x) in sorted(m.dims, key=lambda k: (k[0], order[k[1]])):
        sp = rad[(i, x)]
        pivset = set(sp.pivots)
        for c in range(m.dim(i, x)):
            if c not in pivset:
                gens.append((i, x, c))
    return gens


def evaluation_map(m: GradedModule, x, i: int, cols, keys) -> dict:
    """The pieces (d, w) in `keys`, d >= i, of the Lambda-linear map P_x<-i> (x) k^len(cols)
    -> m sending e_x (x) e_k to the unit vector cols[k] of m_i(x): column (k, t) is column
    cols[k] of the action of the t-th basis path of e_w Lambda_{d-i} e_x (tensor index major)."""
    out = {}
    for (d, w) in keys:
        # the columns of each path action, as transposed rows
        acts = [m.path_action(x, rho, i).transpose().sparse_rows
                for rho in m.pres.algebra_piece(d - i, x, w).words]
        rows = [act[c] for c in cols for act in acts]
        out[(d, w)] = Matrix(m.pres.field, len(rows), m.dim(d, w), rows).transpose()
    return out


def projective_cover(m: GradedModule, window=None):
    """Graded projective cover f: P -> M built on a canonical top-basis.

    Returns (P, f, labels) with labels the (vertex, degree) of each summand.
    """
    window = window or m.window
    pres = m.pres
    gens = top_generators(m)
    summands = [((x, i), projective_module(pres, x, -i, window)) for (i, x, _) in gens]
    cover = direct_sum(pres, window, summands)
    parts = {(0, s): evaluation_map(m, x, i, [c], summand.dims.keys() & m.dims.keys())
             for s, ((i, x, c), (_, summand)) in enumerate(zip(gens, summands))}
    f = block_morphism(cover, m, [m], [summand for _, summand in summands], parts)
    return cover, f, [label for label, _ in summands]


def kernel_module(f: GradedMorphism):
    """Kernel with its inclusion morphism."""
    pieces = {}
    for (i, x), d in f.source.dims.items():
        mat = f.mats.get((i, x))
        pieces[(i, x)] = mat.kernel() if mat is not None else Subspace.full(f.source.pres.field, d)
    return submodule(f.source, pieces)


def hom_basis(m: GradedModule, n: GradedModule) -> list[GradedMorphism]:
    """Basis of the space of graded morphisms m -> n."""
    eqs = MatrixEquations(m.pres.field, [((i, x), n.dim(i, x), m.dim(i, x))
                                         for (i, x) in sorted(set(m.dims) & set(n.dims))])
    for arrow in m.pres.quiver.arrows:
        x, y = arrow.source, arrow.target
        for i in range(m.window[0] - 1, m.window[1] + 1):
            # n-action . f_{i,x} = f_{i+1,y} . m-action
            eqs.add(n.dim(i + 1, y), m.dim(i, x),
                    [(1, n.action(arrow.name, i), (i, x), None),
                     (-1, None, (i + 1, y), m.action(arrow.name, i))])
    return [GradedMorphism(m, n, mats) for mats in eqs.kernel()]
