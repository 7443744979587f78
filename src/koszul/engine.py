"""Local Koszul complexes, Koszulity certificates, the Koszul functors and
their complex extensions, the (co)augmentation quasi-isomorphisms, and the
resolutions they produce.

Truncation discipline: verdicts are asserted only where the built data
provably determines them.  Internal degrees are independent (homology of a
graded complex is computed degreewise), so a degree inside the window is
always sound; homological positions are only safe when the neighbouring
differentials were built, which the safe_positions bookkeeping tracks.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .algebra import Presentation
from .complexes import (ChainMap, ComplexOfModules, DoubleChainMap, DoubleComplex,
                        blocks_of, homology_at, is_acyclic, single_module_complex,
                        total_chain_map, total_complex)
from .linalg import Matrix
from .modules import (GradedModule, GradedMorphism, block_morphism, block_parts,
                      direct_sum, evaluation_map, injective_module, kernel_module,
                      projective_cover, projective_module, simple_module, top_generators)


@dataclass(frozen=True)
class TruncationPolicy:
    """Homological span and internal degree window for truncated claims."""

    max_span: int = 6
    degree_window: tuple = (-2, 10)

    def __post_init__(self):
        lo, hi = self.degree_window
        if self.max_span < 1 or lo > hi:
            raise ValueError("bad truncation policy")


def _sign(k: int):
    return 1 if k % 2 == 0 else -1


# -- local Koszul complex -----------------------------------------------------------


def local_koszul_complex(pres: Presentation, a, policy: TruncationPolicy,
                         augmented: bool = True) -> ComplexOfModules:
    """K_a = F(N_a): position -n is (+)_x P_x<-n> (x) R^(n)(a, x).

    N_a is the Lambda^!-module R^(n)(a, -) with the restricted derivations
    (`_r_upper_module`), and F the right Koszul functor.  With
    augmented=True the simple S_a is appended at position 1 so that
    exactness of the augmented resolution is positionwise homology vanishing.
    """
    window = policy.degree_window
    cx = koszul_functor("right", _r_upper_module(pres, a, policy.max_span), window,
                        pres.quadratic_dual(), pres)
    if not augmented:
        return cx
    s = simple_module(pres, a, 0, window)
    # koszul_functor checked K_a's squares and d^0 ends at s: d^0 d^-1 is left.
    # A window above degree 0 leaves position 0 no (0, a) piece: d^0 is zero
    top = cx.module(0).dim(0, a)
    d0 = GradedMorphism(cx.module(0), s, {(0, a): Matrix.identity(pres.field, 1)} if top else {})
    if -1 in cx.diffs and not d0.compose(cx.diffs[-1]).is_zero():
        raise ValueError("d^2 != 0 at position -1")
    return ComplexOfModules(pres, window, {**cx.modules, 1: s}, {**cx.diffs, 0: d0}, validate=False)


def _r_upper_module(pres: Presentation, a, n_max: int) -> GradedModule:
    """The Lambda^!-module N_a: piece (-n, x) = R^(n)(a, x), n <= n_max, on
    which an arrow al acts by the derivation q.al -> q.  R^(n) is the perp of a
    relation piece of (Lambda^!)^op; reversing its arrow list turns lex order
    round, so R^(n)'s canonical basis, read backwards, is the dual basis of that
    presentation's normal words: N_a is the graded dual of its P_a."""
    if n_max > pres.degree_cap:     # R^(n_max) lies past the cap even where P_a ends sooner
        raise ValueError(f"degree {pres.degree_cap + 1} exceeds cap {pres.degree_cap}")
    p_a = projective_module(pres.quadratic_dual().opposite().reversed_arrows(), a, 0, (0, n_max))
    dims = {(-n, x): d for (n, x), d in p_a.dims.items()}
    actions = {(name, -n - 1): _reversed_transpose(mat) for (name, n), mat in p_a.actions.items()}
    return GradedModule(pres.quadratic_dual(), (-n_max, 0), dims, actions)


def _reversed_transpose(mat: Matrix) -> Matrix:
    """The transpose of `mat` with its rows and its columns each in reverse order."""
    t = mat.transpose()
    return Matrix(t.field, t.nrows, t.ncols,
                  [{t.ncols - 1 - c: v for c, v in row.items()} for row in t.sparse_rows[::-1]])


# -- certificate ---------------------------------------------------------------------


@dataclass
class CertEntry:
    vertex: object
    position: int
    degree: int
    verdict: str
    witness: list | None = None
    witness_dim: int = 0


@dataclass
class KoszulCertificate:
    max_span: int
    degree_window: tuple
    verdict: str
    complete: bool
    failures: list = dc_field(default_factory=list)
    checked: int = 0

    @property
    def is_koszul(self) -> bool:
        return not self.failures

    def to_dict(self):
        return {
            "max_span": self.max_span,
            "degree_window": list(self.degree_window),
            "verdict": self.verdict,
            "complete": self.complete,
            "checked_triples": self.checked,
            "failures": [
                {
                    "vertex": e.vertex,
                    "position": e.position,
                    "degree": e.degree,
                    "verdict": e.verdict,
                    "witness_dim": e.witness_dim,
                    "witness": e.witness,
                }
                for e in self.failures
            ],
        }


def koszulity_certificate(pres: Presentation, policy: TruncationPolicy) -> KoszulCertificate:
    """Positionwise, degreewise exactness of every augmented local Koszul complex."""
    lo, hi = policy.degree_window
    n_max = policy.max_span
    # completeness needs Lambda to vanish by degree hi - n_max + 1, so only
    # that many degrees are probed (infinite algebras stay cheap), and the
    # window to reach down to degree 0, where K_a's lowest pieces lie
    vanish = pres.lambda_vanishing_degree(limit=max(0, hi - n_max + 1))
    complete = lo <= 0 and vanish is not None and hi >= n_max + vanish - 1
    vertices = pres.quiver.vertices
    order = {x: k for k, x in enumerate(vertices)}
    failures = []
    checked = 0
    for a in vertices:
        cx = local_koszul_complex(pres, a, policy, augmented=True)
        for n in range(0, n_max):
            pos = -n
            degrees = {i for p in (pos, pos - 1) if p in cx.modules
                       for (i, _) in cx.modules[p].dims}
            checked += len(vertices) * sum(1 for d in degrees if lo <= d <= hi)
            # a failure is a non-zero piece of H = ker d_n / im d_(n-1)
            h = homology_at(cx, pos)
            for (d, x) in sorted(h, key=lambda k: (k[0], order[k[1]])):
                if lo <= d <= hi:
                    failures.append(CertEntry(a, pos, d, "failed", _exactness_witness(
                        cx.diff(pos).piece(d, x), cx.diff(pos - 1).piece(d, x)), h[(d, x)]))
    ok = not failures
    verdict = ("KOSZUL" if complete else f"KOSZUL_UP_TO_{n_max}") if ok else "NOT_KOSZUL"
    return KoszulCertificate(n_max, policy.degree_window, verdict, complete,
                             failures, checked)


def _exactness_witness(dn: Matrix, dp: Matrix):
    """The first canonical kernel vector of dn outside the column space of dp,
    as scalar strings: its class modulo that space is its product with the
    classes of the unit vectors."""
    field, n = dn.field, dn.ncols
    ker = dn.kernel().basis_matrix()
    classes = ker * dp.column_space().project(range(n)).transpose()
    for row, cls in zip(ker.sparse_rows, classes.sparse_rows):
        if cls:
            assert (Matrix(field, 1, n, [row]) * dn.transpose()).is_zero()
            return [field.to_str(row.get(c, field.zero)) for c in range(n)]
    return None


# -- linear presentations --------------------------------------------------------------


def linear_presentation_check(m: GradedModule, n: int, window=None):
    """Minimal projective n-presentation with terms generated in degrees s+i.

    Returns (verdict, details); raises if m is not generated in one degree.
    """
    window = window or m.window
    gens = top_generators(m)
    if not gens:
        return True, {"steps": [], "note": "zero module"}
    degrees = {i for (i, _, _) in gens}
    if len(degrees) > 1:
        raise ValueError(f"module generated in several degrees: {sorted(degrees)}")
    s = degrees.pop()
    steps = []
    current = m
    for step in range(0, n + 1):
        cover, f, labels = projective_cover(current, window)
        gen_degrees = sorted({i for (_, i) in labels})
        steps.append({"step": step, "labels": labels, "degrees": gen_degrees})
        if gen_degrees and gen_degrees != [s + step]:
            return False, {"s": s, "failed_step": step, "steps": steps}
        current, _ = kernel_module(f)
        if current.is_zero():
            break
    return True, {"s": s, "steps": steps}


# -- Koszul functors ---------------------------------------------------------------------


def _functor_term(side: str, target_pres, blocks, vertices, j: int, window) -> GradedModule:
    """F(N)^j (side='right') or G(N)^j (side='left') as a labeled direct sum:
    one block P_x<j> (I_x<j>) (x) N_j e_x per block of N in `blocks` and source
    vertex x, keyed by the block's key + ((x, j),)."""
    standard = projective_module if side == "right" else injective_module
    return direct_sum(target_pres, window, [
        (key + ((x, j),), standard(target_pres, x, j, window).tensor(sub.dim(j, x)))
        for key, sub in blocks for x in vertices if sub.dim(j, x)])


def _functor_diff(side, source_pres, target_pres, parents, j,
                  src_sum, tgt_sum) -> GradedMorphism:
    """d^j of the functor image of one module; `parents` maps the key of each
    block of the module to that block."""
    quiver = source_pres.quiver
    src_blocks, tgt_blocks = blocks_of(src_sum), blocks_of(tgt_sum)
    rows = {tkey: r for r, (tkey, _) in enumerate(tgt_blocks)}
    # block (r, c) sums v (x) P[arrow] over the arrows x -> y acting by v on
    # the parent, on each piece of the source block
    parts = {}
    for c, (skey, block) in enumerate(src_blocks):
        (x, _), parent = skey[-1], skey[:-1]
        sub = parents[parent]
        terms = {}
        for aidx in quiver.out_arrows(x):
            arrow = quiver.arrows[aidx]
            vmap = sub.actions.get((arrow.name, j))
            r = rows.get(parent + ((arrow.target, j + 1),))
            if vmap is not None and r is not None:
                terms.setdefault(r, []).append((vmap, arrow.name))
        for r, pairs in terms.items():
            mats = parts[(r, c)] = {}
            for (d, w) in block.dims:
                acc = None
                for vmap, name in pairs:
                    mmap = _side_right_mult_piece(side, target_pres, name, j, d, w)
                    if mmap is not None and mmap.nrows and mmap.ncols:     # else a zero block
                        term = Matrix.kron(vmap, mmap)
                        acc = term if acc is None else acc + term
                if acc is not None:
                    mats[(d, w)] = acc
    return block_morphism(src_sum, tgt_sum, [b for _, b in tgt_blocks],
                          [b for _, b in src_blocks], parts)


def _side_right_mult_piece(side, target_pres, arrow_name, shift, d, w) -> Matrix | None:
    """Piece (d, w) of P[arrow^!]: P_x<shift> -> P_y<shift+1>, or its injective mate;
    None where the algebra degree is negative and the piece has no columns (rows)."""
    if side == "right":
        alg = shift + d
        return target_pres.right_arrow_matrix(arrow_name, alg, w) if alg >= 0 else None
    alg = -(shift + d) - 1
    return target_pres.opposite_right_arrow_transpose(arrow_name, alg, w) if alg >= 0 else None


def koszul_functor(side: str, m: GradedModule, window,
                   source_pres=None, target_pres=None) -> ComplexOfModules:
    """The right (F) or left (G) Koszul functor on one graded module.

    A block of F(m)^j is keyed by its parent block's key + ((x, j),), so the
    blocks of m need distinct keys: ValueError otherwise."""
    source_pres = source_pres or m.pres
    target_pres = target_pres or source_pres.quadratic_dual()
    blocks = blocks_of(m)
    parents = dict(blocks)
    if len(parents) != len(blocks):
        raise ValueError("the blocks of a Koszul functor's argument need distinct keys")
    modules = {}
    for j in sorted({i for (i, _) in m.dims}):
        term = _functor_term(side, target_pres, blocks, source_pres.quiver.vertices, j, window)
        if not term.is_zero():
            modules[j] = term
    diffs = {j: _functor_diff(side, source_pres, target_pres, parents, j,
                              modules[j], modules[j + 1])
             for j in modules if j + 1 in modules}
    return ComplexOfModules(target_pres, window, modules, diffs, validate=True)


def koszul_functor_map(side: str, f: GradedMorphism, window,
                       source_pres=None, target_pres=None) -> ChainMap:
    """Image of a morphism: per vertex, f_{j,x} sliced into the argument's blocks (x) id."""
    source_pres = source_pres or f.source.pres
    target_pres = target_pres or source_pres.quadratic_dual()
    return _functor_map(f, koszul_functor(side, f.source, window, source_pres, target_pres),
                        koszul_functor(side, f.target, window, source_pres, target_pres))


def _functor_map(f: GradedMorphism, src_cx: ComplexOfModules,
                 tgt_cx: ComplexOfModules) -> ChainMap:
    """The image of f between src_cx and tgt_cx, the functor images of its
    source and target built by the caller."""
    field = f.source.pres.field
    sparents, tparents = blocks_of(f.source), blocks_of(f.target)
    # the argument's parent blocks indexed by key, and f sliced into its
    # blocks between them grouped by the source parent, once per call
    sindex = {key: p for p, (key, _) in enumerate(sparents)}
    tindex = {key: p for p, (key, _) in enumerate(tparents)}
    by_source = {}
    for (tp, sp), mats in block_parts(f, [b for _, b in tparents],
                                      [b for _, b in sparents]).items():
        by_source.setdefault(sp, []).append((tp, mats))
    parts = {}
    for j in src_cx.modules.keys() & tgt_cx.modules.keys():
        src_sum, tgt_sum = src_cx.modules[j], tgt_cx.modules[j]
        sblocks, tblocks = blocks_of(src_sum), blocks_of(tgt_sum)
        rows = {(tindex[tkey[:-1]], tkey[-1][0]): tb for tb, (tkey, _) in enumerate(tblocks)}
        # block (tb, sb) is f's parent block at (j, y) tensored with the
        # identity of the P_y<j> (I_y<j>) that both functor blocks share
        blocks = {}
        for sb, (skey, block) in enumerate(sblocks):
            y = skey[-1][0]
            for tp, mats in by_source.get(sindex[skey[:-1]], ()):
                sub, tb = mats.get((j, y)), rows.get((tp, y))
                if sub is not None and tb is not None:
                    blocks[(tb, sb)] = {
                        key: Matrix.kron(sub, Matrix.identity(field, k // sub.ncols))
                        for key, k in block.dims.items()}
        if blocks:
            parts[j] = block_morphism(src_sum, tgt_sum, [b for _, b in tblocks],
                                      [b for _, b in sblocks], blocks)
    return ChainMap(src_cx, tgt_cx, parts)


def functor_double_complex(side: str, x: ComplexOfModules, window,
                           source_pres=None, target_pres=None) -> DoubleComplex:
    """F^{DC}: column i is the i-fold twist of the functor image of x^i."""
    source_pres = source_pres or x.pres
    target_pres = target_pres or source_pres.quadratic_dual()
    cols = _functor_columns(side, x, window, source_pres, target_pres)
    return _column_double_complex(x, cols, window, target_pres)


def _functor_columns(side, x: ComplexOfModules, window, source_pres, target_pres):
    """Position i -> the functor image of x^i, each built once."""
    return {i: koszul_functor(side, x.module(i), window, source_pres, target_pres)
            for i in x.positions()}


def _column_double_complex(x: ComplexOfModules, cols, window, target_pres) -> DoubleComplex:
    """F^{DC} from the built columns `cols` of x; the horizontal maps are the
    images of x's differentials between neighbouring columns."""
    cells = {}
    vert = {}
    horiz = {}
    for i, cx in cols.items():
        for j, m in cx.modules.items():
            cells[(i, j)] = m
        for j, d in cx.diffs.items():
            vert[(i, j)] = d if _sign(i) == 1 else d.negate()
    # a non-zero d^i has non-zero x^i and x^(i+1), so both columns exist
    for i, d in x.diffs.items():
        for j, part in _functor_map(d, cols[i], cols[i + 1]).parts.items():
            horiz[(i, j)] = part
    return DoubleComplex(target_pres, window, cells, vert, horiz, validate=False)


def extend_functor(side: str, x: ComplexOfModules, window,
                   source_pres=None, target_pres=None) -> ComplexOfModules:
    """F^C = T . F^{DC}, the complex extension of a Koszul functor."""
    return total_complex(functor_double_complex(side, x, window,
                                                source_pres, target_pres))


def extend_functor_map(side: str, f: ChainMap, window,
                       source_pres=None, target_pres=None) -> ChainMap:
    source_pres = source_pres or f.source.pres
    target_pres = target_pres or source_pres.quadratic_dual()
    src_cols = _functor_columns(side, f.source, window, source_pres, target_pres)
    tgt_cols = _functor_columns(side, f.target, window, source_pres, target_pres)
    src_dc = _column_double_complex(f.source, src_cols, window, target_pres)
    tgt_dc = _column_double_complex(f.target, tgt_cols, window, target_pres)
    parts = {}
    # a non-zero part f^i has both x^i and y^i non-zero, so both columns exist
    for i, fi in f.parts.items():
        for j, part in _functor_map(fi, src_cols[i], tgt_cols[i]).parts.items():
            parts[(i, j)] = part
    dmap = DoubleChainMap(src_dc, tgt_dc, parts)
    return total_chain_map(dmap)


def functor_labels(cx: ComplexOfModules):
    """Per position, the (vertex, shift, multiplicity) of each labeled summand.

    A summand P_x<j> (x) N_j e_x (or I_x<j> (x) N_j e_x) is keyed by its
    parent's key + ((x, j),), and `tensor` builds it as the sum of its
    multiplicity's number of copies of P_x<j> (I_x<j>).
    """
    return {n: [{"vertex": key[-1][0], "shift": key[-1][1],
                 "multiplicity": 1 if sub.blocks is None else len(sub.blocks),
                 "key": repr(key)} for key, sub in blocks_of(cx.module(n))]
            for n in cx.positions()}


# -- eta and zeta -------------------------------------------------------------------


def _degree_bounds(m: GradedModule):
    degs = [i for (i, _) in m.dims]
    return (min(degs), max(degs)) if degs else (0, 0)


@dataclass
class AugmentationResult:
    """eta or zeta with its verdicts, both read off the augmented complex A
    of the map (`_augmented_complex`).

    quasi_iso: A is acyclic at every position of `safe_positions`, those
    whose neighbouring differentials were built.  h0_isomorphism: the map
    induces an isomorphism on H^0 (`_h0_isomorphism`).
    """

    complex: ComplexOfModules
    map: ChainMap
    safe_positions: tuple
    quasi_iso: bool
    h0_isomorphism: bool

    @property
    def labels(self) -> dict:
        """position -> the labels of the complex's summands (`functor_labels`)."""
        return functor_labels(self.complex)

    def betti(self):
        """position -> {(vertex, shift): multiplicity} from the label map."""
        out = {}
        for n, entries in self.labels.items():
            out[n] = {(e["vertex"], e["shift"]): e["multiplicity"] for e in entries}
        return out


def _augmentation_input(m: GradedModule) -> GradedModule:
    """m without its block labels, once Lambda^!! = Lambda is checked."""
    if m.pres.quadratic_dual().quadratic_dual() != m.pres:
        raise AssertionError("double quadratic dual differs from the presentation")
    return m if m.blocks is None else GradedModule(m.pres, m.window, m.dims, m.actions)


def _augmentation_result(cx: ComplexOfModules, f: ChainMap, safe: tuple) -> AugmentationResult:
    """The (co)resolution cx of f with its verdicts."""
    aug = _augmented_complex(f)
    qi = is_acyclic(aug, range(safe[0], safe[1] + 1))
    return AugmentationResult(cx, f, safe, qi, _h0_isomorphism(aug))


def _augmented_complex(f: ChainMap) -> ComplexOfModules:
    """The augmented complex of f: X -> Y, built on f's stored objects.

    Position n holds X^(n+1) with X's differential, or Y^n with Y's, and
    f^(n+1) joins them: for eta, ... -> X^-1 -> X^0 -> M with M at 0; for
    zeta, M -> Y^0 -> Y^1 -> ... with M at -1.  It is f's mapping cone with
    X's differentials not negated, so the two have the same ranks and
    homology.  Precondition: one side is a single module at position 0 and
    no position holds both an X and a Y term; ValueError otherwise.
    """
    x, y = f.source, f.target
    if not (x.modules.keys() <= {0} or y.modules.keys() <= {0}) \
            or {n - 1 for n in x.modules} & y.modules.keys():
        raise ValueError("the augmented complex needs a single module at position 0 "
                         "and no position holding both an X and a Y term")
    modules = {**{n - 1: m for n, m in x.modules.items()}, **y.modules}
    diffs = {**{n - 1: d for n, d in x.diffs.items()}, **y.diffs,
             **{n - 1: g for n, g in f.parts.items()}}
    return ComplexOfModules(x.pres, x.window, modules, diffs, validate=False)


def _h0_isomorphism(cx: ComplexOfModules) -> bool:
    """Does f induce an isomorphism on H^0, judged on its augmented complex A
    (or on its mapping cone, which has the same homology)?

    A's long exact sequence gives H^-1(A) = ker H^0(f) and H^0(A) = coker
    H^0(f) when H^-1 of f's target and H^1 of f's source are zero.  For eta
    and zeta they are: M is a single module at position 0, a resolution sits
    in positions <= 0 and a coresolution in positions >= 0.
    """
    return not homology_at(cx, -1) and not homology_at(cx, 0)


def eta_augmentation(m: GradedModule, policy: TruncationPolicy) -> AugmentationResult:
    """The natural map (F^C . G)(M) -> M with sign (-1)^{i(i+1)/2} on level i."""
    m = _augmentation_input(m)
    pres = m.pres
    dual = pres.quadratic_dual()
    mlo, mhi = _degree_bounds(m)
    w_dual = (-policy.max_span - 1 - mhi, -mlo)
    g_cx = koszul_functor("left", m, w_dual, pres, dual)
    src = extend_functor("right", g_cx, policy.degree_window, dual, pres)
    src0 = src.module(0)
    blocks = blocks_of(src0)
    parts = {}
    for c, (key, sub) in enumerate(blocks):
        (x, i) = key[0]
        sign = _sign((i * (i + 1)) // 2)
        block = evaluation_map(m, x, i, range(m.dim(i, x)), sub.dims.keys() & m.dims.keys())
        parts[(0, c)] = {k: mat.scale(sign) for k, mat in block.items()}
    eta0 = block_morphism(src0, m, [m], [sub for _, sub in blocks], parts)
    eta = ChainMap(src, single_module_complex(m), {0: eta0}).validate()
    lo_built = min(src.positions()) if src.positions() else 0
    return _augmentation_result(src, eta, (lo_built + 1, 1))


def zeta_coaugmentation(m: GradedModule, policy: TruncationPolicy) -> AugmentationResult:
    """The natural map M -> (G^C . F)(M) with sign (-1)^{(i-1)i/2} on level i."""
    m = _augmentation_input(m)
    pres = m.pres
    dual = pres.quadratic_dual()
    mlo, mhi = _degree_bounds(m)
    w_dual = (-mhi, policy.max_span + 1 - mlo)
    f_cx = koszul_functor("right", m, w_dual, pres, dual)
    tgt = extend_functor("left", f_cx, policy.degree_window, dual, pres)
    tgt0 = tgt.module(0)
    blocks = blocks_of(tgt0)
    parts = {}
    dm = m.dualize()
    for r, (key, sub) in enumerate(blocks):
        # I_x<-i> (x) M_i(x) = D(P^op_x<i> (x) DM_{-i}(x)): transpose DM's evaluation
        (x, i) = key[0]
        sign = _sign(((i - 1) * i) // 2)
        block = evaluation_map(dm, x, -i, range(m.dim(i, x)),
                               {(-j, y) for (j, y) in sub.dims.keys() & m.dims.keys()})
        parts[(r, 0)] = {(-j, y): mat.transpose().scale(sign) for (j, y), mat in block.items()}
    zeta0 = block_morphism(m, tgt0, [sub for _, sub in blocks], [m], parts)
    zeta = ChainMap(single_module_complex(m), tgt, {0: zeta0}).validate()
    hi_built = max(tgt.positions()) if tgt.positions() else 0
    return _augmentation_result(tgt, zeta, (-1, hi_built - 1))


def projective_resolution(m: GradedModule, policy: TruncationPolicy) -> AugmentationResult:
    """(F^C . G)(M) with its augmentation; terms are labeled sums of shifted projectives."""
    return eta_augmentation(m, policy)


def injective_coresolution(m: GradedModule, policy: TruncationPolicy) -> AugmentationResult:
    """(G^C . F)(M) with its coaugmentation; terms are labeled sums of shifted injectives."""
    return zeta_coaugmentation(m, policy)


# -- Ext tables -------------------------------------------------------------------------


def ext_table(pres: Presentation, a, b, n_max: int):
    """n -> dim GExt^n(S_a, S_b<-n>), i.e. dim e_a Lambda^!_n e_b by minimality."""
    dual = pres.quadratic_dual()
    return {n: dual.dim_piece(n, b, a) for n in range(0, n_max + 1)}


def extension_conjecture_check(pres: Presentation, a, n_max: int):
    """If a carries a loop, the diagonal Ext table entries must stay positive."""
    has_loop = any(ar.source == a and ar.target == a for ar in pres.quiver.arrows)
    table = ext_table(pres, a, a, n_max)
    positive = all(table[n] >= 1 for n in range(1, n_max + 1))
    return {"vertex": a, "has_loop": has_loop, "table": table,
            "holds": (not has_loop) or positive}


def pairing_table(pres: Presentation, n_max: int):
    """All (a, x, n) pairing dimension checks up to n_max: dim R^(n)(a, x),
    from (Lambda^!)^op's relation piece in kQ_n, against dim e_a Lambda^!_n e_x,
    from Lambda^!'s relation piece in kQ^o_n (`pairing_dimension_check`)."""
    rows = []
    ok = True
    for a in pres.quiver.vertices:
        for x in pres.quiver.vertices:
            for n in range(0, n_max + 1):
                eq, left, right = pres.pairing_dimension_check(a, x, n)
                ok = ok and eq
                if left or right:
                    rows.append({"a": a, "x": x, "n": n, "dim_R_upper": left,
                                 "dim_dual_piece": right, "equal": eq})
    return ok, rows
