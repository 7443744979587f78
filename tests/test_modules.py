from __future__ import annotations

import itertools
import random

import pytest

from koszul.dsl import parse_presentation
from koszul.linalg import GF, Matrix, QQ, Subspace
from koszul.modules import (GradedModule, _projective_module, block_morphism,
                            block_parts, direct_sum, hom_basis,
                            injective_module, kernel_module, projective_cover,
                            projective_module, quotient_module, radical_pieces,
                            simple_module, standard_module, top_generators, zero_module)
from koszul.randomgen import (point_presentation, random_morphism, random_presentation,
                              random_quiver)
from tests.conftest import KRONECKER, MULTISERIAL
from tests.helpers import radical_square_zero, random_module


def test_simple_module_indicator(multiserial):
    for s in (-2, 0, 3):
        m = standard_module(multiserial, "simple", "2", s, (-4, 4))
        assert m.dims == {(-s, "2"): 1}


def test_projective_of_a2():
    pres = parse_presentation("quiver\n vertices: 1 2\n arrows: a: 1->2")
    p1 = projective_module(pres, "1", 0, (0, 4)).validate()
    assert p1.dims == {(0, "1"): 1, (1, "2"): 1}
    assert p1.action("a", 0).rows == [[QQ.one]]


def test_radical_square_zero_projectives(biserial):
    rz = radical_square_zero(biserial.quiver, QQ, 6)
    for a in rz.quiver.vertices:
        p = projective_module(rz, a, 0, (0, 6)).validate()
        rad = radical_pieces(p)
        out_count = len(rz.quiver.out_arrows(a))
        assert sum(d for (i, x), d in p.dims.items() if i == 1) == out_count
        assert all(i <= 1 for (i, x) in p.dims)
        top = [k for k in top_generators(p)]
        assert top == [(0, a, 0)]
        del rad


def test_injective_is_dual_of_opposite_projective(multiserial):
    for a in multiserial.quiver.vertices:
        i_a = injective_module(multiserial, a, 0, (-6, 0)).validate()
        p_opp = projective_module(multiserial.opposite(), a, 0, (0, 6))
        assert i_a.dims == {(-i, x): d for (i, x), d in p_opp.dims.items()}
        assert standard_module(multiserial, "injective", a, 0, (-6, 0)).same_content(i_a)


def test_injective_modules_live_on_the_presentation_itself():
    # I_a dualizes a projective of the opposite, whose opposite is the
    # presentation itself, not an equal copy with caches of its own
    pres = parse_presentation(MULTISERIAL, QQ, degree_cap=8)
    assert pres.opposite().opposite() is pres
    assert pres.opposite().opposite().opposite() is pres.opposite()
    for a in pres.quiver.vertices:
        assert injective_module(pres, a, 0, (-4, 0)).pres is pres
        assert simple_module(pres, a, 0, (-2, 2)).dualize().dualize().pres is pres


def test_dualize_involution_and_shift(multiserial):
    rng = random.Random(11)
    m = random_module(rng, multiserial, (0, 6))
    dd = m.dualize().dualize()
    assert dd.dims == m.dims
    assert all(dd.action(a, i) == m.action(a, i) for (a, i) in m.actions)
    s = 2
    assert m.shift(s).dualize().dims == m.dualize().shift(-s).dims
    assert m.dualize().pres.quiver == multiserial.quiver.opposite()


def test_dualize_simple(multiserial):
    s = simple_module(multiserial, "3", 0, (-2, 2))
    d = s.dualize()
    assert d.dims == {(0, "3"): 1}


def test_path_action_on_projective_is_product_of_arrow_matrices(multiserial):
    quiver = multiserial.quiver
    for a in quiver.vertices:
        p = projective_module(multiserial, a, 0, (0, 6))
        for x, y, i, length in itertools.product(quiver.vertices, quiver.vertices,
                                                 range(3), range(4)):
            # a length-0 path (x == y) acts as the identity on e_x Lambda_i e_a
            for rho in multiserial.path_basis(length, x, y).words:
                expected = Matrix.identity(QQ, multiserial.dim_piece(i, a, x))
                for k, aidx in enumerate(rho):
                    name = quiver.arrows[aidx].name
                    expected = multiserial.left_arrow_matrix(name, i + k, a) * expected
                assert p.path_action(x, rho, i) == expected


def test_projective_cover_of_simple(biserial):
    s = simple_module(biserial, "1", 0, (0, 8))
    cover, f, labels = projective_cover(s, (0, 8))
    f.validate()
    assert labels == [("1", 0)]
    k, incl = kernel_module(f)
    incl.validate()
    assert k.dims == {(1, "2"): 1, (2, "3"): 1}


def test_cover_is_surjective_with_small_kernel(multiserial):
    rng = random.Random(3)
    for _ in range(4):
        m = random_module(rng, multiserial, (0, 5))
        if m.is_zero():
            continue
        cover, f, labels = projective_cover(m, (0, 5))
        f.validate()
        for (i, x), d in m.dims.items():
            assert f.piece(i, x).rank() == d  # surjective on every piece
        k, _ = kernel_module(f)
        rad = radical_pieces(cover)
        for (i, x) in k.dims:
            sub = rad[(i, x)]
            ker = f.piece(i, x).kernel().basis_matrix()
            for row in ker.rows:
                assert sub.contains(row)  # Ker(f) inside rad P


def test_hom_from_projective_counts_degree_zero_piece(multiserial):
    rng = random.Random(7)
    m = random_module(rng, multiserial, (0, 5))
    for a in multiserial.quiver.vertices:
        p = projective_module(multiserial, a, 0, (0, 5))
        basis = hom_basis(p, m)
        assert len(basis) == m.dim(0, a)
        for f in basis:
            f.validate()


def test_random_morphisms_commute(multiserial):
    rng = random.Random(19)
    m = random_module(rng, multiserial, (0, 5))
    n = random_module(rng, multiserial, (0, 5))
    f = random_morphism(rng, m, n)
    f.validate()


def test_module_validate_catches_relation_violation(multiserial):
    # Put a nonzero composite along al then al at degrees 0 -> 2 while the
    # relation says al^2 = -be*ga: a one dimensional strand violates it.
    dims = {(0, "1"): 1, (1, "1"): 1, (2, "1"): 1}
    one = Matrix.from_rows(QQ, [[1]])
    actions = {("al", 0): one, ("al", 1): one}
    bad = GradedModule(multiserial, (0, 2), dims, actions)
    with pytest.raises(ValueError, match="relation"):
        bad.validate()


def test_direct_sum_block_structure(multiserial):
    p1 = projective_module(multiserial, "1", 0, (0, 3))
    p2 = projective_module(multiserial, "2", -1, (0, 3))
    s = direct_sum(multiserial, (0, 3), [("a", p1), ("b", p2)])
    s.validate()
    assert s.dim(0, "1") == p1.dim(0, "1") + p2.dim(0, "1")
    assert [k for k, _ in s.blocks] == ["a", "b"]


def _block_diagonal_reference(pres, leaves, name, i):
    """The action of arrow `name` at degree i on the sum of `leaves`, placed
    entry by entry at the leaves' offsets."""
    arrow = pres.quiver.arrow(name)
    heights = [m.dim(i + 1, arrow.target) for m in leaves]
    widths = [m.dim(i, arrow.source) for m in leaves]
    dense = [[pres.field.zero] * sum(widths) for _ in range(sum(heights))]
    r0 = c0 = 0
    for m, h, w in zip(leaves, heights, widths):
        for r, row in enumerate(m.action(name, i).rows):
            dense[r0 + r][c0:c0 + w] = row
        r0, c0 = r0 + h, c0 + w
    return Matrix.from_rows(pres.field, dense)


@pytest.mark.parametrize("p", [None, 2, 101], ids=["QQ", "GF(2)", "GF(101)"])
def test_direct_sum_actions_are_the_block_diagonal(p):
    # a sum stores only its blocks; `actions` is built on first read and equals
    # the block diagonal of its leaves, for nested sums, zero blocks and shifts
    pres = parse_presentation(MULTISERIAL, QQ if p is None else GF(p), degree_cap=8)
    w = (0, 4)
    p1 = projective_module(pres, "1", 0, w)
    p2 = projective_module(pres, "2", -1, w)
    p3 = injective_module(pres, "3", -3, w)
    inner = direct_sum(pres, w, [("a", p1), ("z", zero_module(pres, w)), ("b", p2)])
    outer = direct_sum(pres, w, [("in", inner), ("c", p3), ("b2", p2)])
    cases = [(inner, [p1, p2]), (outer, [p1, p2, p3, p2])]
    cases.append((outer.shift(2), [m.shift(2) for m in (p1, p2, p3, p2)]))
    cases.append((outer.shift(-1).shift(1), [p1, p2, p3, p2]))
    for s, leaves in cases:
        assert s._actions is None and s.blocks is not None     # nothing built yet
        keys = {k for m in leaves for k in m.actions}
        assert keys and set(s.actions) == keys
        for (name, i) in keys:
            assert s.actions[(name, i)] == _block_diagonal_reference(pres, leaves, name, i)
        assert s.actions is s.actions                          # built once
        s.validate()
    assert outer.shift(2).dims == {(i - 2, x): d for (i, x), d in outer.dims.items()}


def _dense_block(f, tgt_parts, src_parts, r, c, key):
    """Block (r, c) of f's piece `key`, sliced out of its dense rows."""
    r0 = sum(m.dim(*key) for m in tgt_parts[:r])
    c0 = sum(m.dim(*key) for m in src_parts[:c])
    h, w = tgt_parts[r].dim(*key), src_parts[c].dim(*key)
    rows = [row[c0:c0 + w] for row in f.piece(*key).rows[r0:r0 + h]]
    return Matrix(f.source.pres.field, h, w, Matrix.from_rows(f.source.pres.field, rows).sparse_rows)


@pytest.mark.parametrize("p", [None, 101], ids=["QQ", "GF(101)"])
@pytest.mark.parametrize("seed", range(4))
def test_block_parts_round_trip(p, seed):
    # block_parts slices a morphism between direct sums into its non-zero
    # blocks, and block_morphism assembles them back into the same morphism
    rng = random.Random(seed)
    pres = parse_presentation(MULTISERIAL, QQ if p is None else GF(p), degree_cap=8)
    w = (0, 4)
    sparts = [random_module(rng, pres, w) for _ in range(3)]
    tparts = sparts[::-1] + [random_module(rng, pres, w)]
    for parts in (sparts, tparts):      # a zero block somewhere in each sum
        parts.insert(rng.randint(0, len(parts)), zero_module(pres, w))
    src = direct_sum(pres, w, list(enumerate(sparts)))
    tgt = direct_sum(pres, w, list(enumerate(tparts)))
    morphisms = hom_basis(src, tgt) + [random_morphism(rng, src, tgt)]
    assert any(len(block_parts(f, tparts, sparts)) > 1 for f in morphisms)   # several blocks
    pieces = src.dims.keys() & tgt.dims.keys()
    for f in morphisms:
        blocks = block_parts(f, tparts, sparts)
        back = block_morphism(src, tgt, tparts, sparts, blocks)
        assert set(back.mats) == pieces
        assert all(back.piece(*key) == f.piece(*key) for key in pieces)
        for r, c in itertools.product(range(len(tparts)), range(len(sparts))):
            for key in pieces:
                ref = _dense_block(f, tparts, sparts, r, c, key)
                got = blocks.get((r, c), {}).get(key)
                assert (got is None) if ref.is_zero() else got == ref
    f, (r, c), mats = next((f, rc, mats) for f in morphisms
                           for rc, mats in block_parts(f, tparts, sparts).items())
    key, block = next(iter(mats.items()))
    with pytest.raises(ValueError):     # one row too many
        block_morphism(src, tgt, tparts, sparts, {(r, c): {key: Matrix.zeros(
            pres.field, block.nrows + 1, block.ncols)}})
    with pytest.raises(ValueError):     # a block at a piece that both sums lack
        block_morphism(src, tgt, tparts, sparts, {(r, c): {(w[1] + 1, key[1]): block}})
    with pytest.raises(ValueError):     # the layout of another sum
        block_parts(f, tparts[:r] + tparts[r + 1:], sparts)


def _reduce_projection(sp: Subspace):
    """The projection onto the free coordinates, reducing each unit vector."""
    field, d = sp.field, sp.ambient
    free = [c for c in range(d) if c not in set(sp.pivots)]
    cols = []
    for col in range(d):
        unit = [field.zero] * d
        unit[col] = field.one
        red = sp.reduce(unit)
        cols.append([red[c] for c in free])
    return Matrix.from_rows(field, cols).transpose()


@pytest.mark.parametrize("p", [None, 101], ids=["QQ", "GF(101)"])
@pytest.mark.parametrize("seed", range(4))
def test_quotient_projection_matches_reduction(p, seed):
    # one vertex and no arrows, so any piece subspace is stable; the projection
    # read off the canonical rows equals reducing every unit vector
    field = QQ if p is None else GF(p)
    pres = point_presentation(field)
    rng = random.Random(seed)
    dims = {(i, "v"): rng.randint(1, 9) for i in range(6)}
    m = GradedModule(pres, (0, 6), dims, {})
    pieces = {(0, "v"): Subspace.zero(field, dims[(0, "v")]),
              (1, "v"): Subspace.full(field, dims[(1, "v")])}
    for i in range(2, 5):
        d = dims[(i, "v")]
        vecs = [[rng.choice((0, 0, 1, -1, 2, rng.randint(-50, 50))) for _ in range(d)]
                for _ in range(rng.randint(1, d))]
        pieces[(i, "v")] = Subspace.from_vectors(field, d, vecs)
    # piece 5 is left out of `pieces`: it is divided by zero
    quot, proj = quotient_module(m, pieces)
    for key, d in dims.items():
        ref = _reduce_projection(pieces.get(key) or Subspace.zero(field, d))
        assert proj.piece(*key) == ref
        assert quot.dim(*key) == ref.nrows


def test_standard_module_warns_on_empty_window(multiserial):
    import warnings as w
    with w.catch_warnings(record=True) as caught:
        w.simplefilter("always")
        standard_module(multiserial, "projective", "1", 0, (-4, -1))
    assert any("too small" in str(c.message) for c in caught)


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=["QQ", "GF(101)"])
def test_standard_module_memo_matches_fresh_presentation(field):
    from koszul.engine import TruncationPolicy, injective_coresolution, projective_resolution
    from tests.conftest import presentations_dir
    text = (presentations_dir() / "multiserial.kz").read_text()
    warm = parse_presentation(text, field, 10)
    # the engine runs first: its functor terms hold the shared modules, so a
    # write into one anywhere would show as a memo differing from a fresh parse
    policy = TruncationPolicy(3, (-2, 6))
    for v in warm.quiver.vertices:
        for m in (simple_module(warm, v, 0, policy.degree_window),
                  random_module(random.Random(3), warm, (0, 3))):
            projective_resolution(m, policy)
            injective_coresolution(m, policy)
    fresh = parse_presentation(text, field, 10)
    for build in (projective_module, injective_module):
        for v, shift, window in itertools.product(warm.quiver.vertices, range(-2, 3),
                                                  [(-2, 6), (0, 3)]):
            first = build(warm, v, shift, window)
            assert build(warm, v, shift, list(window)) is first
            assert first.same_content(build(fresh, v, shift, window))
    # the opposite projectives that injectives dualize are not kept
    assert not warm.opposite()._modules


def test_tensor_is_a_lazy_sum_of_copies(multiserial, monkeypatch):
    m = random_module(random.Random(5), multiserial, (0, 3))
    with monkeypatch.context() as patched:
        patched.setattr(Matrix, "kron", classmethod(lambda *args: pytest.fail("kron")))
        t = m.tensor(3)
        assert [key for key, _ in t.blocks] == [(0,), (1,), (2,)]
        assert all(block is m for _, block in t.blocks)
    # its actions are built on first read, and equal I_3 (x) A
    eye = Matrix.identity(multiserial.field, 3)
    assert t.actions == {k: Matrix.kron(eye, mat) for k, mat in m.actions.items()}


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=["QQ", "GF(101)"])
def test_tensor_is_the_direct_sum_of_copies(field):
    pres = parse_presentation(MULTISERIAL, field, 8)
    m = random_module(random.Random(6), pres, (0, 3))
    for d in (0, 2, 3):
        t, ref = m.tensor(d), direct_sum(pres, m.window, [((k,), m) for k in range(d)])
        assert (t.pres, t.window, t.dims) == (ref.pres, ref.window, ref.dims)
        assert t.blocks == ref.blocks and all(block is m for _, block in t.blocks)
        assert t.actions == ref.actions
        # its shift stays a lazy sum of shifted copies
        for s in (1, -2):
            shifted = m.tensor(d).shift(s)
            assert shifted._actions is None
            assert [key for key, _ in shifted.blocks] == [(k,) for k in range(d)]
            assert shifted.same_content(ref.shift(s))
            assert shifted.dims == m.shift(s).tensor(d).dims


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=["QQ", "GF(101)"])
def test_tensor_one_is_the_module_and_two_is_a_kron(field):
    pres = parse_presentation(MULTISERIAL, field, 8)
    m = random_module(random.Random(5), pres, (0, 3))
    assert m.tensor(1) is m
    t = m.tensor(2)
    assert t.dims == {k: 2 * v for k, v in m.dims.items()}
    assert set(t.actions) == set(m.actions)
    for (name, i), mat in m.actions.items():
        # (I_2 (x) A)[r h + p][c w + q] = [r == c] A[p][q]: the tensor index is major
        ref = [[mat.rows[p][q] if r == c else field.zero
                for c in range(2) for q in range(mat.ncols)]
               for r in range(2) for p in range(mat.nrows)]
        assert t.action(name, i).rows == ref


# -- projectives end at their first zero degree ---------------------------------------


def _projective_module_reference(pres, a, shift, lo, hi):
    """P_a<shift> queried at every degree of the window, with Lambda's
    vanishing probed once the window passes the cap."""
    quiver = pres.quiver
    vanish = None
    dims = {}
    for i in range(lo, hi + 1):
        d = shift + i
        if d < 0:
            continue
        if d > pres.degree_cap:
            if vanish is None:
                vanish = pres.lambda_vanishing_degree()
            if vanish is None:
                raise ValueError(
                    f"projective piece needs algebra degree {d} > cap "
                    f"{pres.degree_cap}; raise the degree cap (-D)")
            continue
        for x in quiver.vertices:
            dims[(i, x)] = pres.dim_piece(d, a, x)
    actions = {}
    for i in range(lo, hi):
        d = shift + i
        if d < 0 or d + 1 > pres.degree_cap:
            continue
        for arrow in quiver.arrows:
            if dims.get((i, arrow.source)):
                actions[(arrow.name, i)] = pres.left_arrow_matrix(arrow.name, d, a)
    return GradedModule(pres, (lo, hi), dims, actions)


def _outcome(build):
    """A module's dims and exact actions, or the text of the ValueError it raised."""
    try:
        m = build()
    except ValueError as exc:
        return str(exc)
    return m.window, m.dims, {
        k: (mat.nrows, mat.ncols, [sorted((c, repr(v)) for c, v in row.items())
                                   for row in mat.sparse_rows])
        for k, mat in m.actions.items()}


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["QQ", "GF3"])
def test_projective_module_matches_the_full_window_loop(field):
    multi = parse_presentation(MULTISERIAL, field, degree_cap=8)
    rng = random.Random(f"projectives {field.characteristic}")
    algebras = [multi, parse_presentation(KRONECKER, field, degree_cap=8), multi.quadratic_dual()]
    algebras += [random_presentation(rng, random_quiver(rng, 3, 4), field, 6) for _ in range(8)]
    raised = 0
    for pres in algebras:
        for a, shift, (lo, hi) in itertools.product(pres.quiver.vertices, range(-10, 4),
                                                    ((-2, 14), (5, 9))):
            want = _outcome(lambda: _projective_module_reference(pres, a, shift, lo, hi))
            assert _outcome(lambda: _projective_module(pres, a, shift, lo, hi)) == want
            raised += isinstance(want, str)
            # I_a<shift> is the dual of the opposite's P_a on the mirrored window
            opp = pres.opposite()
            want = _outcome(lambda: _projective_module_reference(
                opp, a, 0, -(shift + hi), -(shift + lo)).dualize().shift(shift))
            assert _outcome(lambda: injective_module(pres, a, shift, (lo, hi))) == want
    assert raised


def test_projective_window_past_the_cap_of_an_infinite_algebra_raises():
    dual = parse_presentation(MULTISERIAL, QQ, degree_cap=8).quadratic_dual()
    assert dual.lambda_vanishing_degree() is None
    for shift, window, degree in ((0, (0, 10), 9), (3, (-2, 14), 9), (0, (10, 12), 10)):
        text = (f"projective piece needs algebra degree {degree} > cap 8; "
                f"raise the degree cap (-D)")
        assert _outcome(lambda: projective_module(dual, "1", shift, window)) == text
        assert _outcome(lambda: _projective_module_reference(dual, "1", shift, *window)) == text


def test_projective_module_stops_at_its_first_zero_degree():
    # Lambda is generated in degree 1 and Lambda_3 e_1 = 0 on multiserial:
    # no piece of P_1<-8> on (-2, 14) above degree 3 is asked for
    pres = parse_presentation(MULTISERIAL, QQ, degree_cap=16)
    asked = []
    real = pres.dim_piece
    pres.dim_piece = lambda n, x, y: asked.append(n) or real(n, x, y)
    p = projective_module(pres, "1", -8, (-2, 14)).validate()
    assert max(i for i, _ in p.dims) == 10 and max(asked) <= 3
