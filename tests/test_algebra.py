from __future__ import annotations

import functools
import itertools
import random

import pytest

from koszul.algebra import Presentation, subspace_circuits
from koszul.dsl import parse_presentation
from koszul.linalg import GF, Matrix, QQ, Subspace
from koszul.quiver import Quiver
from koszul.randomgen import random_presentation, random_quiver
from tests.conftest import MULTISERIAL, presentations_dir
from tests.helpers import intersect, r_upper_derivation, radical_square_zero, random_module

P_CHECK = 1000003

DUAL_MULTI = """
quiver
  vertices: 1 2 3 4
  arrows: al: 1->1  be: 1->2  ga: 2->1  de: 3->2  ze: 3->4  et: 3->4  si: 4->4
relations
  al*al - ga*be
  ga*de
  si*ze
"""


def _ideal_piece_oracle(pres, n, x, y):
    """Brute force: R_n(x,y) as the span over j of kQ_{n-2-j} . R_2 . kQ_j."""
    target = pres.path_basis(n, x, y)
    vectors = []
    for j in range(0, n - 1):
        for a, b in itertools.product(pres.quiver.vertices, repeat=2):
            gen = pres.relations.get((a, b))
            if gen is None:
                continue
            gen_basis = pres.path_basis(2, a, b)
            for q in pres.path_basis(j, x, a).words:
                for r in pres.path_basis(n - 2 - j, b, y).words:
                    for row in gen.sparse_rows:
                        vec = [pres.field.zero] * len(target)
                        for col, coeff in row.items():
                            p = gen_basis.words[col]
                            vec[target.index[q + p + r]] = coeff
                        vectors.append(vec)
    return Subspace.from_vectors(pres.field, len(target), vectors)


def _r_upper_oracle(pres, n, a, x):
    """Direct intersection over j of kQ_{n-2-j}(-,x) . R_2 . kQ_j(a,-)."""
    target = pres.path_basis(n, a, x)
    if n <= 1:
        return Subspace.full(pres.field, len(target))
    result = None
    for j in range(0, n - 1):
        vectors = []
        for b, c in itertools.product(pres.quiver.vertices, repeat=2):
            gen = pres.relations.get((b, c))
            if gen is None:
                continue
            gen_basis = pres.path_basis(2, b, c)
            for q in pres.path_basis(j, a, b).words:
                for r in pres.path_basis(n - 2 - j, c, x).words:
                    for row in gen.sparse_rows:
                        vec = [pres.field.zero] * len(target)
                        for col, coeff in row.items():
                            p = gen_basis.words[col]
                            vec[target.index[q + p + r]] = coeff
                        vectors.append(vec)
        layer = Subspace.from_vectors(pres.field, len(target), vectors)
        result = layer if result is None else intersect(result, layer)
    return result


def test_relation_pieces_low_degrees_vanish(biserial):
    for x in biserial.quiver.vertices:
        for y in biserial.quiver.vertices:
            assert biserial.relation_piece(0, x, y).dim == 0
            assert biserial.relation_piece(1, x, y).dim == 0


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_relation_pieces_match_ideal_oracle(biserial, multiserial, n):
    for pres in (biserial, multiserial):
        for x in pres.quiver.vertices:
            for y in pres.quiver.vertices:
                assert pres.relation_piece(n, x, y) == _ideal_piece_oracle(pres, n, x, y)


def test_multiserial_relation_piece_example(multiserial):
    space = multiserial.relation_space("1", "1")
    assert space.dim == 1
    basis = multiserial.path_basis(2, "1", "1")
    words = {multiserial.quiver.word(basis.words[j]): c for j, c in space.sparse_rows[0].items()}
    assert words["al*al"] == 1 and words["be*ga"] == 1


def test_algebra_piece_dimensions(biserial, multiserial):
    # path algebra: dims equal path counts
    pa = Presentation(biserial.quiver, QQ, {}, 8)
    for n in range(0, 5):
        for x in pa.quiver.vertices:
            for y in pa.quiver.vertices:
                assert pa.dim_piece(n, x, y) == len(pa.path_basis(n, x, y))
    # radical square zero: everything in degree >= 2 dies
    rz = radical_square_zero(biserial.quiver, QQ, 8)
    assert all(rz.dim_piece(2, x, y) == 0
               for x in rz.quiver.vertices for y in rz.quiver.vertices)
    # multiserial worked example: e_1 Lambda_2 e_1 is one dimensional
    assert multiserial.dim_piece(2, "1", "1") == 1
    for n in range(0, 6):
        for x in multiserial.quiver.vertices:
            for y in multiserial.quiver.vertices:
                assert multiserial.dim_piece(n, x, y) + \
                    multiserial.relation_piece(n, x, y).dim == \
                    len(multiserial.path_basis(n, x, y))


def test_r_upper_defaults(biserial):
    for a in biserial.quiver.vertices:
        for x in biserial.quiver.vertices:
            full = biserial.path_basis(1, a, x)
            assert biserial.r_upper(1, a, x).dim == len(full)
            assert biserial.r_upper(2, a, x) == biserial.relation_space(a, x)


def _r_upper_corpus(kronecker):
    """Kronecker, the ground field and 8 seeded draws over QQ and over GF(3)."""
    empty = parse_presentation((presentations_dir() / "empty.kz").read_text(), QQ, 10)
    return [kronecker, empty] + [random_presentation(random.Random(seed), field=field,
                                                     degree_cap=5)
                                 for seed in range(8) for field in (QQ, GF(3))]


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 6])
def test_r_upper_matches_direct_intersection(biserial, multiserial, kronecker, n):
    corpus = [biserial, multiserial] + (_r_upper_corpus(kronecker) if n <= 5 else [])
    for pres in corpus:
        for a in pres.quiver.vertices:
            for x in pres.quiver.vertices:
                assert pres.r_upper(n, a, x) == _r_upper_oracle(pres, n, a, x)


def _r_upper_derivation_reference(pres, oracle, arrow, n, a):
    """q.al -> q for al: y -> x on the dense basis rows of oracle(n, a, x),
    then each image's coordinates in oracle(n - 1, a, y)."""
    aidx = pres.quiver.arrow_index(arrow.name)
    src = pres.path_basis(n, a, arrow.target)
    tgt = pres.path_basis(n - 1, a, arrow.source)
    lower = oracle(n - 1, a, arrow.source)
    cols = []
    for row in oracle(n, a, arrow.target).dense_rows():
        image = [pres.field.zero] * len(tgt)
        for p, v in zip(src.words, row):
            if p[-1] == aidx:
                image[tgt.index[p[:-1]]] = v
        cols.append(lower.coordinates(image))
    return Matrix(pres.field, lower.dim, len(cols),
                  [{j: c[r] for j, c in enumerate(cols) if c[r]} for r in range(lower.dim)])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_r_upper_derivation_matches_dense_reference(biserial, multiserial, kronecker, n):
    for pres in [biserial, multiserial] + _r_upper_corpus(kronecker):
        oracle = functools.cache(functools.partial(_r_upper_oracle, pres))
        for a in pres.quiver.vertices:
            for arrow in pres.quiver.arrows:
                assert r_upper_derivation(pres, arrow.name, n, a) == \
                    _r_upper_derivation_reference(pres, oracle, arrow, n, a), (n, a, arrow.name)


@pytest.mark.parametrize("src,a,x,coefficients", [
    # biserial's quiver with zeta = 2 g*b + 5 e*z: d_g and d_e pick 2 b and 5 z
    ("quiver\n vertices: 1 2 3 4 5 6\n arrows: a: 1->2  b: 2->3  z: 2->4  g: 3->5"
     "  e: 4->5  d: 5->6\nrelations\n z*a\n d*g\n 2*g*b + 5*e*z\n", "2", "5", {"g": 2, "e": 5}),
    # a tail c: 0 -> 1 before the Kronecker pair: d_a drops the term b*c
    ("quiver\n vertices: 0 1 2\n arrows: c: 0->1  a: 1->2  b: 1->2\n"
     "relations\n 3*a*c + 2*b*c\n", "0", "2", {"a": 3, "b": 2}),
    ("quiver\n vertices: 1 2 3\n arrows: a: 1->2  b: 2->3\nrelations\n b*a\n",
     "1", "3", {"b": 1}),
], ids=["biserial-coefficients", "kronecker-tail", "path"])
def test_r_upper_derivation_extracts_coefficients(src, a, x, coefficients):
    # zeta = sum_al c_al al*q_al spans R^(2)(a, x), its first term leading in
    # path order; d_al(zeta) = c_al q_al, the one path q_al in kQ_1(a, -)
    pres = parse_presentation(src)
    assert pres.r_upper(2, a, x).dim == 1
    lead = next(iter(coefficients.values()))
    for name, c in coefficients.items():
        d = r_upper_derivation(pres, name, 2, a)
        assert [[lead * v for v in row] for row in d.rows] == [[c]]


def test_r_upper_derivation_containment(biserial, multiserial):
    # Raises inside coordinates() if the derivative leaves R^(n-1)
    for pres in (biserial, multiserial):
        for a in pres.quiver.vertices:
            for n in range(1, 7):
                for arrow in pres.quiver.arrows:
                    r_upper_derivation(pres, arrow.name, n, a)


def test_r_upper_membership_criterion(multiserial):
    # rho in sum zeta_i R^(n-1) lies in R^(n) iff rho in R_2 . kQ_{n-2}
    pres = multiserial
    rng = random.Random(5)
    for n in range(3, 6):
        for a in pres.quiver.vertices:
            for x in pres.quiver.vertices:
                target = pres.path_basis(n, a, x)
                if not len(target):
                    continue
                left_vectors = []
                for aidx in pres.quiver.in_arrows(x):
                    arrow = pres.quiver.arrows[aidx]
                    sub = pres.r_upper(n - 1, a, arrow.source)
                    src = pres.path_basis(n - 1, a, arrow.source)
                    for row in sub.sparse_rows:
                        vec = [pres.field.zero] * len(target)
                        for c, coeff in row.items():
                            vec[target.index[src.words[c] + (aidx,)]] = coeff
                        left_vectors.append(vec)
                left = Subspace.from_vectors(pres.field, len(target), left_vectors)
                right = _ideal_right_oracle(pres, n, a, x, target)
                for row in left.dense_rows():
                    expected = right.contains(row)
                    assert pres.r_upper(n, a, x).contains(row) == expected


def _ideal_right_oracle(pres, n, a, x, target):
    vectors = []
    for b in pres.quiver.vertices:
        gen = pres.relations.get((b, x))
        if gen is None:
            continue
        gen_basis = pres.path_basis(2, b, x)
        for q in pres.path_basis(n - 2, a, b).words:
            for row in gen.sparse_rows:
                vec = [pres.field.zero] * len(target)
                for c, coeff in row.items():
                    vec[target.index[q + gen_basis.words[c]]] = coeff
                vectors.append(vec)
    return Subspace.from_vectors(pres.field, len(target), vectors)


def test_dual_of_path_algebra_is_radical_square_zero(kronecker):
    dual = kronecker.quadratic_dual()
    opp = kronecker.quiver.opposite()
    expected = radical_square_zero(opp, QQ, kronecker.degree_cap)
    assert dual == expected


def test_multiserial_dual_golden(multiserial):
    expected = parse_presentation(DUAL_MULTI, QQ, multiserial.degree_cap)
    dual = multiserial.quadratic_dual()
    assert dual.quiver == multiserial.quiver.opposite()
    assert dual == expected


def test_multiserial_dual_golden_over_prime_field():
    from tests.conftest import MULTISERIAL
    pres = parse_presentation(MULTISERIAL, GF(P_CHECK), degree_cap=8)
    dual = pres.quadratic_dual()
    expected = parse_presentation(DUAL_MULTI, GF(P_CHECK), 8)
    assert dual == expected


@pytest.mark.parametrize("seed", range(50))
def test_double_dual_roundtrip_random(seed):
    rng = random.Random(1000 + seed)
    pres = random_presentation(rng, degree_cap=4)
    assert pres.quadratic_dual().quadratic_dual() == pres
    assert pres.opposite().quadratic_dual() == pres.quadratic_dual().opposite()
    # the underlying identity is double-perp in the coordinatized path spaces
    for (x, y), space in pres.relations.items():
        assert space.perp().perp() == space


def test_pairing_dimensions(biserial, multiserial, kronecker):
    for pres in (biserial, multiserial, kronecker):
        for a in pres.quiver.vertices:
            assert pres.pairing_dimension_check(a, a, 0) == (True, 1, 1)
    # path algebra: R^(n) is the full path space, matching the dual piece
    pa = Presentation(kronecker.quiver, QQ, {}, 8)
    for n in range(0, 5):
        for a in pa.quiver.vertices:
            for x in pa.quiver.vertices:
                ok, left, right = pa.pairing_dimension_check(a, x, n)
                assert ok and left == len(pa.path_basis(n, a, x))
    ok, left, right = multiserial.pairing_dimension_check("1", "1", 4)
    assert ok and left == right and left >= 1


def test_special_multiserial_verdicts(biserial, multiserial, kronecker):
    assert multiserial.special_multiserial_check()[0] is True
    assert biserial.special_multiserial_check()[0] is True
    # Kronecker extended by one arrow 2->3: two surviving composites
    ext = parse_presentation(
        "quiver\n vertices: 1 2 3\n arrows: a: 1->2  b: 1->2  c: 2->3\n")
    ok, violations = ext.special_multiserial_check()
    assert ok is False
    assert any(v["arrow"] == "c" and len(v["arrows"]) == 2 for v in violations)


def test_condition_star_verdicts(biserial, multiserial):
    assert multiserial.condition_star_check("self")[0] is True
    assert multiserial.condition_star_check("dual-of-opposite")[0] is True
    ok_self, ce = biserial.condition_star_check("self")
    ok_dual, _ = biserial.condition_star_check("dual-of-opposite")
    assert ok_self is False and ok_dual is False
    assert ce["pair"] == ("2", "5")


def test_condition_star_vacuous_for_monomial():
    # all relations single paths: no polynomial relation, condition holds
    src = ("quiver\n vertices: 1 2 3\n arrows: a: 1->2  b: 2->3\n"
           "relations\n b*a\n")
    pres = parse_presentation(src)
    assert pres.special_multiserial_check()[0] is True
    assert pres.condition_star_check("self")[0] is True
    assert pres.condition_star_check("dual-of-opposite")[0] is True


def test_condition_star_requires_multiserial():
    ext = parse_presentation(
        "quiver\n vertices: 1 2 3\n arrows: a: 1->2  b: 1->2  c: 2->3\n")
    with pytest.raises(ValueError, match="not special multiserial"):
        ext.condition_star_check("self")


def test_circuits_small():
    space = Subspace.from_vectors(QQ, 3, [[1, 1, 0], [0, 1, 1]])
    circuits = subspace_circuits(space)
    supports = sorted(tuple(i for i, v in enumerate(c) if v) for c in circuits)
    assert supports == [(0, 1), (0, 2), (1, 2)]


def test_circuits_are_exact_and_canonical():
    # circuits are divided by their leading coefficient, which over QQ is
    # often an int: the division must stay exact, never a float
    for field in (QQ, GF(7)):
        space = Subspace.from_vectors(field, 4, [[2, 1, 0, 3], [0, 3, 1, 1]])
        circuits = subspace_circuits(space)
        assert circuits and all(
            type(v) is type(field.of(v)) and v == field.of(v) for c in circuits for v in c)
        assert all(next(v for v in c if v) == field.one for c in circuits)
        assert all(space.contains(c) for c in circuits)


def test_prime_field_dimensions_bound_the_rational_ones():
    # a cross-field oracle: relations with integer coefficients span, mod p, a
    # space of at most their rank over QQ, so dim Lambda_n e_y over GF(p) is at
    # least its value over QQ; for p = 2^31 - 1 and these small entries they agree
    strict = 0
    for seed in range(12):
        pq = random_presentation(random.Random(seed), field=QQ, degree_cap=5)
        for p in (2, 3, 2**31 - 1):
            pp = random_presentation(random.Random(seed), field=GF(p), degree_cap=5)
            assert pp.quiver == pq.quiver
            for n, (x, y) in itertools.product(range(6), itertools.product(
                    pq.quiver.vertices, repeat=2)):
                dq, dp = pq.dim_piece(n, x, y), pp.dim_piece(n, x, y)
                assert dp >= dq, (seed, p, n, x, y)
                assert dp == dq or p < 2**31 - 1, (seed, n, x, y)
                strict += dp > dq
    assert strict       # the oracle tells the fields apart somewhere


def test_piece_cache_idempotent(multiserial):
    first = multiserial.algebra_piece(3, "1", "1")
    second = multiserial.algebra_piece(3, "1", "1")
    assert first is second
    assert multiserial.relation_piece(4, "1", "1") is multiserial.relation_piece(4, "1", "1")


@pytest.mark.parametrize("make", [
    lambda: parse_presentation(MULTISERIAL, QQ, 8),
    lambda: Presentation(Quiver(["1", "2"], [("a", "1", "2")]), QQ, {}, 8)],
    ids=["multiserial", "path 1->2"])
def test_pieces_past_the_cap_raise_though_their_predecessors_vanish(make):
    # every degree-8 piece is zero, so degree 9 would be zero by recursion;
    # the cap is still checked first, on a fresh and on a warm presentation
    for warm in (False, True):
        pres = make()
        pairs = list(itertools.product(pres.quiver.vertices, repeat=2))
        if warm:
            assert not any(pres.dim_piece(8, x, y) for x, y in pairs)
        for x, y in pairs:
            for query in (pres.dim_piece, pres.algebra_piece, pres.relation_piece):
                with pytest.raises(ValueError, match="degree 9 exceeds cap 8"):
                    query(9, x, y)


def _normal_words(pres, n, x, y):
    pivots = set(pres.relation_piece(n, x, y).pivots)
    return tuple(p for i, p in enumerate(pres.path_basis(n, x, y).words) if i not in pivots)


def _assert_pieces_are_normal_words(pres):
    """Every algebra piece up to the cap, asked for from the top degree down,
    against the non-pivot paths of R_n from a presentation that has built no
    algebra piece; returns how many zero pieces have paths."""
    fresh = Presentation(pres.quiver, pres.field, pres.relations, pres.degree_cap)
    keys = list(itertools.product(range(pres.degree_cap + 1),
                                  itertools.product(pres.quiver.vertices, repeat=2)))
    zero_with_paths = 0
    for n, (x, y) in reversed(keys):
        piece = pres.algebra_piece(n, x, y)
        assert piece.words == _normal_words(fresh, n, x, y), (n, x, y)
        assert not fresh._alg_piece
        zero_with_paths += not piece.dim and len(pres.path_basis(n, x, y)) > 0
    return zero_with_paths


@pytest.mark.parametrize("p", [None, 2, 3], ids=["QQ", "GF(2)", "GF(3)"])
def test_algebra_pieces_are_exact_on_random_presentations(p):
    field = QQ if p is None else GF(p)
    vanished = 0
    for seed in range(10):
        pres = random_presentation(random.Random(seed), field=field, degree_cap=5)
        for ps in (pres, pres.quadratic_dual()):
            vanished += _assert_pieces_are_normal_words(ps)
    assert vanished     # some pieces are zero by the recursion shortcut


@pytest.mark.parametrize("name", ["biserial", "multiserial", "kronecker", "empty"])
def test_algebra_pieces_are_exact_on_shipped_presentations(name):
    pres = parse_presentation((presentations_dir() / f"{name}.kz").read_text(), QQ, 8)
    for ps in (pres, pres.quadratic_dual(), pres.opposite()):
        _assert_pieces_are_normal_words(ps)


@pytest.mark.parametrize("name", ["biserial", "multiserial", "kronecker", "empty"])
@pytest.mark.parametrize("field", [QQ, GF(101)], ids=["QQ", "GF(101)"])
def test_arrow_matrix_memo_matches_fresh_presentation(name, field):
    from koszul.complexes import single_module_complex
    from koszul.engine import (TruncationPolicy, extend_functor, injective_coresolution,
                               projective_resolution)
    from koszul.modules import injective_module, projective_module, simple_module
    from tests.conftest import presentations_dir
    text = (presentations_dir() / f"{name}.kz").read_text()
    warm = parse_presentation(text, field, 10)
    # the engine runs first: results share row dicts with the cached matrices
    # (kron returns a factor, + and block reuse rows), so a write in place
    # anywhere would show as a memo differing from a fresh presentation's
    policy = TruncationPolicy(3, (-2, 6))
    w = policy.degree_window
    for v in warm.quiver.vertices:
        for m in (simple_module(warm, v, 0, w), projective_module(warm, v, 0, w),
                  injective_module(warm, v, 0, w), random_module(random.Random(3), warm, (0, 3))):
            projective_resolution(m, policy)
            injective_coresolution(m, policy)
            extend_functor("right", single_module_complex(m), w)
            extend_functor("left", single_module_complex(m), w)
    fresh = parse_presentation(text, field, 10)
    for pw, pf in [(warm, fresh), (warm.opposite(), fresh.opposite()),
                   (warm.quadratic_dual(), fresh.quadratic_dual())]:
        keys = [(arrow.name, n, v) for arrow in pw.quiver.arrows for n in range(5)
                for v in pw.quiver.vertices]
        first = {k: (pw.left_arrow_matrix(*k), pw.right_arrow_matrix(*k)) for k in keys}
        for k in reversed(keys):
            left, right = first[k]
            assert pw.left_arrow_matrix(*k) is left
            assert pw.right_arrow_matrix(*k) is right
            assert pf.left_arrow_matrix(*k) == left
            assert pf.right_arrow_matrix(*k) == right


def _multiplication_reference(pres, src, key, times):
    """Each basis path p of `src` sent to the path times(p) as a dense unit
    vector, reduced modulo the relations of the piece at key = (n, x, y) and
    read at its free columns."""
    field, basis, tgt = pres.field, pres.path_basis(*key), pres.algebra_piece(*key)
    rel = pres.relation_piece(*key)
    free = [c for c in range(len(basis)) if c not in rel.pivots]
    cols = []
    for p in src.words:
        unit = [field.zero] * len(basis)
        unit[basis.index[times(p)]] = field.one
        red = rel.reduce(unit)
        cols.append([red[c] for c in free])
    return Matrix.from_rows(field, cols).transpose() if cols else Matrix.zeros(field, tgt.dim, 0)


def _assert_arrow_matrices_match_reference(ps, top, pres=None):
    """Both arrow matrices of ps up to degree `top` against unit-vector
    reduction modulo R_{n+1}, and, where ps is the opposite of `pres`, the
    injective-side mate of right multiplication."""
    for arrow in ps.quiver.arrows:
        aidx = ps.quiver.arrow_index(arrow.name)
        for n in range(top + 1):
            for v in ps.quiver.vertices:
                assert ps.left_arrow_matrix(arrow.name, n, v) == _multiplication_reference(
                    ps, ps.algebra_piece(n, v, arrow.source),
                    (n + 1, v, arrow.target), lambda q: q + (aidx,))
                right = _multiplication_reference(
                    ps, ps.algebra_piece(n, arrow.target, v),
                    (n + 1, arrow.source, v), lambda q: (aidx,) + q)
                assert ps.right_arrow_matrix(arrow.name, n, v) == right
                if pres is not None:
                    assert pres.opposite_right_arrow_transpose(arrow.name, n, v) \
                        == right.transpose()


@pytest.mark.parametrize("p", [None, 2, 101], ids=["QQ", "GF(2)", "GF(101)"])
@pytest.mark.parametrize("seed", range(4))
def test_arrow_matrices_match_unit_vector_reduction(p, seed):
    field = QQ if p is None else GF(p)
    pres = random_presentation(random.Random(seed), field=field, degree_cap=5)
    _assert_arrow_matrices_match_reference(pres, 3)
    _assert_arrow_matrices_match_reference(pres.opposite(), 3, pres)


def _quotient_corpus(pres):
    """The presentations the engine builds normal words on: Lambda, Lambda^!,
    its opposite (injectives) and (Lambda^!)^op with its arrows reversed (N_a)."""
    dual = pres.quadratic_dual()
    return (pres, pres.opposite(), dual, dual.opposite().reversed_arrows())


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["QQ", "GF(3)"])
@pytest.mark.parametrize("name", [p.stem for p in sorted(presentations_dir().glob("*.kz"))])
def test_quotient_recursion_matches_relation_pieces_on_shipped_presentations(name, field):
    # the normal words and both arrow matrices from the quotient recursion
    # against the non-pivot paths of R_n and unit-vector reduction modulo R_n
    pres = parse_presentation((presentations_dir() / f"{name}.kz").read_text(), field, 5)
    for ps in _quotient_corpus(pres):
        _assert_pieces_are_normal_words(ps)
        _assert_arrow_matrices_match_reference(ps, 4)


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["QQ", "GF(3)"])
def test_quotient_recursion_matches_relation_pieces_on_random_presentations(field):
    for seed in range(24):
        rng = random.Random(seed)
        pres = random_presentation(rng, random_quiver(rng, 3, 4), field, 5)
        for ps in _quotient_corpus(pres):
            _assert_pieces_are_normal_words(ps)
            _assert_arrow_matrices_match_reference(ps, 3)


def test_reversed_arrows_reverses_lex_order_and_keeps_the_algebra(multiserial):
    rev = multiserial.reversed_arrows()
    assert rev.reversed_arrows() is multiserial
    assert [a.name for a in rev.quiver.arrows] == [a.name for a in multiserial.quiver.arrows][::-1]
    for n, (x, y) in itertools.product(range(5), itertools.product(
            multiserial.quiver.vertices, repeat=2)):
        assert rev.dim_piece(n, x, y) == multiserial.dim_piece(n, x, y)
