from __future__ import annotations

import itertools
import random

import pytest

from koszul.dsl import parse_presentation
from koszul.linalg import Matrix, QQ
from koszul.modules import (GradedModule, GradedMorphism, direct_sum, hom_basis,
                            injective_module, kernel_module, projective_cover,
                            projective_module, radical_pieces, simple_module,
                            standard_module, top_generators)
from koszul.randomgen import radical_square_zero, random_module, random_morphism


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
            for rho in multiserial.path_basis(length, x, y).paths:
                expected = Matrix.identity(QQ, multiserial.dim_piece(i, a, x))
                for k, aidx in enumerate(rho.arrows):
                    name = quiver.arrows[aidx].name
                    expected = multiserial.left_arrow_matrix(name, i + k, a) * expected
                assert p.path_action(rho, i) == expected


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
            ker = f.piece(i, x).kernel_basis()
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


def test_standard_module_warns_on_empty_window(multiserial):
    import warnings as w
    with w.catch_warnings(record=True) as caught:
        w.simplefilter("always")
        standard_module(multiserial, "projective", "1", 0, (-4, -1))
    assert any("too small" in str(c.message) for c in caught)
