from __future__ import annotations

import hashlib
import importlib.util
import random

import pytest

from koszul.complexes import (ChainMap, ComplexOfModules, blocks_of, homology_at,
                              homology_module, homology_tables, is_acyclic,
                              mapping_cone, relabel_positions, single_module_complex,
                              total_complex)
from koszul.dsl import parse_presentation, print_presentation
from koszul.engine import (TruncationPolicy, _augmented_complex, _h0_isomorphism,
                           _r_upper_module, eta_augmentation, ext_table,
                           extend_functor, extend_functor_map,
                           extension_conjecture_check, functor_labels,
                           injective_coresolution, koszul_functor,
                           koszul_functor_map, koszulity_certificate,
                           linear_presentation_check, local_koszul_complex,
                           pairing_table, projective_resolution,
                           zeta_coaugmentation)
from koszul.linalg import GF, Matrix, QQ, Subspace
from koszul.modules import (GradedModule, GradedMorphism, block_morphism, direct_sum,
                            hom_basis, identity_morphism, injective_module, kernel_module,
                            projective_cover, projective_module, simple_module,
                            standard_module)
from koszul.randomgen import random_morphism, random_presentation, random_quiver
from koszul.reports import dumps, morphism_json
from tests.conftest import EMPTY, MULTISERIAL, ROOT, presentations_dir
from tests.helpers import (functor_labels_by_dimension, grading_shift, r_upper_derivation,
                           radical_square_zero, random_acyclic_quiver, random_module, twist)

POLICY = TruncationPolicy(6, (-2, 10))


# -- local Koszul complexes -------------------------------------------------------


def test_path_algebra_koszul_complex_has_length_one(kronecker):
    cx = local_koszul_complex(kronecker, "1", TruncationPolicy(5, (0, 6)), augmented=False)
    assert cx.positions() == [-1, 0]
    m = cx.module(-1)
    # 0 -> P_2<-1> (x) kQ_1(1,2) -> P_1 -> 0, two arrows worth of multiplicity
    assert m.dim(1, "2") == 2


def test_local_koszul_complex_above_degree_zero_is_well_shaped(multiserial):
    # a window above degree 0 leaves position 0 no (0, a) piece, so d^0 into
    # S_a is zero, not a 1x1 identity on a piece that is not there
    policy = TruncationPolicy(4, (1, 8))
    for a in multiserial.quiver.vertices:
        cx = local_koszul_complex(multiserial, a, policy)
        for d in cx.diffs.values():
            d.validate()
        assert not cx.module(0).dim(0, a) and 0 not in cx.diffs


def test_r_upper_is_a_module_over_the_quadratic_dual(biserial, multiserial, kronecker):
    # R^(n)(a, -) with the restricted derivations is a Lambda^!-module whose
    # (-n, x) piece has the dimension of e_a Lambda^!_n e_x
    empty = parse_presentation(EMPTY, QQ, 10)
    draws = [random_presentation(random.Random(s), random_quiver(random.Random(s), 3, 4))
             for s in range(12)]
    for pres in [biserial, multiserial, kronecker, empty] + draws:
        dual = pres.quadratic_dual()
        for a in pres.quiver.vertices:
            n_a = _r_upper_module(pres, a, 5).validate()
            assert n_a.pres is dual
            for n in range(6):
                for x in pres.quiver.vertices:
                    assert n_a.dim(-n, x) == dual.dim_piece(n, x, a)


def _assert_n_a_matches_reference(pres, n_max):
    """N_a from the normal words of (Lambda^!)^op with its arrows reversed
    against R^(n)'s canonical bases and the derivations q.al -> q on them."""
    for a in pres.quiver.vertices:
        n_a = _r_upper_module(pres, a, n_max)
        assert n_a.pres is pres.quadratic_dual()
        for n in range(n_max + 1):
            for x in pres.quiver.vertices:
                assert n_a.dim(-n, x) == pres.r_upper(n, a, x).dim, (a, n, x)
            for arrow in pres.quiver.arrows if n else ():
                assert n_a.action(arrow.name, -n) == \
                    r_upper_derivation(pres, arrow.name, n, a), (a, n, arrow.name)


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["QQ", "GF(3)"])
@pytest.mark.parametrize("name", [p.stem for p in sorted(presentations_dir().glob("*.kz"))])
def test_r_upper_module_matches_the_derivation_reference_on_shipped_presentations(name, field):
    pres = parse_presentation((presentations_dir() / f"{name}.kz").read_text(), field, 6)
    _assert_n_a_matches_reference(pres, 6)
    _assert_n_a_matches_reference(pres.quadratic_dual(), 6)


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["QQ", "GF(3)"])
def test_r_upper_module_matches_the_derivation_reference_on_random_presentations(field):
    for seed in range(24):
        rng = random.Random(seed)
        pres = random_presentation(rng, random_quiver(rng, 3, 4), field, 6)
        _assert_n_a_matches_reference(pres, 6)
        _assert_n_a_matches_reference(pres.quadratic_dual(), 6)


def test_certificate_intersects_no_subspaces():
    # R^(n) is the perp of a relation piece of (Lambda^!)^op: neither the
    # certificate nor the pairing table intersects subspaces of kQ_n (the
    # package defines no intersection; test_package_defines_only_what_it_uses
    # keeps the test-only one in tests/helpers.py out of it)
    pres = parse_presentation(MULTISERIAL, QQ, 10)
    assert koszulity_certificate(pres, POLICY).verdict == "KOSZUL"
    assert pairing_table(pres, POLICY.max_span)[0]


def test_koszul_complex_augmentation_is_cover(biserial):
    cx = local_koszul_complex(biserial, "1", TruncationPolicy(3, (0, 8)))
    aug = cx.diff(0)
    assert aug.piece(0, "1").rows == [[QQ.one]]
    assert homology_at(cx, 1) == {}  # surjective onto the simple


def test_radical_square_zero_koszul_terms_are_path_spaces(biserial):
    rz = radical_square_zero(biserial.quiver, QQ, 8)
    policy = TruncationPolicy(4, (0, 8))
    for a in rz.quiver.vertices:
        cx = local_koszul_complex(rz, a, policy, augmented=False)
        for n in range(0, policy.max_span + 1):
            m = cx.module(-n)
            for x in rz.quiver.vertices:
                expected = len(rz.path_basis(n, a, x))  # R^(n) = full path space
                assert rz.r_upper(n, a, x).dim == expected
                # generator degree piece of P_x<-n> tensor R^(n) has that dim
                if expected:
                    assert m.dim(n, x) == expected


def test_lemma_diff_identity(biserial):
    # d(u (x) zeta*delta) = u zeta (x) delta on the Koszul differential blocks
    pres = biserial
    rng = random.Random(2)
    a = "1"
    cx = local_koszul_complex(pres, a, TruncationPolicy(3, (0, 8)))
    d = cx.diff(-2)
    m2 = cx.module(-2)
    m1 = cx.module(-1)
    # K^{-2} = P_4<-2> (x) span{z*a}; pick u = class of path e: 4->5
    eidx = pres.quiver.arrow_index("e")
    u_piece = pres.algebra_piece(1, "4", "5")
    assert u_piece.words == ((eidx,),)
    vec = d.piece(3, "5")
    # target block P_2<-1> (x) span{a}: piece (3, '5') = e_5 Lambda_2 e_2, whose
    # canonical representative is the non-pivot path e*z
    tgt_piece = pres.algebra_piece(2, "2", "5")
    assert tgt_piece.dim == 1
    assert pres.quiver.word(tgt_piece.words[0]) == "e*z"
    # d(u (x) z*a) = u zbar (x) a with u = class(e): coefficient +1 on e*z
    assert vec.ncols == 1 and vec.nrows == 1
    assert vec.rows[0][0] == QQ.one


# -- certificates -------------------------------------------------------------------


def test_path_algebra_certified(kronecker):
    cert = koszulity_certificate(kronecker, POLICY)
    assert cert.is_koszul and cert.complete


def test_biserial_witness_exact(biserial):
    cert = koszulity_certificate(biserial, TruncationPolicy(4, (-2, 10)))
    assert cert.verdict == "NOT_KOSZUL"
    first = cert.failures[0]
    assert (first.vertex, first.position, first.degree) == ("1", -2, 4)
    assert first.witness_dim == 1
    assert first.witness is not None


def test_multiserial_certified(multiserial):
    cert = koszulity_certificate(multiserial, TruncationPolicy(6, (-2, 10)))
    assert cert.verdict == "KOSZUL" and cert.complete


def _benchmark_oracles():
    """perfbench/oracles.py, loaded by path: its Hilbert series are computed by
    its own path enumeration and row reduction, sharing no code with koszul."""
    spec = importlib.util.spec_from_file_location("oracles", ROOT / "perfbench" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_hilbert_series_failures_are_certificate_failures():
    # an exact augmented K_a has Euler characteristic 0 in each degree, so a
    # degree d where sum_n (-1)^n H^!_n H_(d-n) != 0 (BGS 2.11) must hold a
    # failure of the certificate; quadratic algebras first fail it in degree 4
    oracles = _benchmark_oracles()
    policy = TruncationPolicy(5, (-1, 4))
    lo, hi = policy.degree_window
    found = []
    for seed in range(24):
        rng = random.Random(seed)
        pres = random_presentation(rng, random_quiver(rng, 3, 3), QQ, 8)
        bad = [d for d in oracles.hilbert_failures(print_presentation(pres),
                                                   policy.max_span - 1) if lo <= d <= hi]
        failed = {e.degree for e in koszulity_certificate(pres, policy).failures}
        assert set(bad) <= failed, (seed, bad, failed)
        found += bad
    assert found        # the draws include algebras that are not numerically Koszul


def test_koszul_pres_equivalence(biserial, multiserial, kronecker):
    # linear n-presentation of S_a agrees with exactness of K_a down to -n
    for pres in (biserial, multiserial, kronecker):
        policy = TruncationPolicy(5, (-1, 10))
        for a in pres.quiver.vertices:
            cx = local_koszul_complex(pres, a, policy)
            s = simple_module(pres, a, 0, policy.degree_window)
            for n in range(1, 5):
                exact = all(not homology_at(cx, -k) for k in range(0, n))
                linear, _ = linear_presentation_check(s, n, policy.degree_window)
                assert linear == exact, (a, n)


def test_linear_presentation_biserial_values(biserial):
    s1 = simple_module(biserial, "1", 0, (0, 10))
    assert linear_presentation_check(s1, 2)[0] is True
    assert linear_presentation_check(s1, 3)[0] is False
    # projectives trivially admit linear n-presentations: kernel vanishes
    p2 = projective_module(biserial, "2", 0, (0, 10))
    assert linear_presentation_check(p2, 5)[0] is True


def test_linear_presentation_rejects_multi_degree(biserial):
    from koszul.modules import direct_sum
    m = direct_sum(biserial, (0, 6), [
        ("a", simple_module(biserial, "1", 0, (0, 6))),
        ("b", simple_module(biserial, "1", -1, (0, 6)))])
    with pytest.raises(ValueError, match="several degrees"):
        linear_presentation_check(m, 2)


def test_opposite_and_dual_certificates_agree(biserial, multiserial, kronecker):
    pol = TruncationPolicy(4, (-2, 8))
    for pres in (biserial, multiserial, kronecker):
        base = koszulity_certificate(pres, pol).is_koszul
        assert koszulity_certificate(pres.opposite(), pol).is_koszul == base
        assert koszulity_certificate(pres.quadratic_dual(), pol).is_koszul == base


# -- functors --------------------------------------------------------------------


def test_functor_on_simple_is_single_projective(multiserial):
    s = simple_module(multiserial, "2", 0, (-2, 10))
    cx = koszul_functor("right", s, (-2, 10))
    assert cx.positions() == [0]
    labels = functor_labels(cx)
    assert labels[0] == [{"vertex": "2", "shift": 0, "multiplicity": 1,
                          "key": repr((("2", 0),))}]


def test_f_of_injectives_resolve_dual_simples(multiserial):
    dual = multiserial.quadratic_dual()
    for a in multiserial.quiver.vertices:
        i_a = injective_module(multiserial, a, 0, (-8, 0))
        cx = koszul_functor("right", i_a, (-1, 9), multiserial, dual)
        assert homology_tables(cx) == {0: {(0, a): 1}}
        # linear: position -n summands are P^!_x<-n>
        labels = functor_labels(cx)
        for n, entries in labels.items():
            assert all(e["shift"] == n for e in entries)


def test_g_of_projectives_coresolve_dual_simples(multiserial):
    dual = multiserial.quadratic_dual()
    for a in multiserial.quiver.vertices:
        p_a = projective_module(multiserial, a, 0, (0, 8))
        cx = koszul_functor("left", p_a, (-9, 1), multiserial, dual)
        assert homology_tables(cx) == {0: {(0, a): 1}}


def test_functor_dimension_tables_transport(multiserial):
    # G(M)^n and F(M)^n have the same label multiplicities under P^! -> I^!
    rng = random.Random(31)
    m = random_module(rng, multiserial, (0, 6))
    dual = multiserial.quadratic_dual()
    f_cx = koszul_functor("right", m, (-2, 8), multiserial, dual)
    g_cx = koszul_functor("left", m, (-8, 2), multiserial, dual)
    lf = functor_labels(f_cx)
    lg = functor_labels(g_cx)
    for n in set(lf) | set(lg):
        key = lambda e: (e["vertex"], e["shift"], e["multiplicity"])
        assert sorted(map(key, lf.get(n, []))) == sorted(map(key, lg.get(n, [])))


@pytest.mark.parametrize("side", ["right", "left"])
def test_functor_labels_build_no_module(multiserial, monkeypatch, side):
    # a summand is P_x<j> or I_x<j> tensored with the multiplicity, a sum of
    # that many copies, so no module is built to divide dimensions; the tensor
    # is flattened to one block, so that the multiplicities stay above 1
    import koszul.engine as engine
    import koszul.modules as modules
    dual = multiserial.quadratic_dual()
    window = (-2, 8) if side == "right" else (-8, 2)
    t = random_module(random.Random(31), multiserial, (0, 6)).tensor(2)
    m = GradedModule(t.pres, t.window, t.dims, t.actions)
    cx = koszul_functor(side, m, window, multiserial, dual)
    build = projective_module if side == "right" else injective_module
    want = {n: [sum(sub.dims.values()) // sum(build(dual, *key[-1], window).dims.values())
                for key, sub in blocks_of(cx.module(n))] for n in cx.positions()}
    assert any(mult > 1 for mults in want.values() for mult in mults)
    calls = []
    for mod in (engine, modules):
        for name in ("projective_module", "injective_module"):
            real = getattr(mod, name)
            monkeypatch.setattr(mod, name, lambda *args, _real=real, **kwargs:
                                calls.append(args) or _real(*args, **kwargs))
    labels = functor_labels(cx)
    assert not calls
    assert {n: [e["multiplicity"] for e in entries] for n, entries in labels.items()} == want


KZ_NAMES = [p.name for p in sorted(presentations_dir().glob("*.kz"))]


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["QQ", "GF(3)"])
@pytest.mark.parametrize("name", KZ_NAMES)
def test_functor_labels_match_the_dimension_reference(name, field):
    # the multiplicities read off the blocks equal those found by dividing a
    # piece of each summand by that piece of P_x<j> or I_x<j>
    pres = parse_presentation((presentations_dir() / name).read_text(), field, 10)
    dual = pres.quadratic_dual()
    policy = TruncationPolicy(3, (-2, 6))
    window = policy.degree_window
    for a in pres.quiver.vertices:
        for build in (simple_module, projective_module, injective_module):
            m = build(pres, a, 0, window)
            for side, fwindow in (("right", (-2, 8)), ("left", (-8, 2))):
                cx = koszul_functor(side, m, fwindow, pres, dual)
                assert functor_labels(cx) == functor_labels_by_dimension(cx, side, dual)
            res = projective_resolution(m, policy)
            assert res.labels == functor_labels_by_dimension(res.complex, "right", pres)
            res = injective_coresolution(m, policy)
            assert res.labels == functor_labels_by_dimension(res.complex, "left", pres)


def test_functor_labels_call_no_dim_piece(multiserial, monkeypatch):
    m = random_module(random.Random(31), multiserial, (0, 6))
    cxs = [koszul_functor("right", m, (-2, 8)), koszul_functor("left", m, (-8, 2)),
           projective_resolution(m, POLICY).complex]
    monkeypatch.setattr(type(multiserial), "dim_piece", lambda *args: pytest.fail("dim_piece"))
    assert all(functor_labels(cx) for cx in cxs)


def test_functor_map_is_chain_map_and_functorial(multiserial):
    rng = random.Random(13)
    m = random_module(rng, multiserial, (0, 5))
    n = random_module(rng, multiserial, (0, 5))
    f = random_morphism(rng, m, n)
    for side, window in (("right", (-2, 8)), ("left", (-8, 2))):
        cm = koszul_functor_map(side, f, window)
        cm.validate()


def test_functor_rejects_repeated_block_keys(multiserial):
    # a block of F(N)^j is keyed by its parent's key + ((x, j),), so two blocks
    # of N under one key would be read as one: F(M (+) M) came out as F(M)
    w = (-2, 8)
    m = projective_module(multiserial, "1", 0, (0, 4))
    size = lambda cx: {j: sum(t.dims.values()) for j, t in cx.modules.items()}
    keyed = direct_sum(multiserial, m.window, [(("a",), m), (("b",), m)])
    assert size(koszul_functor("right", keyed, w)) == \
        {j: 2 * d for j, d in size(koszul_functor("right", m, w)).items()}
    with pytest.raises(ValueError, match="distinct keys"):
        koszul_functor("right", direct_sum(multiserial, m.window, [((), m), ((), m)]), w)


@pytest.mark.parametrize("side,window", [("right", (-2, 8)), ("left", (-8, 2))])
def test_functor_is_additive_on_keyed_sums(multiserial, side, window):
    # F(M (+) N), keyed "m"/"n", has the blocks of F(M) and F(N) under those
    # key prefixes and block-diagonal differentials; the image of f (+) g
    # slices into F(f) and F(g)
    rng = random.Random(9)
    m, n, n2 = (random_module(rng, multiserial, (0, 4)) for _ in range(3))
    f, g = random_morphism(rng, m, m), random_morphism(rng, n, n2)
    assert not f.is_zero() and not g.is_zero()

    def keyed(a, b):
        return direct_sum(multiserial, (0, 4), [(("m",), a), (("n",), b)])

    fg = block_morphism(keyed(m, n), keyed(m, n2), [m, n2], [m, n],
                        {(0, 0): f.mats, (1, 1): g.mats})
    image = koszul_functor_map(side, fg, window)
    ff, gg = koszul_functor_map(side, f, window), koszul_functor_map(side, g, window)
    for cx, a, b in ((image.source, ff.source, gg.source), (image.target, ff.target, gg.target)):
        assert cx.positions() == sorted(set(a.positions()) | set(b.positions()))
        for j in cx.positions():
            want = [(("m",) + k, s) for k, s in blocks_of(a.module(j))] + \
                   [(("n",) + k, s) for k, s in blocks_of(b.module(j))]
            got = blocks_of(cx.module(j))
            assert [k for k, _ in got] == [k for k, _ in want]
            assert all(s.same_content(t) for (_, s), (_, t) in zip(got, want))
            diag = block_morphism(cx.module(j), cx.module(j + 1),
                                  [a.module(j + 1), b.module(j + 1)], [a.module(j), b.module(j)],
                                  {(0, 0): a.diff(j).mats, (1, 1): b.diff(j).mats})
            assert cx.diff(j).same_content(diag)
    assert image.parts
    for j in image.source.positions():
        diag = block_morphism(image.source.module(j), image.target.module(j),
                              [ff.target.module(j), gg.target.module(j)],
                              [ff.source.module(j), gg.source.module(j)],
                              {(0, 0): ff.part(j).mats, (1, 1): gg.part(j).mats})
        assert image.part(j).same_content(diag)


def test_extension_concentrated_complex_equals_functor(multiserial):
    m = projective_module(multiserial, "4", 0, (0, 8))
    x = single_module_complex(m)
    lhs = extend_functor("left", x, (-8, 2))
    rhs = koszul_functor("left", m, (-8, 2))
    assert lhs.canonical_form().same_content(rhs.canonical_form())


def _two_term_complex(rng, pres, window):
    from koszul.complexes import ChainMap, ComplexOfModules
    m = random_module(rng, pres, (0, 4))
    n = random_module(rng, pres, (0, 4))
    f = random_morphism(rng, m, n)
    return ComplexOfModules(pres, window, {0: m, 1: n}, {0: f} if not f.is_zero() else {})


@pytest.mark.parametrize("seed", range(5))
def test_functor_laws_on_random_two_term_complexes(multiserial, seed):
    from koszul.complexes import ChainMap
    rng = random.Random(700 + seed)
    w = (-2, 10)
    wd = (-8, 8)
    pres = multiserial
    dual = pres.quadratic_dual()
    x = _two_term_complex(rng, pres, w)
    # shift law
    assert extend_functor("right", x.shift(1), w).canonical_form().same_content(
        extend_functor("right", x, w).shift(1).canonical_form())
    # cone law on a random chain map between relabeled complexes
    xa = relabel_positions(x, "A")
    y = _two_term_complex(rng, pres, w)
    yb = relabel_positions(y, "B")
    parts = {}
    for pos in (0, 1):
        g = random_morphism(rng, x.module(pos), y.module(pos))
        parts[pos] = GradedMorphism(xa.module(pos), yb.module(pos), g.mats)
    # enforce the chain condition by a linear correction: take f = (h, h d) form
    # simplest valid chain map: f^1 = g d for arbitrary g at position 0 is not
    # generally a chain map, so use the homotopy-shaped one f = (g, d' g)
    g0 = parts[0]
    f1 = GradedMorphism(xa.module(1), yb.module(1), {})
    if 0 in x.diffs and 0 in y.diffs:
        # f^0 = g0, f^1 must satisfy d' g0 = f^1 d; use f = (g0, 0) only if d' g0 = 0
        comp = yb.diff(0).compose(g0)
        if comp.is_zero():
            fmap = ChainMap(xa, yb, {0: g0})
        else:
            fmap = ChainMap(xa, yb, {})
    else:
        fmap = ChainMap(xa, yb, {0: g0})
    fmap.validate()
    lhs = extend_functor("right", mapping_cone(fmap), w).canonical_form()
    rhs = mapping_cone(extend_functor_map("right", fmap, w)).canonical_form()
    assert lhs.same_content(rhs)
    # composition law
    cells, vert, horiz, cols = {}, {}, {}, {}
    for i in x.positions():
        cx = extend_functor("left", koszul_functor("right", x.module(i), wd, pres, dual),
                            w, dual, pres)
        cols[i] = cx
        for j, m in cx.modules.items():
            cells[(i, j)] = m
        for j, d in cx.diffs.items():
            vert[(i, j)] = d if i % 2 == 0 else d.negate()
    for i in x.positions():
        if i + 1 in cols:
            inner = koszul_functor_map("right", x.diff(i), wd, pres, dual)
            cmap = extend_functor_map("left", inner, w, dual, pres)
            for j in set(cmap.source.modules) | set(cmap.target.modules):
                part = cmap.part(j)
                if not part.is_zero():
                    horiz[(i, j)] = part
    from koszul.complexes import DoubleComplex
    lhs2 = total_complex(DoubleComplex(pres, w, cells, vert, horiz, validate=False))
    rhs2 = extend_functor("left", extend_functor("right", x, wd, pres, dual), w, dual, pres)
    assert lhs2.canonical_form().same_content(rhs2.canonical_form())


def test_twist_shift_law(multiserial):
    w = (-2, 10)
    dual = multiserial.quadratic_dual()
    p1 = projective_module(multiserial, "1", 0, w)
    for s in (1, 2, 3):
        fm = koszul_functor("right", p1, w, multiserial, dual)
        lhs = fm.shift(s)
        rhs = koszul_functor("right", p1.shift(s), (w[0] + s, w[1] + s),
                             multiserial, dual)
        rhs = grading_shift(rhs, s)
        rhs = twist(rhs) if s % 2 else rhs
        assert lhs.canonical_form().same_content(rhs.canonical_form())


# -- eta, zeta and resolutions -------------------------------------------------------


def test_eta_for_simples_matches_koszul_complex_dims(multiserial):
    for a in multiserial.quiver.vertices:
        s = simple_module(multiserial, a, 0, POLICY.degree_window)
        res = eta_augmentation(s, POLICY)
        assert res.quasi_iso and res.h0_isomorphism
        kos = local_koszul_complex(multiserial, a, POLICY, augmented=False)
        for n in range(0, POLICY.max_span):
            assert res.complex.module(-n).dims == kos.module(-n).dims


def test_eta_for_projectives(multiserial):
    p = projective_module(multiserial, "2", 0, POLICY.degree_window)
    res = eta_augmentation(p, POLICY)
    assert res.quasi_iso and res.h0_isomorphism


def test_eta_zeta_for_random_modules_rz():
    quiver = random_acyclic_quiver(random.Random(8), 3, 3)
    rz = radical_square_zero(quiver, QQ, 10)
    rng = random.Random(9)
    for _ in range(3):
        m = random_module(rng, rz, (0, 6))
        if m.is_zero():
            continue
        res = eta_augmentation(m, POLICY)
        assert res.quasi_iso and res.h0_isomorphism
        cor = zeta_coaugmentation(m, POLICY)
        assert cor.quasi_iso and cor.h0_isomorphism


def test_zeta_iso_for_sink_simple(multiserial):
    s = simple_module(multiserial, "3", 0, POLICY.degree_window)
    cor = zeta_coaugmentation(s, POLICY)
    assert cor.complex.positions() == [0, 1, 2]
    assert cor.quasi_iso and cor.h0_isomorphism
    # socle inclusion: the degree-zero piece maps isomorphically
    assert cor.map.part(0).piece(0, "3").rank() == 1


def test_eta_zeta_naturality(multiserial):
    pres = multiserial
    dual = pres.quadratic_dual()
    pol = TruncationPolicy(4, (-2, 8))
    # the projective cover of a random module is a canonical nonzero morphism
    rng = random.Random(23)
    n = random_module(rng, pres, (0, 4))
    while n.is_zero():
        n = random_module(rng, pres, (0, 4))
    cover, f0, _ = projective_cover(n, (0, 4))
    from koszul.modules import GradedModule
    m = GradedModule(pres, cover.window, cover.dims, cover.actions)  # forget labels
    f = GradedMorphism(m, n, f0.mats)
    assert not f.is_zero()
    rm = eta_augmentation(m, pol)
    rn = eta_augmentation(n, pol)
    mlo_m, mhi_m = 0, 4
    w_dual = (-pol.max_span - 1 - 4, 0)
    inner = koszul_functor_map("left", f, w_dual, pres, dual)
    outer = extend_functor_map("right", inner, pol.degree_window, dual, pres)
    # naturality: eta_n . (F^C G)(f) = f . eta_m at position 0
    lhs = rn.map.part(0).compose(outer.part(0))
    rhs = GradedMorphism(rm.complex.module(0), n,
                         f.compose(rm.map.part(0)).mats)
    assert lhs.same_content(rhs)
    # zeta naturality: (G^C F)(f) . zeta_m = zeta_n . f
    zm = zeta_coaugmentation(m, pol)
    zn = zeta_coaugmentation(n, pol)
    w_dual_f = (-4, pol.max_span + 1)
    inner_f = koszul_functor_map("right", f, w_dual_f, pres, dual)
    outer_f = extend_functor_map("left", inner_f, pol.degree_window, dual, pres)
    lhs_z = outer_f.part(0).compose(zm.map.part(0))
    rhs_z = zn.map.part(0).compose(f)
    assert lhs_z.same_content(rhs_z)


# sha256 prefixes of the JSON of eta^0, zeta^0 and the projective cover's f
# (each over all cases in order) under TruncationPolicy(4, (-2, 8)) and degree
# cap 10: the cases are the simple, projective and injective module at every
# vertex, then three random_module draws on Random(name) in window (0, 4).
# The complexes' differentials and labels are pinned elsewhere; these pin the
# matrices of the (co)augmentation maps, which any other valid choice of
# eta^0 or zeta^0 would also pass validate() and the quasi-isomorphism checks
# with.  Recorded before the three maps were built by one evaluation map.
PINNED_AUGMENTATION_MAPS = {
    ("biserial", None): ("2f1e525d38130697", "f481cc14d150cdf7", "4831fbd07a3af643"),
    ("biserial", 101): ("904ac8cd57e5cec2", "6accd16c3a8241f1", "5c450753728675b9"),
    ("multiserial", None): ("8caa3045675b25d7", "9e90ea176b18bc97", "cbf36e29bc656c2e"),
    ("multiserial", 101): ("3f6cc1312fb67518", "3f929b060498b964", "1c70bb7de7536ff9"),
    ("kronecker", None): ("3b7107899af5860c", "b14a05b9f4894cb8", "9ef197b5d16556ff"),
    ("kronecker", 101): ("868999867e99ceb8", "3bda5d8f50f5abc4", "9ef197b5d16556ff"),
    ("empty", None): ("827920f66140b296", "827920f66140b296", "827920f66140b296"),
    ("empty", 101): ("827920f66140b296", "827920f66140b296", "827920f66140b296"),
}


@pytest.mark.parametrize("name,p", PINNED_AUGMENTATION_MAPS,
                         ids=[f"{n}-{'QQ' if p is None else f'GF({p})'}"
                              for n, p in PINNED_AUGMENTATION_MAPS])
def test_augmentation_map_bytes_pinned(name, p):
    field = QQ if p is None else GF(p)
    pres = parse_presentation((presentations_dir() / f"{name}.kz").read_text(), field, 10)
    policy = TruncationPolicy(4, (-2, 8))
    cases = [(f"{kind}:{a}", standard_module(pres, kind, a, 0, policy.degree_window))
             for kind in ("simple", "projective", "injective") for a in pres.quiver.vertices]
    rng = random.Random(name)
    cases += [(f"random:{k}", random_module(rng, pres, (0, 4))) for k in range(3)]
    maps = {"eta": {}, "zeta": {}, "cover": {}}
    for case, m in cases:
        maps["eta"][case] = morphism_json(eta_augmentation(m, policy).map.part(0))
        maps["zeta"][case] = morphism_json(zeta_coaugmentation(m, policy).map.part(0))
        maps["cover"][case] = morphism_json(projective_cover(m)[1])
    digests = tuple(hashlib.sha256(dumps(maps[k]).encode()).hexdigest()[:16]
                    for k in ("eta", "zeta", "cover"))
    assert digests == PINNED_AUGMENTATION_MAPS[(name, p)]


def test_projective_resolution_betti_of_simples(multiserial):
    dual = multiserial.quadratic_dual()
    for a in multiserial.quiver.vertices:
        s = simple_module(multiserial, a, 0, POLICY.degree_window)
        res = projective_resolution(s, POLICY)
        betti = res.betti()
        for n in range(0, POLICY.max_span + 1):
            expected = {}
            for x in multiserial.quiver.vertices:
                d = dual.dim_piece(n, x, a)
                if d:
                    expected[(x, -n)] = d
            assert betti.get(-n, {}) == expected


def test_resolution_of_radical(multiserial):
    s = simple_module(multiserial, "1", 0, POLICY.degree_window)
    cover, f, _ = projective_cover(s, POLICY.degree_window)
    rad, _ = kernel_module(f)
    res = projective_resolution(rad, POLICY)
    assert res.quasi_iso and res.h0_isomorphism
    cone = mapping_cone(res.map)
    lo, hi = res.safe_positions
    for n in range(lo, hi + 1):
        assert not homology_at(cone, n)


def test_injective_coresolution_terms_are_labeled_injectives(multiserial):
    s = simple_module(multiserial, "4", 0, POLICY.degree_window)
    cor = injective_coresolution(s, POLICY)
    assert cor.quasi_iso
    for n, entries in cor.labels.items():
        assert all(e["shift"] == n for e in entries)  # cogenerated in degree -n


# -- Ext tables ----------------------------------------------------------------------


def test_ext_table_degree_zero_is_kronecker_delta(multiserial):
    for a in multiserial.quiver.vertices:
        for b in multiserial.quiver.vertices:
            assert ext_table(multiserial, a, b, 0)[0] == (1 if a == b else 0)


def test_ext_table_path_algebra(kronecker):
    table = ext_table(kronecker, "1", "2", 4)
    assert table == {0: 0, 1: 2, 2: 0, 3: 0, 4: 0}
    assert ext_table(kronecker, "1", "1", 3) == {0: 1, 1: 0, 2: 0, 3: 0}


def test_extension_conjecture_instances(multiserial):
    for a in ("1", "4"):
        report = extension_conjecture_check(multiserial, a, 8)
        assert report["has_loop"] and report["holds"]
        assert all(report["table"][n] >= 1 for n in range(1, 9))


def test_pairing_table_corpus(biserial, multiserial, kronecker):
    for pres in (biserial, multiserial, kronecker):
        ok, rows = pairing_table(pres, 6)
        assert ok


def test_functor_double_complex_column_signs(multiserial):
    # the i-th column of the functor-extension grid carries (-1)^i times the
    # functor differential
    from koszul.engine import functor_double_complex
    rng = random.Random(41)
    m = random_module(rng, multiserial, (0, 3))
    n = random_module(rng, multiserial, (0, 3))
    f = random_morphism(rng, m, n)
    from koszul.complexes import ComplexOfModules
    x = ComplexOfModules(multiserial, (-2, 8), {0: m, 1: n},
                         {0: f} if not f.is_zero() else {})
    dc = functor_double_complex("right", x, (-2, 8))
    for i in x.positions():
        col = koszul_functor("right", x.module(i), (-2, 8))
        for j, d in col.diffs.items():
            got = dc.vert.get((i, j))
            if got is None:
                assert d.is_zero()
            elif i % 2 == 0:
                assert got.same_content(d)
            else:
                assert got.same_content(d.negate())


def test_koszul_complex_kernel_avoids_generating_degree(biserial, multiserial, kronecker):
    # Ker of the differential out of position -n vanishes in the generating
    # internal degree n (so it sits inside the radical of the term)
    for pres in (biserial, multiserial, kronecker):
        pol = TruncationPolicy(4, (0, 8))
        for a in pres.quiver.vertices:
            cx = local_koszul_complex(pres, a, pol, augmented=False)
            for n in range(1, pol.max_span + 1):
                d = cx.diff(-n)
                m = cx.module(-n)
                for x in pres.quiver.vertices:
                    dim = m.dim(n, x)
                    if dim:
                        assert d.piece(n, x).rank() == dim, (a, n, x)


def test_zeta_iso_for_source_simple(kronecker):
    # vertex 1 has no incoming arrows, so its simple is injective and the
    # coaugmentation is an isomorphism onto position 0
    s = simple_module(kronecker, "1", 0, POLICY.degree_window)
    cor = zeta_coaugmentation(s, POLICY)
    assert cor.complex.positions() == [0]
    assert cor.map.part(0).piece(0, "1").rank() == 1
    assert cor.quasi_iso and cor.h0_isomorphism


def test_functor_builders_build_each_column_once(multiserial, monkeypatch):
    # the Koszul functor image of each position is built once and reused for
    # the horizontal maps, not rebuilt by koszul_functor_map
    import koszul.engine as engine
    from koszul.complexes import ChainMap, ComplexOfModules
    from koszul.modules import identity_morphism
    rng = random.Random(5)
    m = random_module(rng, multiserial, (0, 3))
    n = random_module(rng, multiserial, (0, 3))
    f = random_morphism(rng, m, n)
    assert not f.is_zero()
    w = (-2, 8)
    x = ComplexOfModules(multiserial, w, {0: m, 1: n}, {0: f})
    xa, xb = relabel_positions(x, "A"), relabel_positions(x, "B")
    g = ChainMap(xa, xb, {p: GradedMorphism(xa.module(p), xb.module(p),
                                            identity_morphism(x.module(p)).mats)
                          for p in x.modules}).validate()
    calls = []
    real = engine.koszul_functor

    def counting(side, module, *args, **kwargs):
        calls.append(module)
        return real(side, module, *args, **kwargs)

    monkeypatch.setattr(engine, "koszul_functor", counting)
    engine.functor_double_complex("right", x, w)
    assert len(calls) == len(x.positions())
    calls.clear()
    engine.extend_functor_map("right", g, w)
    assert len(calls) == len(g.source.positions()) + len(g.target.positions())


# -- the H^0 check ----------------------------------------------------------------------


def _h0_reference(f: ChainMap) -> bool:
    """H^0(f) is an isomorphism, decided on the homology modules: equal
    dimensions, and the images of the representatives of the source classes
    independent modulo the target boundaries."""
    h_src, reps = homology_module(f.source, 0)
    h_tgt, _ = homology_module(f.target, 0)
    if h_src.dims != h_tgt.dims:
        return False
    field = h_src.pres.field
    for (i, x) in h_src.dims:
        sub = f.target.diff(-1).piece(i, x).column_space()
        for row in reps[(i, x)]:
            count = sub.dim
            vec = f.part(0).piece(i, x).apply(row)
            sub = sub.add(Subspace.from_vectors(field, len(vec), [vec]))
            if sub.dim == count:
                return False
    return True


def _single_map(f: GradedMorphism) -> ChainMap:
    return ChainMap(single_module_complex(f.source), single_module_complex(f.target),
                    {0: f}).validate()


def _same_verdicts(f: ChainMap, safe: tuple) -> bool:
    """The acyclicity, H^0 and homology tables of f's augmented complex equal
    those of its mapping cone; returns the H^0 verdict."""
    aug, cone = _augmented_complex(f), mapping_cone(f)
    span = range(safe[0], safe[1] + 1)
    assert is_acyclic(aug, span) == is_acyclic(cone, span)
    assert homology_tables(aug) == homology_tables(cone)
    verdict = _h0_isomorphism(aug)
    assert verdict == _h0_isomorphism(cone)
    return verdict


def test_h0_check_rejects_zero_maps(multiserial):
    s = simple_module(multiserial, "1", 0, POLICY.degree_window)
    cx = single_module_complex(s)
    zero = ComplexOfModules(multiserial, POLICY.degree_window, {}, {})
    for f in (ChainMap(cx, cx, {}), ChainMap(cx, zero, {}), ChainMap(zero, cx, {})):
        assert not _h0_isomorphism(mapping_cone(f.validate()))
        assert not _h0_reference(f)
    assert _h0_isomorphism(mapping_cone(_single_map(identity_morphism(s))))


def test_h0_check_rejects_endomorphisms_with_a_kernel(multiserial):
    # on M + M, hom_basis holds endomorphisms that kill one summand
    m = random_module(random.Random(4), multiserial, (0, 4))
    mm = GradedModule(multiserial, m.window, {k: 2 * d for k, d in m.dims.items()},
                      {k: Matrix.kron(Matrix.identity(QQ, 2), a) for k, a in m.actions.items()})
    kinds = set()
    for f in hom_basis(mm, mm):
        injective = all(f.piece(*k).rank() == d for k, d in mm.dims.items())
        assert _same_verdicts(_single_map(f), (-1, 0)) == injective
        kinds.add(injective)
    assert False in kinds
    assert _h0_isomorphism(mapping_cone(_single_map(identity_morphism(mm))))


def test_h0_check_accepts_eta_and_zeta(multiserial):
    m = random_module(random.Random(6), multiserial, (0, 4))
    for res in (eta_augmentation(m, POLICY), zeta_coaugmentation(m, POLICY)):
        assert res.h0_isomorphism and _h0_isomorphism(mapping_cone(res.map))
        assert _h0_reference(res.map)
        zero = ChainMap(res.map.source, res.map.target, {})
        assert not _h0_isomorphism(mapping_cone(zero)) and not _h0_reference(zero)


def test_h0_check_matches_homology_modules_on_random_maps(multiserial):
    # seeded morphisms between (and endomorphisms of) random modules, as maps
    # of single-module complexes; the endomorphisms are often isomorphisms
    verdicts = []
    for seed in range(36):
        rng = random.Random(seed)
        m = random_module(rng, multiserial, (0, 4))
        n = m if seed % 2 else random_module(rng, multiserial, (0, 4))
        f = _single_map(random_morphism(rng, m, n))
        verdicts.append(_h0_isomorphism(mapping_cone(f)))
        assert verdicts[-1] == _h0_reference(f), seed
    assert True in verdicts and False in verdicts
    # eta and zeta of random modules over random presentations, their zero
    # maps, and their composites with a random endomorphism of M (which may
    # have a kernel), judged by the cone and by homology modules
    policy = TruncationPolicy(3, (-2, 6))
    for field in (QQ, GF(3)):
        verdicts, drawn = {"eta": set(), "zeta": set()}, 0
        for seed in range(12):
            rng = random.Random(seed)
            pres = random_presentation(rng, random_quiver(rng, 3, 4), field, 8)
            m = random_module(rng, pres, (0, 3))
            if m.is_zero():
                continue
            drawn += 1
            g = random_morphism(rng, m, m)
            for kind, build in (("eta", eta_augmentation), ("zeta", zeta_coaugmentation)):
                res = build(m, policy)
                f0 = res.map.part(0)
                bent = g.compose(f0) if kind == "eta" else f0.compose(g)
                for f in (res.map, ChainMap(res.map.source, res.map.target, {}),
                          ChainMap(res.map.source, res.map.target, {0: bent}).validate()):
                    verdict = _h0_isomorphism(mapping_cone(f))
                    assert verdict == _h0_reference(f), (field, seed, kind)
                    verdicts[kind].add(verdict)
                assert res.h0_isomorphism == _h0_isomorphism(mapping_cone(res.map))
        assert drawn >= 8
        assert verdicts == {"eta": {True, False}, "zeta": {True, False}}


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["QQ", "GF(3)"])
@pytest.mark.parametrize("name", ["multiserial", "kronecker", "polynomial"])
def test_augmented_complex_verdicts_equal_mapping_cone_verdicts(name, field):
    pres = parse_presentation((presentations_dir() / f"{name}.kz").read_text(), field, 8)
    policy = TruncationPolicy(3, (-2, 6))
    verdicts = set()
    for seed in range(4):
        rng = random.Random(seed)
        m = random_module(rng, pres, (0, 3))
        g = random_morphism(rng, m, m)
        for kind, build in (("eta", eta_augmentation), ("zeta", zeta_coaugmentation)):
            res = build(m, policy)
            assert (res.quasi_iso, res.h0_isomorphism) == (True, True)
            f0 = res.map.part(0)
            bent = g.compose(f0) if kind == "eta" else f0.compose(g)
            for f in (res.map, ChainMap(res.map.source, res.map.target, {}),
                      ChainMap(res.map.source, res.map.target, {0: bent}).validate(),
                      ChainMap(res.map.source, res.map.target, {0: f0.scale(2)}).validate()):
                verdicts.add(_same_verdicts(f, res.safe_positions))
        # maps of single modules: a random morphism, the zero maps, and M -> 0, 0 -> M
        cx, zero = single_module_complex(m), ComplexOfModules(pres, m.window, {}, {})
        for f in (_single_map(g), _single_map(identity_morphism(m)), ChainMap(cx, cx, {}),
                  ChainMap(cx, zero, {}), ChainMap(zero, cx, {})):
            verdicts.add(_same_verdicts(f, (-1, 0)))
    assert verdicts == {True, False}


def test_augmented_complex_refuses_colliding_positions(multiserial):
    rng = random.Random(5)
    m = random_module(rng, multiserial, (0, 3))
    n = random_module(rng, multiserial, (0, 3))
    f = random_morphism(rng, m, n)
    assert not f.is_zero()
    x = ComplexOfModules(multiserial, (-2, 8), {0: m, 1: n}, {0: f})
    # X^1 and Y^0 would both sit at position 0
    with pytest.raises(ValueError, match="both an X and a Y term"):
        _augmented_complex(ChainMap(x, single_module_complex(m), {}))
    # neither side is a single module at position 0
    with pytest.raises(ValueError, match="single module at position 0"):
        _augmented_complex(ChainMap(x, x, {}))
    shifted = ComplexOfModules(multiserial, (-2, 8), {-1: m}, {})
    with pytest.raises(ValueError, match="single module at position 0"):
        _augmented_complex(ChainMap(x, shifted, {}))
    # a zero side is a single module at position 0; X^0 then sits at -1
    zero = ComplexOfModules(multiserial, (-2, 8), {}, {})
    aug = _augmented_complex(ChainMap(x, zero, {}))
    assert aug.modules == {-1: m, 0: n} and aug.diffs == {-1: f}


def test_homology_and_h0_check_build_no_zero_object(multiserial, monkeypatch):
    # a missing position, differential or part is read as zero, not built as one
    import koszul.complexes as complexes
    w = POLICY.degree_window
    results = [build(m, POLICY) for m in (simple_module(multiserial, "1", 0, w),
                                          random_module(random.Random(5), multiserial, (0, 4)))
               for build in (projective_resolution, injective_coresolution)]
    maps = [res.map for res in results]
    maps += [ChainMap(f.source, f.target, {}) for f in maps]
    cxs = [cx for f in maps[:len(results)] for cx in (f.source, f.target, mapping_cone(f))]
    positions = range(-POLICY.max_span - 2, 3)
    want = [{k: d for k, d in homology_module(cx, n)[0].dims.items() if d}
            for cx in cxs for n in positions]
    want_h0 = [_h0_reference(f) for f in maps]
    assert True in want_h0 and False in want_h0
    calls = []
    for name in ("zero_module", "zero_morphism"):
        real = getattr(complexes, name)
        monkeypatch.setattr(complexes, name, lambda *args, _real=real, _name=name:
                            calls.append(_name) or _real(*args))
    # the cones and augmented complexes are built while counting: both read
    # only the stored positions, differentials and parts
    cones = [mapping_cone(f) for f in maps]
    augs = [_augmented_complex(f) for f in maps]
    assert [homology_at(cx, n) for cx in cxs for n in positions] == want
    assert [_h0_isomorphism(cone) for cone in cones] == want_h0
    assert [_h0_isomorphism(aug) for aug in augs] == want_h0
    assert all(f.validate() is f for f in maps)
    assert all(is_acyclic(cone, range(lo, hi + 1)) for cone, (lo, hi) in
               zip(cxs[2::3], (res.safe_positions for res in results)))
    assert not calls
    cxs[0].diff(max(positions))             # the counter sees a build
    assert calls


def test_eta_zeta_and_certificate_build_no_zero_object(multiserial, monkeypatch, capsys):
    # the augmented complex holds the map's stored positions, differentials
    # and parts, and the certificate reads stored positions: neither
    # synthesizes a zero module or morphism
    import koszul.complexes as complexes
    from koszul.cli import main
    policy = TruncationPolicy(5, (-2, 9))
    inputs = [simple_module(multiserial, a, 0, policy.degree_window)
              for a in multiserial.quiver.vertices]
    rng = random.Random("zero objects")
    # as in the resolve workload, a zero draw becomes S_1: eta and zeta of the
    # zero module do build one, their (zero) position 0
    inputs += [m if not m.is_zero() else inputs[0]
               for m in (random_module(rng, multiserial, (0, 4)) for _ in range(20))]
    calls = []
    for name in ("zero_module", "zero_morphism"):
        real = getattr(complexes, name)
        monkeypatch.setattr(complexes, name, lambda *args, _real=real, _name=name:
                            calls.append(_name) or _real(*args))
    results = [build(m, policy) for m in inputs
               for build in (eta_augmentation, zeta_coaugmentation)]
    assert all(res.quasi_iso and res.h0_isomorphism for res in results)
    assert not calls
    assert main(["check-koszul", str(presentations_dir() / "multiserial.kz"), "-N", "8",
                 "--window", "-2", "14"]) == 0
    assert "verdict: KOSZUL\n" in capsys.readouterr().out
    assert not calls
    results[0].complex.module(1)            # the counter sees a build
    assert calls == ["zero_module"]


def test_resolutions_build_no_block_diagonal_action(multiserial, monkeypatch):
    # a direct sum builds its block-diagonal actions only when they are read,
    # and neither resolutions (with their H^0 check) nor the certificate reads them
    import koszul.modules as modules
    w = POLICY.degree_window
    inputs = [simple_module(multiserial, "1", 0, w), projective_module(multiserial, "2", 0, w),
              random_module(random.Random(2), multiserial, (0, 4))]
    calls = []
    real = modules._block_diagonal_actions
    monkeypatch.setattr(modules, "_block_diagonal_actions",
                        lambda *args: calls.append(args) or real(*args))
    results = [build(m, POLICY) for m in inputs
               for build in (projective_resolution, injective_coresolution)]
    assert koszulity_certificate(multiserial, POLICY).is_koszul
    assert not calls
    assert all(res.quasi_iso and res.h0_isomorphism for res in results)
    results[0].complex.module(-1).actions        # the counter sees a read
    assert calls


def _counting_eliminations(monkeypatch):
    """Count `_rref_sparse` calls per row list; the lists are kept alive, so
    ids are not reused."""
    import koszul.linalg as linalg
    seen = {}
    real = linalg._rref_sparse

    def counting(field, rows):
        seen.setdefault(id(rows), [rows, 0])[1] += 1
        return real(field, rows)

    monkeypatch.setattr(linalg, "_rref_sparse", counting)
    return seen, real


def _assert_ranked_once(seen, real, complexes):
    pieces = [m for cx in complexes for d in cx.diffs.values() for m in d.mats.values()]
    ranked = [m for m in pieces if id(m.sparse_rows) in seen]
    assert ranked
    for m in ranked:
        assert seen[id(m.sparse_rows)][1] == 1
        assert m.rank() == len(real(m.field, m.sparse_rows)[1])


def test_mapping_cone_acyclicity_ranks_each_piece_once(multiserial, monkeypatch):
    # homology_at(n) and homology_at(n+1) both rank the pieces of d^n; the
    # rank is kept on the matrix, so each stored piece is eliminated once
    w = POLICY.degree_window
    maps = [build(m, POLICY).map for m in (simple_module(multiserial, "1", 0, w),
                                           random_module(random.Random(2), multiserial, (0, 4)))
            for build in (projective_resolution, injective_coresolution)]
    cones = [mapping_cone(f) for f in maps]
    seen, real = _counting_eliminations(monkeypatch)
    assert all(is_acyclic(cone, range(-2, 2)) for cone in cones)
    count = sum(n for _, n in seen.values())
    assert all(is_acyclic(cone, range(-2, 2)) for cone in cones)
    # the H^0 verdict reads the ranks is_acyclic kept on the cone's pieces
    assert all(_h0_isomorphism(cone) for cone in cones)
    assert sum(n for _, n in seen.values()) == count
    _assert_ranked_once(seen, real, cones)


def test_eta_zeta_verdicts_rank_the_resolutions_own_pieces_once(multiserial, monkeypatch):
    # the verdicts are read off the augmented complex, which holds the
    # (co)resolution's own differentials: each piece is eliminated once,
    # and its rank is kept on that matrix, not on a negated copy
    w = POLICY.degree_window
    seen, real = _counting_eliminations(monkeypatch)
    for m in (simple_module(multiserial, "1", 0, w),
              random_module(random.Random(2), multiserial, (0, 4))):
        for kind, build in (("eta", eta_augmentation), ("zeta", zeta_coaugmentation)):
            res = build(m, POLICY)
            assert res.quasi_iso and res.h0_isomorphism
            _assert_ranked_once(seen, real, [res.complex])
            lo, hi = res.safe_positions
            # augmented position n holds X^(n+1) for eta and Y^n for zeta, so
            # H^lo ... H^hi read X's d^lo ... d^-1, or Y's d^0 ... d^hi
            ranked = range(lo, 0) if kind == "eta" else range(0, hi + 1)
            pieces = [mat for n in ranked if n in res.complex.diffs
                      for mat in res.complex.diffs[n].mats.values()]
            assert pieces and all(mat._rank is not None for mat in pieces)
            assert all(seen[id(mat.sparse_rows)][1] == 1 for mat in pieces)
            assert all(seen[id(mat.sparse_rows)][1] == 1 for mat in res.map.part(0).mats.values())


def test_certificate_ranks_each_piece_once(multiserial, monkeypatch):
    # consecutive positions share a differential: it is eliminated once
    import koszul.engine as engine
    built = []
    real_local = engine.local_koszul_complex
    monkeypatch.setattr(engine, "local_koszul_complex",
                        lambda *args, **kw: built.append(real_local(*args, **kw)) or built[-1])
    seen, real = _counting_eliminations(monkeypatch)
    assert koszulity_certificate(multiserial, POLICY).is_koszul
    assert len(built) == len(multiserial.quiver.vertices)
    _assert_ranked_once(seen, real, built)


def test_deep_certificate_reduces_no_relation_piece_past_the_vanishing_degree():
    # Lambda vanishes in degree 3, so every later piece is zero by recursion;
    # Lambda_n and N_a come from normal words, so no presentation the
    # certificate reaches enumerates a path above degree 2 (its relations')
    pres = parse_presentation(MULTISERIAL, QQ, degree_cap=24)
    assert koszulity_certificate(pres, TruncationPolicy(12, (-2, 24))).verdict == "KOSZUL"
    assert all(n <= 3 for n, _, _ in pres._rel_piece)
    dual = pres.quadratic_dual()
    for ps in (pres, dual, dual.opposite(), dual.opposite().reversed_arrows()):
        assert all(n <= 2 for n, _ in ps.paths._layers)
