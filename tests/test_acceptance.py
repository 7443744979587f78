"""Acceptance suite: one test per criterion, each printing a PASS line.

Every check is exact (no tolerances); the stated wall-clock budgets are
asserted.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

from __future__ import annotations

import random
import time

from koszul.complexes import (ComplexOfModules, acyclic_assembly_check, homology_at,
                              homology_tables, mapping_cone,
                              null_homotopy_solve, relabel_cells, relabel_double_map,
                              total_chain_map, total_complex, horizontal_cone,
                              vertical_cone)
from koszul.algebra import Presentation
from koszul.dsl import parse_presentation
from koszul.engine import (TruncationPolicy, eta_augmentation, ext_table,
                           extend_functor, extend_functor_map, koszul_functor,
                           koszul_functor_map, koszulity_certificate,
                           linear_presentation_check, pairing_table,
                           projective_resolution, zeta_coaugmentation)
from koszul.linalg import QQ
from koszul.modules import (GradedMorphism, injective_module, projective_module,
                            simple_module)
from koszul.randomgen import (point_presentation, random_double_complex,
                              random_double_morphism, random_horizontal_homotopy,
                              random_morphism, random_presentation)
from koszul.complexes import relabel_positions
from koszul.modules import identity_morphism
from tests.conftest import BISERIAL, MULTISERIAL, KRONECKER, EMPTY
from tests.helpers import (radical_square_zero, random_acyclic_quiver, random_module,
                           verify_homotopy)

DUAL_MULTI = """
quiver
  vertices: 1 2 3 4
  arrows: al: 1->1  be: 1->2  ga: 2->1  de: 3->2  ze: 3->4  et: 3->4  si: 4->4
relations
  al*al - ga*be
  ga*de
  si*ze
"""


def _corpus():
    rng = random.Random(20260811)
    named = {
        "biserial": parse_presentation(BISERIAL, QQ, 10),
        "multiserial": parse_presentation(MULTISERIAL, QQ, 12),
        "kronecker": parse_presentation(KRONECKER, QQ, 10),
        "ground-field": parse_presentation(EMPTY, QQ, 10),
    }
    randoms = {}
    for k in range(2):
        q = random_acyclic_quiver(rng, 5, 6)
        randoms[f"path-{k}"] = Presentation(q, QQ, {}, 10)
        randoms[f"rz-{k}"] = radical_square_zero(q, QQ, 10)
    return named, randoms


def test_criterion_01_quadratic_dual_golden(multiserial):
    t0 = time.monotonic()
    expected = parse_presentation(DUAL_MULTI, QQ, multiserial.degree_cap)
    dual = multiserial.quadratic_dual()
    pairs = set(dual.relations) | set(expected.relations)
    for (x, y) in pairs:
        assert dual.relation_space(x, y) == expected.relation_space(x, y)
    assert dual == expected
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(f"\nPASS criterion 1: multiserial quadratic dual matches the three "
          f"golden generators exactly ({elapsed:.3f}s)")


def test_criterion_02_non_koszul_witness(biserial):
    t0 = time.monotonic()
    cert = koszulity_certificate(biserial, TruncationPolicy(4, (-2, 10)))
    assert cert.verdict == "NOT_KOSZUL"
    first = cert.failures[0]
    assert (first.vertex, first.position, first.degree) == ("1", -2, 4)
    assert first.witness_dim == 1 and first.witness is not None
    s1 = simple_module(biserial, "1", 0, (0, 10))
    assert linear_presentation_check(s1, 2)[0] is True
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(f"\nPASS criterion 2: biserial witness at (vertex 1, position -2, "
          f"degree 4), dim 1; S_1 has a linear 2-presentation ({elapsed:.3f}s)")


def test_criterion_03_koszul_certifications():
    t0 = time.monotonic()
    rng = random.Random(333)
    policy = TruncationPolicy(6, (-2, 10))
    count = 0
    for k in range(10):
        quiver = random_acyclic_quiver(rng, 6, 8)
        for pres in (Presentation(quiver, QQ, {}, 10), radical_square_zero(quiver, QQ, 10)):
            cert = koszulity_certificate(pres, policy)
            assert cert.is_koszul, f"quiver {k} failed"
            count += 1
    multi = parse_presentation(MULTISERIAL, QQ, 10)
    cert = koszulity_certificate(multi, policy)
    assert cert.is_koszul and cert.complete
    count += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    print(f"\nPASS criterion 3: {count} presentations certified Koszul at "
          f"N=6, D=10 ({elapsed:.2f}s)")


def test_criterion_04_opposite_dual_consistency():
    t0 = time.monotonic()
    named, randoms = _corpus()
    policy = TruncationPolicy(4, (-2, 8))
    for name, pres in {**named, **randoms}.items():
        base = koszulity_certificate(pres, policy).is_koszul
        opp = koszulity_certificate(pres.opposite(), policy).is_koszul
        dual = koszulity_certificate(pres.quadratic_dual(), policy).is_koszul
        assert base == opp == dual, name
    elapsed = time.monotonic() - t0
    print(f"\nPASS criterion 4: certificates for Lambda, its opposite and its "
          f"dual agree on {len(named) + len(randoms)} presentations ({elapsed:.2f}s)")


def test_criterion_05_pairing_dimensions():
    t0 = time.monotonic()
    named, randoms = _corpus()
    for name, pres in {**named, **randoms}.items():
        ok, rows = pairing_table(pres, 6)
        assert ok, name
    elapsed = time.monotonic() - t0
    print(f"\nPASS criterion 5: dim R^(n)(a,x) = dim e_a Lambda^!_n e_x for "
          f"n <= 6 across the corpus ({elapsed:.2f}s)")


def test_criterion_06_double_dual_roundtrips():
    t0 = time.monotonic()
    rng = random.Random(666)
    for k in range(50):
        pres = random_presentation(rng, degree_cap=4)
        assert pres.quadratic_dual().quadratic_dual() == pres, k
        assert pres.opposite().quadratic_dual() == pres.quadratic_dual().opposite(), k
    elapsed = time.monotonic() - t0
    print(f"\nPASS criterion 6: (dual.dual = id) and (opposite.dual = "
          f"dual.opposite) on 50 random presentations ({elapsed:.2f}s)")


def test_criterion_07_double_complex_identities():
    t0 = time.monotonic()
    rng = random.Random(777)
    pres = point_presentation()
    for t in range(100):
        m = random_double_complex(rng, pres, grid=(0, 2, 0, 2))
        tot = total_complex(m)
        ComplexOfModules(pres, tot.window, tot.modules, tot.diffs)  # d^2 = 0
        n = random_double_complex(rng, pres, grid=(0, 2, 0, 2))
        f = random_double_morphism(rng, m, n)
        src, tgt = relabel_cells(m, 0), relabel_cells(n, 1)
        g = relabel_double_map(f, src, tgt)
        lhs = total_complex(horizontal_cone(g)).canonical_form()
        mid = mapping_cone(total_chain_map(g)).canonical_form()
        rhs = total_complex(vertical_cone(g)).canonical_form()
        assert lhs.same_content(mid) and mid.same_content(rhs), t
        u, hf = random_horizontal_homotopy(rng, m, n)
        tf = total_chain_map(hf)
        solved = null_homotopy_solve(tf)
        assert solved is not None and verify_homotopy(tf, solved), t
        rows_exact = random_double_complex(rng, pres, grid=(0, 2, 0, 2), exact_rows=True)
        tot_r = total_complex(rows_exact)
        lo, hi = tot_r.support()
        for pos in range(lo, hi + 1):
            verdict, _ = acyclic_assembly_check(rows_exact, pos)
            assert verdict is True and not homology_at(tot_r, pos), (t, pos)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(f"\nPASS criterion 7: totals square to zero, cone identities hold "
          f"bit-exactly, homotopies totalize, assembly matches direct homology "
          f"on 100 seeded grids ({elapsed:.2f}s)")


def test_criterion_08_functor_laws(multiserial):
    t0 = time.monotonic()
    rng = random.Random(888)
    pres = multiserial
    dual = pres.quadratic_dual()
    w, wd = (-2, 10), (-8, 8)
    checked = 0
    for trial in range(4):
        m = random_module(rng, pres, (0, 4))
        n = random_module(rng, pres, (0, 4))
        f = random_morphism(rng, m, n)
        x = ComplexOfModules(pres, w, {0: m, 1: n},
                             {0: f} if not f.is_zero() else {})
        # shift law
        assert extend_functor("right", x.shift(1), w).canonical_form().same_content(
            extend_functor("right", x, w).shift(1).canonical_form())
        # cone law
        xa, xb = relabel_positions(x, "A"), relabel_positions(x, "B")
        ident = {pos: GradedMorphism(xa.module(pos), xb.module(pos),
                                     identity_morphism(x.module(pos)).mats)
                 for pos in x.modules}
        from koszul.complexes import ChainMap
        g = ChainMap(xa, xb, ident).validate()
        assert extend_functor("right", mapping_cone(g), w).canonical_form().same_content(
            mapping_cone(extend_functor_map("right", g, w)).canonical_form())
        # composition law
        from koszul.complexes import DoubleComplex
        cells, vert, horiz, cols = {}, {}, {}, {}
        for i in x.positions():
            cx = extend_functor("left", koszul_functor("right", x.module(i), wd,
                                                       pres, dual), w, dual, pres)
            cols[i] = cx
            for j, mod in cx.modules.items():
                cells[(i, j)] = mod
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
        lhs = total_complex(DoubleComplex(pres, w, cells, vert, horiz, validate=False))
        rhs = extend_functor("left", extend_functor("right", x, wd, pres, dual),
                             w, dual, pres)
        assert lhs.canonical_form().same_content(rhs.canonical_form()), trial
        checked += 1
    elapsed = time.monotonic() - t0
    print(f"\nPASS criterion 8: shift, cone and composition laws hold bit-exactly "
          f"on {checked} seeded two-term complexes ({elapsed:.2f}s)")


def test_criterion_09_eta_zeta_quasi_isomorphisms():
    t0 = time.monotonic()
    rng = random.Random(999)
    policy = TruncationPolicy(5, (-2, 9))
    quiver = random_acyclic_quiver(random.Random(12), 4, 5)
    algebras = {
        "multiserial": parse_presentation(MULTISERIAL, QQ, 12),
        "path": Presentation(quiver, QQ, {}, 10),
        "rz": radical_square_zero(quiver, QQ, 10),
    }
    per_algebra = 20
    for name, pres in algebras.items():
        for k in range(per_algebra):
            m = random_module(rng, pres, (0, 4))
            if m.is_zero():
                m = simple_module(pres, pres.quiver.vertices[0], 0, (0, 4))
            res = eta_augmentation(m, policy)
            assert res.quasi_iso, (name, k)
            assert res.h0_isomorphism, (name, k)
            cor = zeta_coaugmentation(m, policy)
            assert cor.quasi_iso, (name, k)
            assert cor.h0_isomorphism, (name, k)
    # explicit H^0 isomorphism on the named worked examples via simples
    for pres in (algebras["multiserial"], algebras["path"], algebras["rz"]):
        for a in pres.quiver.vertices:
            s = simple_module(pres, a, 0, policy.degree_window)
            assert eta_augmentation(s, policy).h0_isomorphism
            assert zeta_coaugmentation(s, policy).h0_isomorphism
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    print(f"\nPASS criterion 9: eta and zeta cones acyclic with H^0 recovering M "
          f"for {per_algebra} random modules on each Koszul corpus algebra "
          f"({elapsed:.2f}s)")


def test_criterion_10_resolution_correctness(multiserial):
    t0 = time.monotonic()
    dual = multiserial.quadratic_dual()
    policy = TruncationPolicy(6, (-2, 10))
    for a in multiserial.quiver.vertices:
        i_a = injective_module(multiserial, a, 0, (-8, 0))
        assert homology_tables(koszul_functor("right", i_a, (-1, 9),
                                              multiserial, dual)) == {0: {(0, a): 1}}
        p_a = projective_module(multiserial, a, 0, (0, 8))
        assert homology_tables(koszul_functor("left", p_a, (-9, 1),
                                              multiserial, dual)) == {0: {(0, a): 1}}
        s = simple_module(multiserial, a, 0, policy.degree_window)
        res = projective_resolution(s, policy)
        assert res.quasi_iso and res.h0_isomorphism
        betti = res.betti()
        for n in range(0, 7):
            expected = {(x, -n): dual.dim_piece(n, x, a)
                        for x in multiserial.quiver.vertices
                        if dual.dim_piece(n, x, a)}
            assert betti.get(-n, {}) == expected, (a, n)
    elapsed = time.monotonic() - t0
    print(f"\nPASS criterion 10: F(I_a) and G(P_a) resolve the dual simples and "
          f"the Betti tables match dim e_a Lambda^!_n e_x for n <= 6 ({elapsed:.2f}s)")


def test_criterion_11_extension_conjecture(multiserial):
    t0 = time.monotonic()
    for a in ("1", "4"):
        table = ext_table(multiserial, a, a, 8)
        assert all(table[n] >= 1 for n in range(1, 9)), a
    elapsed = time.monotonic() - t0
    print(f"\nPASS criterion 11: ext tables at (1,1) and (4,4) strictly positive "
          f"for 1 <= n <= 8 ({elapsed:.2f}s)")
