from __future__ import annotations

import random
from fractions import Fraction

import pytest

from koszul.complexes import (ChainMap, ComplexOfModules, DoubleComplex,
                              acyclic_assembly_check, blocks_of, homology_at, homology_tables,
                              horizontal_cone, is_acyclic, mapping_cone,
                              null_homotopy_solve, quasi_iso_check, relabel_cells,
                              relabel_double_map, single_module_complex, total_chain_map,
                              total_complex, vertical_cone)
from koszul.dsl import parse_presentation
from koszul.engine import (TruncationPolicy, eta_augmentation, local_koszul_complex,
                           zeta_coaugmentation)
from koszul.linalg import GF, Matrix, QQ
from koszul.modules import (GradedModule, GradedMorphism, block_morphism, direct_sum,
                            identity_morphism, simple_module, standard_module)
from koszul.randomgen import (conjugate_double_complex, point_presentation,
                              random_double_complex, random_double_morphism,
                              random_horizontal_homotopy)
from tests.conftest import presentations_dir
from tests.helpers import (block_keys, grading_shift, random_module, twist,
                           verify_homotopy)


def _vs(pres, window, dims):
    return GradedModule(pres, window, {(i, "v"): d for i, d in dims.items()}, {})


def _mor(pres, src, tgt, mats):
    return GradedMorphism(src, tgt, {(i, "v"): Matrix.from_rows(pres.field, m)
                                     for i, m in mats.items()})


@pytest.fixture(scope="module")
def point():
    return point_presentation()


def test_total_of_single_column_is_the_column(point):
    w = (0, 1)
    m0 = _vs(point, w, {0: 2})
    m1 = _vs(point, w, {0: 1})
    d = _mor(point, m0, m1, {0: [[1, 0]]})
    dc = DoubleComplex(point, w, {(0, 0): m0, (0, 1): m1}, {(0, 0): d}, {})
    tot = total_complex(dc)
    assert tot.positions() == [0, 1]
    assert tot.module(0).dims == m0.dims and tot.module(1).dims == m1.dims
    assert tot.diff(0).piece(0, "v") == d.piece(0, "v")


def test_commuting_square_needs_signs(point):
    w = (0, 0)
    k = _vs(point, w, {0: 1})
    one = {0: [[1]]}
    cells = {(0, 0): k, (1, 0): k, (0, 1): k, (1, 1): k}
    vert = {(0, 0): _mor(point, k, k, one), (1, 0): _mor(point, k, k, one)}
    horiz = {(0, 0): _mor(point, k, k, one), (0, 1): _mor(point, k, k, one)}
    with pytest.raises(ValueError, match="anticommute"):
        DoubleComplex(point, w, cells, vert, horiz)
    # twist the columns: column i's differential gets the sign (-1)^i
    vert[(1, 0)] = vert[(1, 0)].negate()
    dc = DoubleComplex(point, w, cells, vert, horiz)
    tot = total_complex(dc)
    ComplexOfModules(point, w, tot.modules, tot.diffs)  # validates d^2 = 0


def _rank_oracle(mat: Matrix) -> int:
    rows = [[Fraction(v) if mat.field.characteristic == 0 else v for v in r]
            for r in mat.rows]
    p = mat.field.characteristic
    rank = 0
    for c in range(mat.ncols):
        piv = None
        for i in range(rank, len(rows)):
            if rows[i][c] % p if p else rows[i][c]:
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank]
        for i in range(len(rows)):
            if i == rank:
                continue
            if p:
                f = rows[i][c] * pow(prow[c], p - 2, p) % p
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], prow)]
            elif rows[i][c]:
                f = Fraction(rows[i][c], prow[c])
                rows[i] = [a - f * b for a, b in zip(rows[i], prow)]
        rank += 1
    return rank


@pytest.mark.parametrize("seed", range(10))
def test_total_homology_against_flatten_oracle(seed):
    pres = point_presentation(GF(7) if seed % 2 else QQ)
    rng = random.Random(40 + seed)
    dc = random_double_complex(rng, pres, grid=(0, 2, 0, 2))
    tot = total_complex(dc)
    ComplexOfModules(pres, tot.window, tot.modules, tot.diffs)
    lo, hi = tot.support()
    for n in range(lo, hi + 1):
        for (i, x), d in tot.module(n).dims.items():
            dn = tot.diff(n).piece(i, x)
            dp = tot.diff(n - 1).piece(i, x)
            expected = (d - _rank_oracle(dn)) - _rank_oracle(dp)
            got = homology_at(tot, n).get((i, x), 0)
            assert got == expected


def test_cone_of_zero_is_direct_sum(point):
    w = (0, 0)
    m = _vs(point, w, {0: 2})
    x = single_module_complex(m)
    y = single_module_complex(m)
    cone = mapping_cone(ChainMap(x, y, {}))
    assert cone.module(-1).dims == m.dims and cone.module(0).dims == m.dims
    assert not cone.diffs.get(-1) or cone.diff(-1).is_zero()


def test_cone_of_identity_is_acyclic(point):
    w = (0, 2)
    m0 = _vs(point, w, {0: 2, 1: 1})
    m1 = _vs(point, w, {0: 1})
    d = _mor(point, m0, m1, {0: [[1, 1]]})
    x = ComplexOfModules(point, w, {0: m0, 1: m1}, {0: d})
    f = ChainMap(x, x, {n: identity_morphism(x.module(n)) for n in x.modules}).validate()
    assert is_acyclic(mapping_cone(f))
    assert quasi_iso_check(f)


@pytest.mark.parametrize("p", [-1, 0, 3])
def test_chain_map_validate_checks_both_squares_at_a_stored_part(point, p):
    # x = (k -id-> k) at positions p-1, p; f stores only f^p.  The square at
    # p-1 (f^p d_x != 0 = d_y f^(p-1)) and, into y with d_y^p = id, the square
    # at p (d_y f^p != 0 = f^(p+1) d_x) each break a chain map.
    w = (0, 0)
    k = _vs(point, w, {0: 1})
    one = {0: [[1]]}
    x = ComplexOfModules(point, w, {p - 1: k, p: k}, {p - 1: _mor(point, k, k, one)})
    f = {p: _mor(point, k, k, one)}
    with pytest.raises(ValueError, match=f"position {p - 1}"):
        ChainMap(x, ComplexOfModules(point, w, {p: k}, {}), f).validate()
    y = ComplexOfModules(point, w, {p: k, p + 1: k}, {p: _mor(point, k, k, one)})
    with pytest.raises(ValueError, match=f"position {p}"):
        ChainMap(ComplexOfModules(point, w, {p: k}, {}), y, f).validate()
    # with both squares commuting it is a chain map
    ChainMap(x, x, {p - 1: _mor(point, k, k, one), **f}).validate()


def test_zero_map_on_nonacyclic_is_not_quasi_iso(point):
    w = (0, 0)
    m = _vs(point, w, {0: 1})
    x = single_module_complex(m)
    assert not quasi_iso_check(ChainMap(x, x, {}))


@pytest.mark.parametrize("seed", range(12))
def test_cone_identities_bit_exact(seed):
    field = GF(2) if seed % 3 == 0 else QQ  # include characteristic two
    pres = point_presentation(field)
    rng = random.Random(500 + seed)
    m = random_double_complex(rng, pres, grid=(0, 1, 0, 1))
    n = random_double_complex(rng, pres, grid=(0, 1, 0, 1))
    f = random_double_morphism(rng, m, n)
    assert not any(part.is_zero() for part in f.parts.values())
    src = relabel_cells(m, 0)
    tgt = relabel_cells(n, 1)
    g = relabel_double_map(f, src, tgt).validate()
    lhs = total_complex(horizontal_cone(g)).canonical_form()
    mid = mapping_cone(total_chain_map(g)).canonical_form()
    rhs = total_complex(vertical_cone(g)).canonical_form()
    assert block_keys(lhs) == block_keys(mid) == block_keys(rhs)
    assert lhs.same_content(mid) and mid.same_content(rhs)
    # cones satisfy the double complex axioms
    horizontal_cone(g)._validate()
    vertical_cone(g)._validate()


def test_homology_of_simple_complex(multiserial):
    s = simple_module(multiserial, "2", 0, (0, 2))
    x = single_module_complex(s)
    assert homology_tables(x) == {0: {(0, "2"): 1}}


def test_biserial_koszul_complex_homology(biserial):
    # Ker of the biserial differential at position -2 is spanned by the class
    # of (path 4->5->6) tensor (the relation z*a), a pure element of internal
    # degree 4 sitting over vertex 6; nothing maps onto it.
    cx = local_koszul_complex(biserial, "1", TruncationPolicy(4, (-1, 8)))
    table = homology_at(cx, -2)
    assert table == {(4, "6"): 1}


def test_shift_twist_grading_invariants(point):
    rng = random.Random(77)
    dc = random_double_complex(rng, point, grid=(0, 2, 0, 1))
    x = total_complex(dc)
    base = homology_tables(x)
    # twist: same homology positionwise
    assert homology_tables(twist(x)) == base
    # complex shift: homology shifts position
    shifted = homology_tables(x.shift(1))
    assert shifted == {n - 1: t for n, t in base.items()}
    # grading shift: tables reindexed in internal degree
    g = homology_tables(grading_shift(x, 2))
    assert g == {n: {(i - 2, v): d for (i, v), d in t.items()} for n, t in base.items()}


@pytest.mark.parametrize("seed", range(8))
def test_horizontal_homotopy_totalizes(seed):
    pres = point_presentation()
    rng = random.Random(900 + seed)
    m = random_double_complex(rng, pres, grid=(0, 2, 0, 2))
    n = random_double_complex(rng, pres, grid=(0, 2, 0, 2))
    u, f = random_horizontal_homotopy(rng, m, n)
    tf = total_chain_map(f)
    # the proof's explicit total homotopy: h^n has block u^{i, n-i} at (i-1, i)
    x, y = tf.source, tf.target
    homotopy = {}
    for pos in set(x.modules):
        src_idx = sorted({i for (i, j) in m.cells if i + j == pos})
        tgt_idx = sorted({i for (i, j) in n.cells if i + j == pos - 1})
        mats = {}
        for (deg, v) in set(x.module(pos).dims) | set(y.module(pos - 1).dims):
            blocks = {}
            for r, jj in enumerate(tgt_idx):
                for c, ii in enumerate(src_idx):
                    blk = u.get((ii, pos - ii))
                    if blk is not None and jj == ii - 1:
                        blocks[(r, c)] = blk.piece(deg, v)
            mats[(deg, v)] = Matrix.block(
                pres.field, [n.cell(jj, pos - 1 - jj).dim(deg, v) for jj in tgt_idx],
                [m.cell(ii, pos - ii).dim(deg, v) for ii in src_idx], blocks)
        homotopy[pos] = GradedMorphism(x.module(pos), y.module(pos - 1), mats)
    assert verify_homotopy(tf, homotopy)
    # and independently, a homotopy exists by linear solve
    solved = null_homotopy_solve(tf)
    assert solved is not None
    assert verify_homotopy(tf, solved)


def test_acyclic_assembly_modes(point):
    rng = random.Random(4)
    rows_exact = random_double_complex(rng, point, grid=(0, 2, 0, 2), exact_rows=True)
    for n in range(-1, 6):
        verdict, trace = acyclic_assembly_check(rows_exact, n)
        assert verdict is True
        assert trace["verdict"] == "acyclic"
    # zero double complex: trivially acyclic
    empty = DoubleComplex(point, (0, 0), {}, {}, {})
    verdict, _ = acyclic_assembly_check(empty, 0)
    assert verdict is True
    # hypothesis failure is reported, not asserted
    dot = DoubleComplex(point, (0, 0), {(0, 0): _vs(point, (0, 0), {0: 1})}, {}, {})
    verdict, trace = acyclic_assembly_check(dot, 0)
    assert verdict is None and trace["verdict"] == "hypothesis-failed"


@pytest.mark.parametrize("seed", range(6))
def test_acyclic_assembly_against_direct_homology(seed):
    pres = point_presentation()
    rng = random.Random(60 + seed)
    dc = random_double_complex(rng, pres, grid=(0, 2, 0, 2),
                               exact_rows=True)
    tot = total_complex(dc)
    lo, hi = tot.support()
    for n in range(lo, hi + 1):
        verdict, _ = acyclic_assembly_check(dc, n)
        assert verdict is True
        assert not homology_at(tot, n)


def test_columnwise_quasi_iso_totalizes(point):
    # an instance of the vertical-cone lemma: columnwise quasi-iso =>
    # total quasi-iso, via the cone oracle
    rng = random.Random(123)
    m = random_double_complex(rng, point, grid=(0, 2, 0, 2))
    f = relabel_double_map(
        random_double_morphism(rng, m, m), relabel_cells(m, 0), relabel_cells(m, 1))
    # build identity morphism columnwise (a quasi-iso on every column)
    src = relabel_cells(m, 0)
    tgt = relabel_cells(m, 1)
    from koszul.complexes import DoubleChainMap
    ident = DoubleChainMap(src, tgt, {
        (i, j): GradedMorphism(src.cell(i, j), tgt.cell(i, j),
                               identity_morphism(m.cell(i, j)).mats)
        for (i, j) in m.cells})
    assert quasi_iso_check(total_chain_map(ident))


# -- the mapping cone as a total complex ------------------------------------------


def _cone_reference(f: ChainMap) -> ComplexOfModules:
    """The cone as it was hand-built before it became a total complex:
    position n is X^{n+1} (+) Y^n, differential [[-d_X, 0], [f, d_Y]], read
    through the zero-synthesizing accessors."""
    x, y = f.source, f.target
    positions = {n - 1 for n in x.modules} | set(y.modules)
    modules = {n: direct_sum(x.pres, x.window, list(blocks_of(x.module(n + 1))) +
                             list(blocks_of(y.module(n)))) for n in positions}
    diffs = {}
    for n in positions:
        if n + 1 in positions:
            a, c, d = x.diff(n + 1).negate(), f.part(n + 1), y.diff(n)
            diffs[n] = block_morphism(modules[n], modules[n + 1], [a.target, d.target],
                                      [a.source, d.source],
                                      {(0, 0): a.mats, (1, 0): c.mats, (1, 1): d.mats})
    return ComplexOfModules(x.pres, x.window, modules, diffs, validate=False)


def _exact(mat: Matrix):
    """A matrix down to the type of every entry."""
    return mat.nrows, mat.ncols, [sorted((c, type(v).__name__, repr(v)) for c, v in row.items())
                                  for row in mat.sparse_rows]


def _assert_same_complex(got: ComplexOfModules, want: ComplexOfModules):
    assert got.positions() == want.positions()
    for n, m in want.modules.items():
        assert got.modules[n].dims == m.dims
        assert [(k, b.dims) for k, b in blocks_of(got.modules[n])] == \
            [(k, b.dims) for k, b in blocks_of(m)]
    assert set(got.diffs) == set(want.diffs)
    for n, d in want.diffs.items():
        assert got.diffs[n].mats.keys() == d.mats.keys()
        for key, mat in d.mats.items():
            assert _exact(got.diffs[n].mats[key]) == _exact(mat)


def _augmentation_cases(name, field):
    pres = parse_presentation((presentations_dir() / f"{name}.kz").read_text(), field, 10)
    policy = TruncationPolicy(4, (-2, 8))
    mods = [standard_module(pres, kind, a, 0, policy.degree_window)
            for kind in ("simple", "projective", "injective") for a in pres.quiver.vertices]
    rng = random.Random(name)
    mods += [random_module(rng, pres, (0, 4)) for _ in range(3)]
    return [aug(m, policy).map for m in mods for aug in (eta_augmentation, zeta_coaugmentation)]


@pytest.mark.parametrize("name", ["biserial", "multiserial", "kronecker", "empty"])
@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["QQ", "GF3"])
def test_cone_of_eta_and_zeta_matches_the_hand_built_cone(name, field):
    for f in _augmentation_cases(name, field):
        _assert_same_complex(mapping_cone(f), _cone_reference(f))


def _total_chain_map_reference(f):
    """total_chain_map as it walked every position of either side."""
    src, tgt = total_complex(f.source), total_complex(f.target)
    parts = {}
    for n in set(src.modules) | set(tgt.modules):
        src_idx = sorted(i for (i, j) in f.source.cells if i + j == n)
        tgt_idx = sorted(i for (i, j) in f.target.cells if i + j == n)
        row = {jj: r for r, jj in enumerate(tgt_idx)}
        blocks = {(row[ii], c): f.part(ii, n - ii).mats for c, ii in enumerate(src_idx)
                  if ii in row}
        parts[n] = block_morphism(src.module(n), tgt.module(n),
                                  [f.target.cell(jj, n - jj) for jj in tgt_idx],
                                  [f.source.cell(ii, n - ii) for ii in src_idx], blocks)
    return ChainMap(src, tgt, parts)


@pytest.mark.parametrize("seed", range(8))
def test_cone_of_a_total_chain_map_matches_the_hand_built_cone(seed):
    pres = point_presentation(GF(3) if seed % 2 else QQ)
    rng = random.Random(700 + seed)
    grid = (0, 2, 0, 1) if seed % 4 < 2 else (-1, 1, 0, 2)
    m = random_double_complex(rng, pres, grid=grid)
    n = conjugate_double_complex(rng, m) if seed % 3 else \
        random_double_complex(rng, pres, grid=grid)
    f = random_double_morphism(rng, relabel_cells(m, 0), relabel_cells(n, 1))
    g, want = total_chain_map(f), _total_chain_map_reference(f)
    assert g.parts.keys() == want.parts.keys()
    for k, part in want.parts.items():
        assert {key: _exact(mat) for key, mat in g.parts[k].mats.items()} == \
            {key: _exact(mat) for key, mat in part.mats.items()}
    _assert_same_complex(mapping_cone(g), _cone_reference(g))
