"""Linear systems whose unknowns are the entries of piece matrices.

`hom_basis`, `null_homotopy_solve`, `double_hom_basis` and
`random_horizontal_homotopy` each solve such a system: for Lambda-linear
morphisms, null-homotopies and morphisms of double complexes.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from koszul.complexes import (ChainMap, ComplexOfModules, null_homotopy_solve,
                              single_module_complex, total_chain_map)
from koszul.dsl import parse_presentation
from koszul.linalg import GF, Matrix, QQ
from koszul.modules import (GradedMorphism, hom_basis, identity_morphism,
                            injective_module, projective_module)
from koszul.randomgen import (double_hom_basis, point_presentation, random_double_complex,
                              random_horizontal_homotopy)
from koszul.reports import dumps, morphism_json

from .conftest import presentations_dir
from .helpers import random_module, verify_homotopy

FIELDS = {"QQ": QQ, "GF(101)": GF(101)}


def _pres(name, field):
    return parse_presentation((presentations_dir() / f"{name}.kz").read_text(), field, 10)


def _digest(payload) -> str:
    return hashlib.sha256(dumps(payload).encode()).hexdigest()[:16]


def _parts_json(parts):
    return {str(k): morphism_json(g) for k, g in parts.items()}


# -- hom_basis ------------------------------------------------------------------


def test_hom_basis_kronecker_cases():
    pres = _pres("kronecker", QQ)
    # End(I_2) is the scalars; the m-action term X_{i+1,y}·(m-action) sums
    # over M_{i+1} e_y, which is not as large as M_i e_x here
    i2 = injective_module(pres, "2", 0, (-2, 2))
    basis = hom_basis(i2, i2)
    assert len(basis) == 1
    basis[0].validate()
    # Hom(P_1, P_2<-1>) is P_2<-1> at (0, 1), which is zero: every equation
    # on the unknown at (1, 2) must be imposed
    p1 = projective_module(pres, "1", 0, (0, 4))
    p2 = projective_module(pres, "2", -1, (0, 4))
    assert hom_basis(p1, p2) == []


@pytest.mark.parametrize("name", ["biserial", "multiserial", "kronecker"])
@pytest.mark.parametrize("fname", FIELDS)
def test_hom_from_shifted_projective_is_a_piece(name, fname):
    """Hom(P_a<s>, N) = N_{-s} e_a, and every basis element is Lambda-linear."""
    pres = _pres(name, FIELDS[fname])
    w = (0, 4)
    vertices = pres.quiver.vertices
    targets = [projective_module(pres, b, t, w) for b in vertices for t in (0, -1, -2)]
    targets += [injective_module(pres, b, -t, w) for b in vertices for t in (0, 2, 4)]
    rng = random.Random(f"hom-sweep:{name}")
    targets += [random_module(rng, pres, w) for _ in range(4)]
    for s in (0, -1, -2):
        for a in vertices:
            p = projective_module(pres, a, s, w)
            for n in targets:
                basis = hom_basis(p, n)
                assert len(basis) == n.dim(-s, a), (s, a, n.dims)
                for f in basis:
                    f.validate()


# sha256 prefixes of the JSON of hom_basis(P_a<s>, N) for three random_module
# draws N on Random("hom:<name>"), window (0, 4), s in {0, -1, -2} and the
# listed vertices a: pairs whose answer was already correct before hom_basis
# was rebuilt on `MatrixEquations`, recorded before that change.
PINNED_HOM = {
    ("biserial", "QQ"): "34fdbc2ac8c0f3e4",
    ("biserial", "GF(101)"): "34fdbc2ac8c0f3e4",
    ("multiserial", "QQ"): "31ba1baf2f4a5622",
    ("multiserial", "GF(101)"): "b31c68ec1c5a0010",
    ("kronecker", "QQ"): "07e6ecc8f247bd0d",
    ("kronecker", "GF(101)"): "07e6ecc8f247bd0d",
}
PINNED_HOM_VERTICES = {"biserial": "123456", "multiserial": "123", "kronecker": "2"}


@pytest.mark.parametrize("name,fname", PINNED_HOM, ids=[f"{n}-{f}" for n, f in PINNED_HOM])
def test_hom_basis_bytes_pinned(name, fname):
    pres = _pres(name, FIELDS[fname])
    w = (0, 4)
    rng = random.Random(f"hom:{name}")
    targets = [random_module(rng, pres, w) for _ in range(3)]
    out = []
    for s in (0, -1, -2):
        for a in PINNED_HOM_VERTICES[name]:
            p = projective_module(pres, a, s, w)
            for n in targets:
                out.append([morphism_json(f) for f in hom_basis(p, n)])
    assert _digest(out) == PINNED_HOM[(name, fname)]


# -- double complexes and null-homotopies -------------------------------------------


# sha256 prefixes of the JSON of double_hom_basis(m, n), of both outputs u and f
# of random_horizontal_homotopy(rng, m, n) and of null_homotopy_solve of the
# total of f, for the pair (m, n) of random_double_complex draws on
# Random(700 + seed) over the point presentation; recorded before the four
# solvers were rebuilt on `MatrixEquations`.
PINNED_DOUBLE = {
    ("QQ", 0): "74cd4d4da4939b10", ("QQ", 1): "79dd282942524882",
    ("QQ", 2): "d73d2aacd0401836", ("QQ", 3): "3bfa5a5e99a88af2",
    ("QQ", 4): "386120b42b766805", ("QQ", 5): "ebf77d5d3e1497fe",
    ("QQ", 6): "20f3bc84eaa5a677", ("QQ", 7): "3ee741ac7ea12305",
    ("QQ", 8): "2437a1ee9c9bfb92", ("QQ", 9): "2918ac456e9e6343",
    ("QQ", 10): "eedc782511cd9bdc", ("QQ", 11): "9b13b9b494848fa9",
    ("GF(101)", 0): "74cd4d4da4939b10", ("GF(101)", 1): "79dd282942524882",
    ("GF(101)", 2): "7a64c2ad84d84617", ("GF(101)", 3): "9a61fc0b4d453677",
    ("GF(101)", 4): "d3521169e760ecd7", ("GF(101)", 5): "8328acad568cfc43",
    ("GF(101)", 6): "a14d590396b7b5ec", ("GF(101)", 7): "4c66c6709b24695b",
    ("GF(101)", 8): "2437a1ee9c9bfb92", ("GF(101)", 9): "2918ac456e9e6343",
    ("GF(101)", 10): "af210c44453fcfc0", ("GF(101)", 11): "9b13b9b494848fa9",
}


@pytest.mark.parametrize("fname,seed", PINNED_DOUBLE,
                         ids=[f"{f}-{s}" for f, s in PINNED_DOUBLE])
def test_double_complex_solvers_bytes_pinned(fname, seed):
    pres = point_presentation(FIELDS[fname])
    rng = random.Random(700 + seed)
    m = random_double_complex(rng, pres, grid=(0, 2, 0, 2))
    n = random_double_complex(rng, pres, grid=(0, 2, 0, 2))
    basis = double_hom_basis(m, n)
    for g in basis:
        g.validate()
    u, f = random_horizontal_homotopy(rng, m, n)
    tf = total_chain_map(f)
    homotopy = null_homotopy_solve(tf)
    assert homotopy is not None and verify_homotopy(tf, homotopy)
    payload = {"basis": [_parts_json(g.parts) for g in basis], "u": _parts_json(u),
               "f": _parts_json(f.parts), "homotopy": _parts_json(homotopy)}
    assert _digest(payload) == PINNED_DOUBLE[(fname, seed)]


# -- the inconsistent case -----------------------------------------------------------


def _identity(cx):
    return ChainMap(cx, cx, {n: identity_morphism(cx.module(n)) for n in cx.modules})


@pytest.mark.parametrize("fname", FIELDS)
def test_identity_of_one_term_complex_is_not_null_homotopic(fname):
    # no unknowns at all: u^n maps X^n to X^{n-1} = 0, and the right side is 1
    pres = _pres("kronecker", FIELDS[fname])
    cx = single_module_complex(projective_module(pres, "1", 0, (0, 4)))
    assert null_homotopy_solve(_identity(cx)) is None


@pytest.mark.parametrize("fname", FIELDS)
def test_identity_of_non_acyclic_two_term_complex_is_not_null_homotopic(fname):
    # P_2<-1> -> P_1, e_2 -> a: its cokernel is not zero, so the identity is
    # not null-homotopic, although u^1: P_1 -> P_2<-1> has unknowns at (1, 2)
    field = FIELDS[fname]
    pres = _pres("kronecker", field)
    w = (0, 4)
    p2 = projective_module(pres, "2", -1, w)
    p1 = projective_module(pres, "1", 0, w)
    d = GradedMorphism(p2, p1, {(1, "2"): Matrix.from_rows(field, [[1], [0]])}).validate()
    cx = ComplexOfModules(pres, w, {0: p2, 1: p1}, {0: d})
    assert p1.dim(1, "2") and p2.dim(1, "2")
    assert null_homotopy_solve(_identity(cx)) is None
