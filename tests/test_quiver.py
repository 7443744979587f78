from __future__ import annotations

import gc
import itertools
import weakref

import pytest

from koszul.dsl import ParseError, parse_presentation, print_presentation
from koszul.linalg import GF, QQ
from koszul.modules import injective_module, projective_module
from koszul.quiver import PathEnumerator, Quiver

from .conftest import MULTISERIAL, presentations_dir


def test_trivial_path_basis():
    q = Quiver(["1"], [])
    basis = PathEnumerator(q, 0).basis(0, "1", "1")
    assert basis.words == ((),)


def test_biserial_degree_two_paths(biserial):
    basis = biserial.path_basis(2, "1", "3")
    assert len(basis) == 1
    assert biserial.quiver.word(basis.words[0]) == "b*a"


def test_kronecker_paths_and_adjacency(kronecker):
    basis = kronecker.path_basis(1, "1", "2")
    assert [kronecker.quiver.word(w) for w in basis.words] == ["a", "b"]
    assert kronecker.quiver.adjacency_power_count(1, "1", "2") == 2


def test_dropped_presentation_frees_its_path_enumerator():
    pres = parse_presentation(MULTISERIAL, QQ, degree_cap=6)
    pres.relation_piece(4, "1", "1")            # fills the path and relation caches
    # the module memo holds modules that point back at the presentation
    shared = [projective_module(pres, "1", 0, (0, 4)), injective_module(pres, "1", 0, (-4, 0))]
    assert projective_module(pres, "1", 0, (0, 4)) is shared[0]
    modules = [weakref.ref(m) for m in shared]
    enumerator = weakref.ref(pres.paths)
    quiver = weakref.ref(pres.quiver)
    del pres, shared
    gc.collect()
    assert enumerator() is None and quiver() is None
    assert all(m() is None for m in modules)


@pytest.mark.parametrize("n", range(0, 9))
def test_path_counts_match_adjacency_power(biserial, kronecker, n):
    for pres in (biserial, kronecker):
        if n > pres.degree_cap:
            continue
        q = pres.quiver
        for x in q.vertices:
            for y in q.vertices:
                assert len(pres.path_basis(n, x, y)) == q.adjacency_power_count(n, x, y)


def test_path_bases_are_lexicographic_layers_and_counted(multiserial):
    q = multiserial.quiver
    enum = PathEnumerator(q, 5)
    before = PathEnumerator.basis.cache_info()
    asked = 0
    for n in range(6):
        for x in q.vertices:
            words = [w for w in itertools.product(range(len(q.arrows)), repeat=n)
                     if all(q.arrows[a].target == q.arrows[b].source for a, b in zip(w, w[1:]))
                     and (not w or q.arrows[w[0]].source == x)]
            for y in q.vertices:
                expected = tuple(w for w in words if (q.arrows[w[-1]].target if w else x) == y)
                assert enum.basis(n, x, y).words == expected
                assert enum.basis(n, x, y) is enum.basis(n, x, y)
                asked += 1
    after = PathEnumerator.basis.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (2 * asked, asked)


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=repr)
@pytest.mark.parametrize("name", sorted(p.name for p in presentations_dir().glob("*.kz")))
def test_parser_roundtrip_canonical(name, field):
    # every shipped quiver (loops, parallel arrows, no arrows) and its dual's
    pres = parse_presentation((presentations_dir() / name).read_text(), field, 4)
    for p in (pres, pres.quadratic_dual()):
        text = print_presentation(p)
        again = parse_presentation(text, p.field, p.degree_cap)
        assert again == p
        assert print_presentation(again) == text


def test_parser_rejects_cubic_relation():
    src = "quiver\n vertices: 1 2\n arrows: a: 1->1 b: 1->2\nrelations\n b*a*a\n"
    with pytest.raises(ParseError, match="not quadratic"):
        parse_presentation(src)


def test_parser_rejects_unknown_arrow():
    src = "quiver\n vertices: 1 2\n arrows: a: 1->2\nrelations\n c*a\n"
    with pytest.raises(ParseError, match="unknown arrow"):
        parse_presentation(src)


def test_parser_rejects_non_composable():
    src = "quiver\n vertices: 1 2\n arrows: a: 1->2  b: 1->2\nrelations\n b*a\n"
    with pytest.raises(ParseError, match="non-composable"):
        parse_presentation(src)


def test_parser_reports_positions():
    src = "quiver\n vertices: 1 2\n arrows: a: 1->3\n"
    with pytest.raises(ParseError) as err:
        parse_presentation(src)
    assert err.value.line == 3


def test_parser_empty_quiver_is_ground_field():
    pres = parse_presentation("quiver\n vertices: v\n arrows:")
    assert pres.dim_piece(0, "v", "v") == 1
    assert pres.dim_piece(1, "v", "v") == 0


def test_parser_coefficients_and_semicolons():
    src = ("quiver\n vertices: 1 2 3\n arrows: a: 1->2  b: 2->3  c: 2->3\n"
           "relations\n 2 * b*a - 1/3 * c*a; b*a + c*a\n")
    pres = parse_presentation(src)
    assert pres.relation_space("1", "3").dim == 2
