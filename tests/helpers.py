"""References and fixtures that only the tests use.

The random generators draw exactly as they did inside the package: the
pinned digests in `test_cli.py`, `test_engine.py` and
`test_matrix_equations.py` depend on their draws for fixed seeds.
"""

from __future__ import annotations

import random
import string

from koszul.algebra import Presentation
from koszul.complexes import ChainMap, ComplexOfModules, blocks_of
from koszul.linalg import QQ, Matrix, Subspace
from koszul.modules import (GradedModule, GradedMorphism, direct_sum, projective_module,
                            quotient_module, zero_morphism)
from koszul.quiver import Quiver


# -- complexes ------------------------------------------------------------------


def grading_shift(cx: ComplexOfModules, s: int) -> ComplexOfModules:
    """Every module and the window shifted by s in internal degree."""
    modules = {n: m.shift(s) for n, m in cx.modules.items()}
    # a non-zero differential joins two stored positions
    diffs = {n: GradedMorphism(modules[n], modules[n + 1],
                               {(i - s, x): mat for (i, x), mat in d.mats.items()})
             for n, d in cx.diffs.items()}
    w = (cx.window[0] - s, cx.window[1] - s)
    return ComplexOfModules(cx.pres, w, modules, diffs, validate=False)


def twist(cx: ComplexOfModules) -> ComplexOfModules:
    """Every differential negated."""
    return ComplexOfModules(cx.pres, cx.window, dict(cx.modules),
                            {n: d.negate() for n, d in cx.diffs.items()}, validate=False)


def block_keys(cx: ComplexOfModules):
    return {n: tuple(k for k, _ in blocks_of(m)) for n, m in cx.modules.items()}


def verify_homotopy(f: ChainMap, homotopy) -> bool:
    x, y = f.source, f.target
    for n in set(x.modules) | set(y.modules):
        un1 = homotopy.get(n + 1)
        un = homotopy.get(n)
        acc = zero_morphism(x.module(n), y.module(n))
        if un1 is not None:
            acc = acc.add(GradedMorphism(x.module(n), y.module(n),
                                         un1.compose(x.diff(n)).mats))
        if un is not None:
            acc = acc.add(GradedMorphism(x.module(n), y.module(n),
                                         y.diff(n - 1).compose(un).mats))
        if not acc.same_content(f.part(n)):
            return False
    return True


def functor_labels_by_dimension(cx: ComplexOfModules, side: str, target_pres: Presentation):
    """The labels of `engine.functor_labels`, each multiplicity found by
    dividing one piece of its summand by that piece of P_x<j> (side='right')
    or I_x<j> (side='left') over `target_pres`: the reference for the
    multiplicities the engine reads off its blocks."""
    out = {}
    for n in cx.positions():
        entries = []
        for key, sub in blocks_of(cx.module(n)):
            (x, j) = key[-1]
            (i, y), d = next(iter(sub.dims.items()))
            base = target_pres.dim_piece(j + i, x, y) if side == "right" else \
                target_pres.opposite().dim_piece(-(j + i), x, y)
            entries.append({"vertex": x, "shift": j, "multiplicity": d // base,
                            "key": repr(key)})
        out[n] = entries
    return out


# -- subspaces ------------------------------------------------------------------


def intersect(u: Subspace, v: Subspace) -> Subspace:
    """u ∩ v as the annihilator of u^⊥ + v^⊥."""
    return u.perp().add(v.perp()).perp()


# -- R^(n) ----------------------------------------------------------------------


def r_upper_derivation(pres: Presentation, arrow_name: str, n: int, a) -> Matrix:
    """The derivation q.al -> q by an arrow al: y -> x, restricted to
    R^(n)(a, x) -> R^(n-1)(a, y), in the bases of `Presentation.r_upper`.
    The paths are read from (Lambda^!)^op's bases, where R^(n) is built: the
    reference for the actions of the engine's N_a."""
    arrow = pres.quiver.arrow(arrow_name)
    aidx = pres.quiver.arrow_index(arrow_name)
    dual_opposite = pres.quadratic_dual().opposite()
    words = dual_opposite.path_basis(n, a, arrow.target).words
    index = dual_opposite.path_basis(n - 1, a, arrow.source).index
    tgt = pres.r_upper(n - 1, a, arrow.source)
    images = [{index[words[c][:-1]]: v for c, v in row.items()
               if words[c][-1] == aidx}
              for row in pres.r_upper(n, a, arrow.target).sparse_rows]
    return tgt.coordinates_of(Matrix(pres.field, len(images), tgt.ambient, images).transpose())


# -- random quivers, presentations and modules ----------------------------------


def random_acyclic_quiver(rng: random.Random, max_vertices=6, max_arrows=8) -> Quiver:
    nv = rng.randint(2, max_vertices)
    vertices = [str(i + 1) for i in range(nv)]
    na = rng.randint(1, max_arrows)
    arrows = []
    names = iter(string.ascii_lowercase)
    for _ in range(na):
        i = rng.randint(0, nv - 2)
        j = rng.randint(i + 1, nv - 1)
        arrows.append((next(names), vertices[i], vertices[j]))
    return Quiver(vertices, arrows)


def radical_square_zero(quiver: Quiver, field=QQ, degree_cap=8) -> Presentation:
    helper = Presentation(quiver, field, {}, 2)
    rels = {}
    for x in quiver.vertices:
        for y in quiver.vertices:
            m = len(helper.path_basis(2, x, y))
            if m:
                rels[(x, y)] = Subspace.full(field, m)
    return Presentation(quiver, field, rels, degree_cap)


def random_module(rng: random.Random, pres: Presentation, window,
                  max_summands=2, max_shift=2) -> GradedModule:
    """A random finite dimensional module: quotient of projectives by a random submodule."""
    summands = []
    for k in range(rng.randint(1, max_summands)):
        a = rng.choice(pres.quiver.vertices)
        s = rng.randint(0, max_shift)
        summands.append(((a, k), projective_module(pres, a, -s, window)))
    big = direct_sum(pres, window, summands)
    big = GradedModule(pres, big.window, big.dims, big.actions)  # forget labels
    pieces = {k: Subspace.zero(pres.field, d) for k, d in big.dims.items()}
    elements = []
    keys = [k for k, d in big.dims.items() if d and k[0] > 0]
    for _ in range(rng.randint(0, 3)):
        if not keys:
            break
        (i, x) = rng.choice(keys)
        vec = [pres.field.of(rng.randint(-2, 2)) for _ in range(big.dim(i, x))]
        elements.append(((i, x), vec))
    # close the generated pieces under the arrow actions
    frontier = list(elements)
    while frontier:
        (i, x), vec = frontier.pop()
        sp = pieces[(i, x)]
        if sp.contains(vec):
            continue
        pieces[(i, x)] = sp.add(Subspace.from_vectors(pres.field, big.dim(i, x), [vec]))
        for aidx in pres.quiver.out_arrows(x):
            arrow = pres.quiver.arrows[aidx]
            if big.dim(i + 1, arrow.target):
                img = big.action(arrow.name, i).apply(vec)
                if any(v != pres.field.zero for v in img):
                    frontier.append(((i + 1, arrow.target), img))
    quot, _ = quotient_module(big, pieces)
    return quot
