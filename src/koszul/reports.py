"""JSON serialization for presentations, modules, complexes and verdicts.

Scalars are emitted as exact strings ("2", "-3/5"); matrices as row-major
arrays of scalar strings; piece keys as "degree:vertex" strings.  Output is
byte-deterministic for a fixed input: orderings follow declaration order and
sorted keys throughout.
"""

from __future__ import annotations

import json

from .algebra import Presentation
from .complexes import ComplexOfModules
from .linalg import Matrix
from .modules import GradedModule, GradedMorphism


def scalar(field, v) -> str:
    return field.to_str(v)


def matrix_json(m: Matrix):
    return [[scalar(m.field, v) for v in row] for row in m.rows]


def presentation_json(pres: Presentation):
    quiver = pres.quiver
    order = {v: i for i, v in enumerate(quiver.vertices)}
    rels = []
    for (x, z) in sorted(pres.relations, key=lambda p: (order[p[0]], order[p[1]])):
        space = pres.relations[(x, z)]
        basis = pres.path_basis(2, x, z)
        for row in space.sparse_rows:
            terms = [{"coefficient": scalar(pres.field, row[c]),
                      "path": basis.paths[c].word(quiver)} for c in sorted(row)]
            rels.append({"source": x, "target": z, "terms": terms})
    return {
        "field": pres.field.name,
        "vertices": list(quiver.vertices),
        "arrows": [{"name": a.name, "source": a.source, "target": a.target}
                   for a in quiver.arrows],
        "relations": rels,
    }


def module_json(m: GradedModule):
    return {
        "window": list(m.window),
        "pieces": {f"{i}:{x}": d for (i, x), d in sorted(m.dims.items())},
        "actions": {f"{name}@{i}": matrix_json(mat)
                    for (name, i), mat in sorted(m.actions.items())},
    }


def module_from_json(pres: Presentation, data) -> GradedModule:
    window = tuple(data["window"])
    dims = {}
    for key, d in data["pieces"].items():
        i, x = key.split(":", 1)
        dims[(int(i), x)] = int(d)
    actions = {}
    for key, rows in data.get("actions", {}).items():
        name, i = key.rsplit("@", 1)
        actions[(name, int(i))] = Matrix.from_rows(
            pres.field, [[pres.field.from_str(v) for v in row] for row in rows])
    mod = GradedModule(pres, window, dims, actions)
    mod.validate()
    return mod


def morphism_json(f: GradedMorphism):
    return {f"{i}:{x}": matrix_json(mat) for (i, x), mat in sorted(f.mats.items())}


def complex_json(cx: ComplexOfModules):
    out = {"positions": {}, "differentials": {}}
    for n in cx.positions():
        out["positions"][str(n)] = module_json(cx.module(n))
        d = cx.diffs.get(n)
        if d is not None:
            out["differentials"][str(n)] = morphism_json(d)
    return out


def complex_from_json(pres: Presentation, data) -> ComplexOfModules:
    modules = {int(n): module_from_json(pres, mdata)
               for n, mdata in data["positions"].items()}
    window = None
    for m in modules.values():
        window = m.window if window is None else (
            min(window[0], m.window[0]), max(window[1], m.window[1]))
    window = window or (0, 0)
    diffs = {}
    for n, mats in data.get("differentials", {}).items():
        n = int(n)
        src = modules.get(n)
        tgt = modules.get(n + 1)
        if src is None or tgt is None:
            raise ValueError(f"differential at {n} without endpoints")
        dm = {}
        for key, rows in mats.items():
            i, x = key.split(":", 1)
            dm[(int(i), x)] = Matrix.from_rows(
                pres.field, [[pres.field.from_str(v) for v in row] for row in rows])
        diffs[n] = GradedMorphism(src, tgt, dm)
    return ComplexOfModules(pres, window, modules, diffs, validate=True)


def homology_json(tables):
    return {str(n): {f"{i}:{x}": d for (i, x), d in sorted(t.items())}
            for n, t in sorted(tables.items())}


def labeled_complex_json(cx: ComplexOfModules, labels):
    data = complex_json(cx)
    data["labels"] = {str(n): entries for n, entries in sorted(labels.items())}
    return data


def dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
