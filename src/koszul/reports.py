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
                      "path": quiver.word(basis.words[c])} for c in sorted(row)]
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


def _expect(value, kind, what):
    if not isinstance(value, kind):
        raise ValueError(f"{what} must be a JSON {'object' if kind is dict else 'array'}")
    return value


def _int(value, what) -> int:
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{what}: not an integer: {value!r}") from None


def _piece_key(pres: Presentation, key: str):
    i, sep, x = key.partition(":")
    if not sep or x not in pres.quiver.vertices:
        raise ValueError(f"bad piece {key!r}: expected degree:vertex with a known vertex")
    return _int(i, f"piece {key!r}"), x


def _matrix_from_json(field, rows, what) -> Matrix:
    rows = [_expect(row, list, what) for row in _expect(rows, list, what)]
    try:
        return Matrix.from_rows(field, [[field.from_str(v) for v in row] for row in rows])
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ValueError(f"{what}: {exc}") from None


def module_from_json(pres: Presentation, data) -> GradedModule:
    """The module of `module_json`; malformed data raises ValueError."""
    _expect(data, dict, "a module")
    window = _expect(data.get("window"), list, "the module window")
    if len(window) != 2:
        raise ValueError("the module window must hold two degrees")
    dims = {}
    for key, d in _expect(data.get("pieces"), dict, "the module pieces").items():
        d = _int(d, f"piece {key!r}")
        if d < 0:
            raise ValueError(f"piece {key!r} has negative dimension")
        dims[_piece_key(pres, key)] = d
    actions = {}
    for key, rows in _expect(data.get("actions", {}), dict, "the module actions").items():
        name, _, i = key.rpartition("@")
        if name not in {a.name for a in pres.quiver.arrows}:
            raise ValueError(f"bad action {key!r}: expected arrow@degree with a known arrow")
        actions[(name, _int(i, f"action {key!r}"))] = _matrix_from_json(
            pres.field, rows, f"action {key!r}")
    mod = GradedModule(pres, (_int(window[0], "window"), _int(window[1], "window")),
                       dims, actions)
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
    """The complex of `complex_json`; malformed data, or a differential that is
    not a morphism of modules, raises ValueError."""
    _expect(data, dict, "a complex")
    modules = {_int(n, "position"): module_from_json(pres, mdata)
               for n, mdata in _expect(data.get("positions"), dict, "positions").items()}
    window = None
    for m in modules.values():
        window = m.window if window is None else (
            min(window[0], m.window[0]), max(window[1], m.window[1]))
    window = window or (0, 0)
    diffs = {}
    for n, mats in _expect(data.get("differentials", {}), dict, "differentials").items():
        n = _int(n, "position")
        src = modules.get(n)
        tgt = modules.get(n + 1)
        if src is None or tgt is None:
            raise ValueError(f"differential at {n} without endpoints")
        dm = {_piece_key(pres, key): _matrix_from_json(pres.field, rows,
                                                       f"differential {n} at {key!r}")
              for key, rows in _expect(mats, dict, f"differential {n}").items()}
        diffs[n] = GradedMorphism(src, tgt, dm).validate()
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
