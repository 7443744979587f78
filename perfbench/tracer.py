"""Out-of-tree span tracer for the koszul package.

`Tracer.install()` replaces the public functions and methods of the traced
modules with timing wrappers, from outside the package: class attributes are
patched on the class, and module-level functions are patched in every
`koszul.*` namespace that holds a copy (``from .x import f`` makes one), so
no call bypasses a wrapper.  Spans nest on a stack; a span's self time is its
duration minus the gross time of its child spans.  The time the wrappers
spend on their own bookkeeping (clock reads, argument inspection) is summed
separately as harness time, so

    sum(self times) + harness time + untraced glue == traced wall time.

Only the standard library is used.  Nothing under ``src/`` is modified.
"""

from __future__ import annotations

import functools
import sys
import time
from fractions import Fraction

# module name in koszul -> layer label used in the metric names
LAYERS = {
    "dsl": "dsl", "quiver": "quiver", "algebra": "algebra", "linalg": "linalg",
    "_kernels": "kernels", "_ckernels": "kernels", "modules": "modules",
    "complexes": "complexes", "engine": "engine", "reports": "reports", "cli": "cli",
}

# Hot, trivial accessors whose wrappers would cost more than their bodies;
# their time stays in the caller's self time.
SKIP = {
    "quiver.Quiver.arrow", "quiver.Quiver.arrow_index", "quiver.Quiver.out_arrows",
    "quiver.Quiver.in_arrows", "quiver.Path.length", "quiver.Path.end",
    "quiver.Path.terminal_arrow", "quiver.Path.initial_arrow", "quiver.Path.word",
    "quiver.PathBasis.position", "modules.GradedModule.dim",
    "modules.GradedModule.is_zero", "modules.GradedMorphism.piece",
    "complexes.ComplexOfModules.module", "complexes.ComplexOfModules.diff",
    "complexes.ComplexOfModules.positions", "linalg.Matrix.is_zero",
    "linalg.Subspace.dim",
}
# dunder methods that do real work and are traced
DUNDERS = {"__init__", "__mul__", "__add__", "__sub__", "__neg__"}
# classes whose __init__ only stores fields (called for every intermediate)
PLAIN_INIT = {"linalg.Matrix", "linalg.Subspace", "quiver.Path", "quiver.PathBasis",
              "quiver.Arrow", "algebra.AlgebraPiece", "dsl.ParseError", "cli.CliError"}
# field classes are called once per matrix entry; never traced
SKIP_CLASSES = {"linalg.RationalField", "linalg.PrimeField"}
# functions whose distinct-argument ratio is recorded (memoisation candidates)
KEYED = {"algebra.Presentation.left_arrow_matrix", "algebra.Presentation.right_arrow_matrix",
         "modules.projective_module", "modules.injective_module"}


def _key_part(v):
    if v is None or isinstance(v, (int, str, Fraction)):
        return v
    if isinstance(v, (tuple, list)):
        return tuple(_key_part(x) for x in v)
    return ("@", id(v))


class Tracer:
    """Collects calls, total and self time per traced name while enabled."""

    def __init__(self):
        self.stats: dict[str, list] = {}      # name -> [calls, total_ns, self_ns]
        self.keys: dict[str, set] = {}
        self.rref = {"cells": 0, "nnz": 0, "max_bits": 0}
        self.harness_ns = 0
        self.enabled = False
        self.stack = [0]        # gross child time of the open spans; [0] is the top level
        self._caches: dict = {}

    # -- wrapping ---------------------------------------------------------------

    def _wrap(self, name, fn, inspect=None):
        tracer = self
        clock = time.perf_counter_ns
        stats = self.stats.setdefault(name, [0, 0, 0])
        stack = self.stack
        keys = self.keys.setdefault(name, set()) if name in KEYED else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            t0 = clock()
            if keys is not None:
                keys.add(_key_part(args) + _key_part(tuple(sorted(kwargs.items()))))
            if inspect is not None:
                inspect(args)
            stack.append(0)
            t1 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t2 = clock()
                child = stack.pop()
                stats[0] += 1
                stats[1] += t2 - t1
                stats[2] += t2 - t1 - child
                t3 = clock()
                stack[-1] += t3 - t0
                tracer.harness_ns += (t1 - t0) + (t3 - t2)

        return wrapper

    def _inspect_rref(self, args):
        mat = args[0]
        acc = self.rref
        acc["cells"] += mat.nrows * mat.ncols
        nnz = 0
        bits = acc["max_bits"]
        for row in mat.rows:
            for v in row:
                if v:
                    nnz += 1
                    if isinstance(v, Fraction):
                        b = max(v.numerator.bit_length(), v.denominator.bit_length())
                    else:
                        b = int(v).bit_length()
                    if b > bits:
                        bits = b
        acc["nnz"] += nnz
        acc["max_bits"] = bits

    def install(self):
        """Patch every traced callable of the loaded koszul modules."""
        import koszul
        import koszul.cli  # noqa: F401  (cli is not imported by the package)

        mods = {n: m for n, m in sys.modules.items() if n.startswith("koszul")}
        replaced: dict[int, object] = {}
        for short, label in LAYERS.items():
            mod = mods.get(f"koszul.{short}")
            if mod is None:
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    self._install_class(label, short, obj)
                elif callable(obj):
                    name = f"{label}.{attr}"
                    if f"{short}.{attr}" in SKIP:
                        continue
                    replaced[id(obj)] = self._wrap(name, obj)
        # the kernels are reached through linalg's `_impl` module reference
        impl = mods["koszul.linalg"]._impl
        for kname in ("rref_int", "rref_fp"):
            replaced[id(getattr(impl, kname))] = self._wrap(f"kernels.{kname}",
                                                            getattr(impl, kname))
        # every namespace holding a copy of a wrapped function gets the wrapper
        for mod in list(mods.values()) + [impl]:
            for attr, obj in list(vars(mod).items()):
                w = replaced.get(id(obj))
                if w is not None:
                    setattr(mod, attr, w)

    def _install_class(self, label, short, cls):
        qual = f"{short}.{cls.__name__}"
        if qual in SKIP_CLASSES:
            return
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in DUNDERS:
                continue
            if attr == "__init__" and qual in PLAIN_INIT:
                continue
            if f"{qual}.{attr}" in SKIP:
                continue
            name = f"{label}.{cls.__name__}.{attr}"
            inspect = self._inspect_rref if name == "linalg.Matrix.rref" else None
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(name, raw.__func__))
            elif isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(name, raw.__func__))
            elif hasattr(raw, "cache_info"):          # lru_cache-decorated method
                self._caches[name] = raw
                new = self._wrap(name, raw)
            elif callable(raw) and not isinstance(raw, type):
                new = self._wrap(name, raw, inspect)
            else:
                continue
            setattr(cls, attr, new)

    # -- results ----------------------------------------------------------------

    def cache_infos(self):
        return {name: fn.cache_info() for name, fn in self._caches.items()}

    def layer_self_ns(self):
        out = {label: 0 for label in sorted(set(LAYERS.values()))}
        for name, (_, _, self_ns) in self.stats.items():
            out[name.split(".", 1)[0]] += self_ns
        return out
