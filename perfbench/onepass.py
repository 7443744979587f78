"""One benchmark pass in a fresh process: set up, time each operation, check it.

Run by `run.py`; prints one JSON object as its last stdout line.  The
operations' own stdout (the CLI's `--json` bytes) is captured in memory.

    python3 perfbench/onepass.py --workload W --seed S [--trace] [--smoke]
        [--golden FILE | --record] --workdir DIR
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
import traceback

import workloads

PASS_LIMIT_S = 170          # a pass that hangs is killed by SIGALRM

# per-function metrics named in BENCHMARK.json: (traced name, metric prefix, fields)
FUNCTIONS = [
    ("linalg.Matrix.kron", "linalg.Matrix.kron", ("self_s",)),
    ("linalg.Matrix.block", "linalg.Matrix.block", ("self_s",)),
    ("linalg.Matrix.zeros", "linalg.Matrix.zeros", ("calls",)),
    ("linalg.Matrix.__mul__", "linalg.Matrix.__mul__", ("self_s",)),
    ("linalg.Subspace.reduce", "linalg.Subspace.reduce", ("calls", "self_s")),
    ("kernels.rref_int", "kernels.rref_int", ("self_s",)),
    ("kernels.rref_fp", "kernels.rref_fp", ("self_s",)),
    ("algebra.Presentation.left_arrow_matrix", "algebra.left_arrow_matrix",
     ("calls", "self_s", "unique_frac")),
    ("algebra.Presentation.right_arrow_matrix", "algebra.right_arrow_matrix",
     ("calls", "self_s", "unique_frac")),
    ("algebra.Presentation.relation_piece", "algebra.relation_piece", ("self_s",)),
    ("algebra.Presentation.r_upper", "algebra.r_upper", ("self_s",)),
    ("modules.projective_module", "modules.projective_module",
     ("calls", "self_s", "unique_frac")),
    ("modules.injective_module", "modules.injective_module",
     ("calls", "self_s", "unique_frac")),
    ("modules.direct_sum", "modules.direct_sum", ("self_s",)),
    ("modules.GradedModule.tensor", "modules.GradedModule.tensor", ("self_s",)),
    ("complexes.total_complex", "complexes.total_complex", ("self_s",)),
    ("complexes.mapping_cone", "complexes.mapping_cone", ("self_s",)),
    ("complexes.is_acyclic", "complexes.is_acyclic", ("self_s",)),
    ("complexes.homology_module", "complexes.homology_module", ("self_s",)),
    ("complexes.ComplexOfModules.canonical_form", "complexes.ComplexOfModules.canonical_form",
     ("self_s",)),
    ("complexes.ComplexOfModules.__init__", "complexes.ComplexOfModules.__init__",
     ("self_s",)),
    ("engine.local_koszul_complex", "engine.local_koszul_complex", ("self_s",)),
    ("engine.koszulity_certificate", "engine.koszulity_certificate", ("self_s",)),
    ("engine.koszul_functor", "engine.koszul_functor", ("self_s",)),
    ("engine.koszul_functor_map", "engine.koszul_functor_map", ("self_s",)),
    ("engine.extend_functor", "engine.extend_functor", ("self_s",)),
    ("engine.extend_functor_map", "engine.extend_functor_map", ("self_s",)),
    ("engine.eta_augmentation", "engine.eta_augmentation", ("self_s",)),
    ("engine.zeta_coaugmentation", "engine.zeta_coaugmentation", ("self_s",)),
    ("dsl.parse_presentation", "dsl.parse_presentation", ("total_s",)),
    ("reports.dumps", "reports.dumps", ("total_s",)),
]


def trace_metrics(tracer, cache_before, glue_ns, wall_s):
    """Per-layer numbers of one traced pass, by metric name."""
    out = {f"layer.{label}.self_s": ns / 1e9 for label, ns in tracer.layer_self_ns().items()}
    calls, total, self_ns = tracer.stats.get("linalg.Matrix.rref", (0, 0, 0))
    out["linalg.rref.calls"] = calls
    out["linalg.rref.self_s"] = self_ns / 1e9
    out["linalg.rref.cells"] = tracer.rref["cells"]
    out["linalg.rref.nnz_frac"] = (tracer.rref["nnz"] / tracer.rref["cells"]
                                   if tracer.rref["cells"] else 0.0)
    out["linalg.rref.max_bits"] = tracer.rref["max_bits"]
    for traced, prefix, fields in FUNCTIONS:
        calls, total, self_ns = tracer.stats.get(traced, (0, 0, 0))
        values = {"calls": calls, "self_s": self_ns / 1e9, "total_s": total / 1e9,
                  "unique_frac": len(tracer.keys.get(traced, ())) / calls if calls else 0.0}
        for field in fields:
            out[f"{prefix}.{field}"] = values[field]
    info = tracer.cache_infos()["quiver.PathEnumerator.basis"]
    out["quiver.PathEnumerator.basis.hits"] = info.hits - cache_before.hits
    out["quiver.PathEnumerator.basis.misses"] = info.misses - cache_before.misses
    out["quiver.PathEnumerator.basis.calls"] = (out["quiver.PathEnumerator.basis.hits"]
                                                + out["quiver.PathEnumerator.basis.misses"])
    harness_s = (tracer.harness_ns + glue_ns) / 1e9
    layers = sum(v for k, v in out.items() if k.startswith("layer."))
    out["trace.wall_s"] = wall_s
    out["trace.harness_s"] = harness_s
    out["trace.accounted_frac"] = (layers + harness_s) / wall_s if wall_s else 0.0
    return out


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--golden")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)
    signal.alarm(PASS_LIMIT_S)

    wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke, args.workdir)
    wl.setup()
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        cache_before = tracer.cache_infos()["quiver.PathEnumerator.basis"]
    clock = time.perf_counter_ns
    t_first = time.monotonic()
    ops, glue_ns = [], 0
    for key, fn in wl.ops():
        err = None
        result = None
        if tracer:
            tracer.stack[0] = 0
            tracer.enabled = True
        t0 = clock()
        try:
            result = fn()
        except Exception:                       # an operation that raised has failed
            err = "raised: " + traceback.format_exc(limit=3).strip().splitlines()[-1]
        t1 = clock()
        if tracer:
            tracer.enabled = False
            glue_ns += (t1 - t0) - tracer.stack[0]
        digest = None
        if err is None:
            try:
                digest, err = wl.check(key, result)
            except Exception:
                err = "check raised: " + traceback.format_exc(limit=3).strip().splitlines()[-1]
        del result
        ops.append([key, (t1 - t0) / 1e9, digest, err])
    deferred = wl.finish()
    golden = {}
    if not args.record:
        with open(args.golden, encoding="utf-8") as fh:
            golden = json.load(fh)[wl.name][wl.golden_class()]
    for op in ops:
        key, digest = op[0], op[2]
        if op[3] is None:
            op[3] = deferred.get(key)
        if op[3] is None and not args.record and golden.get(key) != digest:
            op[3] = f"golden mismatch: {digest} != {golden.get(key)}"

    from koszul import kernel_backend

    wall_s = sum(op[1] for op in ops)
    result = {"t_first_op": t_first, "wall_s": wall_s, "ops": ops, "info": wl.info(),
              "backend": kernel_backend(), "golden_class": wl.golden_class(),
              "trace": trace_metrics(tracer, cache_before, glue_ns, wall_s) if tracer else None}
    sys.stdout.write("\n" + json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
