"""quiver-koszul benchmark: end-to-end and per-layer metrics of four workloads.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 60 --trace 0

Run from the root of a source checkout.  BENCHMARK.json gates `certify` and
`resolve`; `functor-ext` and `certify-corpus` run the same way by hand.
Each pass runs in a fresh Python process (cold caches; peak memory is per
pass), one at a time, single threaded, until `--seconds` is spent (at least
MIN_PASSES passes).  Every operation's output is compared with `golden.json`
and checked by an oracle (`oracles.py`); the last stdout line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--trace 0` reports the end-to-end metrics of BENCHMARK.json, each a median
over passes: pass time (the operations only), CPU time, set-up time (spawn to
first operation), peak RSS, and the p50/p90 operation latency of a pass.
`--trace 1` alternates untraced and traced passes and reports the per-layer
metrics; traced outputs must be byte-identical to untraced ones.
`fail_ratio` (failed / attempted) is printed on the lines above the result;
it is carried by `attempted` and `failed` because it is 0 whenever the
program is right.

Other modes: `--smoke` (minimal size, one pass, no time budget), `--golden
FILE` (compare with another golden file; the self-test uses it), and
`--record-golden [--workload W]` (rewrite golden.json from this tree).
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import SEED_CLASSES, WORKLOADS  # noqa: E402

MIN_PASSES = 3
RUN_LIMIT_S = 150           # no pass starts later than this, within the 180 s run limit
CLEARED_ENV = ("KOSZUL_THREADS", "KOSZUL_PURE_PYTHON")
WORKDIR = Path(".perfbench_work")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def pass_env():
    env = dict(os.environ)
    removed = [k for k in CLEARED_ENV if env.pop(k, None) is not None]
    env["PYTHONPATH"] = "src"
    env["PYTHONHASHSEED"] = "0"
    return env, removed


def run_pass(workload, seed, trace, smoke, golden, env, record=False):
    """One fresh pass process; returns its result dict plus rusage numbers."""
    workdir = WORKDIR / f"pass-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(HERE / "onepass.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", str(workdir)]
    cmd += ["--trace"] * trace + ["--smoke"] * smoke
    cmd += ["--record"] if record else ["--golden", str(golden)]
    t_spawn = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env)
    try:
        out = proc.stdout.read().decode("utf-8", "replace")
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        shutil.rmtree(workdir, ignore_errors=True)
    last = out.strip().splitlines()[-1] if out.strip() else ""
    if proc.returncode != 0 or not last.startswith("{"):
        fail(f"pass exited {proc.returncode}:\n{out[-3000:]}")
    res = json.loads(last)
    res["setup_s"] = res["t_first_op"] - t_spawn
    res["cpu_s"] = usage.ru_utime + usage.ru_stime
    res["peak_rss_mb"] = usage.ru_maxrss / 1024
    res["total_s"] = time.monotonic() - t_spawn
    return res


def percentile(values, q):
    """q-th percentile (0 < q < 100) by linear interpolation between order statistics."""
    vals = sorted(values)
    if len(vals) == 1:
        return vals[0]
    pos = (len(vals) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(vals) - 1)
    return vals[lo] + (vals[hi] - vals[lo]) * (pos - lo)


def environment(args, removed, backend, load_before):
    src = hashlib.sha256()
    for path in sorted(Path("src").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".pyx"):
            src.update(str(path).encode() + b"\0" + path.read_bytes())
    commit = None
    if Path(".git").exists() and shutil.which("git"):
        got = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = got.stdout.strip() or None
    return {"workload": args.workload, "seed": args.seed,
            "seed_class": args.seed % SEED_CLASSES, "commit": commit,
            "src_sha256": src.hexdigest(), "python": sys.version.split()[0],
            "kernel_backend": backend, "nproc": len(os.sched_getaffinity(0)),
            "loadavg_before": load_before, "loadavg_after": list(os.getloadavg()),
            "cleared_env": list(CLEARED_ENV), "cleared_env_were_set": removed,
            "PYTHONHASHSEED": "0"}


def run_workload(args, env):
    """Fresh-process passes until the time is spent; traced ones alternate if --trace 1."""
    start = time.monotonic()
    need = 2 if args.trace else 1 if args.smoke else MIN_PASSES
    passes = []
    while True:
        trace = bool(args.trace) and len(passes) % 2 == 1
        passes.append(run_pass(args.workload, args.seed, trace, args.smoke, args.golden, env))
        if len(passes) < need:
            continue
        if args.smoke:
            return passes
        elapsed = time.monotonic() - start
        typical = statistics.median(p["total_s"] for p in passes)
        if elapsed + typical > min(args.seconds, RUN_LIMIT_S):
            return passes


def summarize(args, passes):
    untraced = [p for p in passes if p["trace"] is None]
    traced = [p for p in passes if p["trace"] is not None]
    attempted = sum(len(p["ops"]) for p in passes)
    # every pass, traced or not, must give the first untraced pass's bytes
    base = {op[0]: op[2] for op in untraced[0]["ops"]}
    failures = [(op[0], op[3] or "output differs from the first untraced pass")
                for p in passes for op in p["ops"] if op[3] or op[2] != base.get(op[0])]
    failed = len(failures)
    correct = failed == 0
    # latency percentiles within each pass, then the median over passes
    lats = [[op[1] for op in p["ops"]] for p in untraced]
    e2e = {
        "wall_s": (statistics.median(p["wall_s"] for p in untraced), "s"),
        "cpu_s": (statistics.median(p["cpu_s"] for p in untraced), "s"),
        "setup_s": (statistics.median(p["setup_s"] for p in untraced), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in untraced), "MB"),
        "op_p50_s": (statistics.median(percentile(lat, 50) for lat in lats), "s"),
        "op_p90_s": (statistics.median(percentile(lat, 90) for lat in lats), "s"),
    }
    notes = {"passes": len(untraced), "traced_passes": len(traced), "ops_per_pass": len(lats[0]),
             "fail_ratio": failed / attempted if attempted else 1.0,
             "failures": failures[:10]}
    if not args.trace:
        return correct, attempted, failed, e2e, notes
    per_layer = {}
    for name in traced[0]["trace"]:
        per_layer[name] = (statistics.median(p["trace"][name] for p in traced),
                           unit_of(name))
    # the cost of the measurement itself: traced over untraced pass time
    per_layer["trace.overhead_ratio"] = (
        statistics.median(p["wall_s"] for p in traced) / e2e["wall_s"][0], "ratio")
    return correct, attempted, failed, per_layer, notes


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_ratio")):
        return "ratio"
    if name.endswith("max_bits"):
        return "bits"
    return "count"


def record_golden(env, only=None):
    """Rewrite golden.json (or one workload's part of it) from this tree, one pass per seed class."""
    path = HERE / "golden.json"
    golden = json.loads(path.read_text()) if only else {}
    for name, cls in WORKLOADS.items():
        if only and name != only:
            continue
        classes = ["all"] if cls(0, False, "").golden_class() == "all" else range(SEED_CLASSES)
        golden[name] = {}
        for c in classes:
            res = run_pass(name, 0 if c == "all" else c, False, False, None, env, record=True)
            bad = [op for op in res["ops"] if op[3]]
            if bad:
                fail(f"{name} class {c}: {bad[:3]}")
            golden[name][res["golden_class"]] = {op[0]: op[2] for op in res["ops"]}
            print(f"recorded {name} class {res['golden_class']}: {len(res['ops'])} ops",
                  file=sys.stderr)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=0, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--golden", default=str(HERE / "golden.json"))
    ap.add_argument("--record-golden", action="store_true")
    args = ap.parse_args(argv)
    if not Path("src/koszul/__init__.py").is_file():
        fail("run from the root of a quiver-koszul checkout (src/koszul not found)")
    if not args.record_golden and args.workload is None:
        fail("--workload is required")
    # build: byte-compile once so that every pass imports the same way
    for tree in ("src", str(HERE)):
        if not compileall.compile_dir(tree, quiet=1):
            fail(f"byte-compiling {tree} failed")
    env, removed = pass_env()
    if args.record_golden:
        record_golden(env, args.workload)
        return 0
    load_before = list(os.getloadavg())
    passes = run_workload(args, env)
    correct, attempted, failed, metrics, notes = summarize(args, passes)
    env_rec = environment(args, removed, passes[0]["backend"], load_before)
    print(json.dumps({"environment": env_rec}, sort_keys=True))
    if passes[0]["info"]:
        print(json.dumps({"inputs": passes[0]["info"]}, sort_keys=True))
    print(f"{args.workload}: {notes['passes']} untraced + {notes['traced_passes']} traced "
          f"passes, {notes['ops_per_pass']} operations per pass; fail_ratio = {notes['fail_ratio']:.4g} "
          f"({failed}/{attempted})")
    print("  pass wall_s: " + " ".join(f"{p['wall_s']:.3f}" + "t" * (p["trace"] is not None)
                                      for p in passes))
    for op, err in notes["failures"]:
        print(f"  FAILED {op}: {err}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
