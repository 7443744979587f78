"""Self-test of the benchmark harness; run from the root of a checkout.

    python3 perfbench/selftest.py

1. Smoke: every workload at minimal size, one pass each, traced and
   untraced; each must report correct with no failed operation.
2. Corrupted golden: one golden entry is altered; the run must then report
   failed > 0 (fail_ratio > 0) and correct = false.
Exits 0 when both hold.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def run(*extra):
    cmd = [sys.executable, str(HERE / "run.py"), "--seed", "5", "--smoke", *extra]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    problems = []
    for name in WORKLOADS:
        for trace in ("0", "1"):
            res = run("--workload", name, "--trace", trace)
            ok = res["correct"] and res["failed"] == 0 and res["attempted"] > 0
            print(f"smoke {name} trace={trace}: attempted {res['attempted']}, "
                  f"failed {res['failed']} -> {'ok' if ok else 'FAIL'}")
            if not ok:
                problems.append(f"smoke {name} trace={trace}")

    golden = json.loads((HERE / "golden.json").read_text())
    entries = golden["certify-corpus"]["5"]
    first = sorted(entries)[0]
    entries[first] = "0" * len(entries[first])
    bad = Path(".perfbench_work") / "corrupted-golden.json"
    bad.parent.mkdir(exist_ok=True)
    bad.write_text(json.dumps(golden))
    try:
        res = run("--workload", "certify-corpus", "--trace", "0", "--golden", str(bad))
    finally:
        bad.unlink()
    ratio = res["failed"] / res["attempted"]
    ok = ratio > 0 and not res["correct"]
    print(f"corrupted golden entry {first}: fail_ratio {ratio:.3f}, correct {res['correct']} "
          f"-> {'ok' if ok else 'FAIL'}")
    if not ok:
        problems.append("corrupted golden not detected")
    if problems:
        raise SystemExit("self-test failed: " + ", ".join(problems))
    print("self-test passed")


if __name__ == "__main__":
    main()
