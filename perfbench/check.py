"""Run every workload on the default and the held-out seed, untraced, and
print every end-to-end metric with its unit.

    python3 perfbench/check.py

Each run measures BENCHMARK.json's ``run_seconds``, as the declared runs do.
Run from the repository root.  Exits 0 only when every job of every run
matched its golden digest (failed_share = 0).  A performance claim is
measured on the default seed and re-checked on the held-out seed, which
is not used while a change is written.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from workloads import RUNNERS

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 1
HELD_OUT_SEED = 2


def main() -> int:
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    all_correct = True
    for workload in RUNNERS:
        for label, seed in (("default", DEFAULT_SEED), ("held-out", HELD_OUT_SEED)):
            cmd = [
                sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
            ]  # fmt: skip
            out = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=600)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                print(f"{workload} seed {seed} ({label}): run failed with code {out.returncode}\n{out.stderr}")
                all_correct = False
                continue
            result = json.loads(lines[-1])
            share = result["failed"] / result["attempted"]
            all_correct = all_correct and result["correct"]
            print(f"{workload} seed {seed} ({label}): {result['attempted']} jobs, failed_share = {share:.6g}, correct = {result['correct']}")
            for name, m in result["metrics"].items():
                print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print("golden digests: " + ("all match" if all_correct else "MISMATCH or failure, see above"))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
