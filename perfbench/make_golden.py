"""Write the golden digest of every job in a workload's universe.

    python3 perfbench/make_golden.py --workload classify|cohomology|quadratic [--costs]

Run from the repository root, on a commit whose outputs are known good.
A golden digest is the first 16 hex digits of the SHA-256 of the job's
canonical output: the sorted-key ``--json`` stdout of ``hjj classify``, or
the ``hjj.documents.emit_document`` text of the other workloads.  Any
change to ``golden/`` is a change of canonical output and needs a reason.

``--costs`` also records each job's run time in ``costs/``, which fixes the
strata the job streams are dealt from.  Re-recording costs changes the
workload, so it belongs to a change of the benchmark only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import RUNNERS, Job, universe  # noqa: E402


def _write(path: Path, table: dict):
    path.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    parser.add_argument("--costs", action="store_true", help="also record job run times in costs/")
    args = parser.parse_args(argv)
    runner = RUNNERS[args.workload]
    digests, costs = {}, {}
    for entry in universe(args.workload):
        job = Job(entry.key, entry.build())
        t0 = time.perf_counter()
        out = runner(job)
        costs[entry.key] = round(time.perf_counter() - t0, 4)
        digests[entry.key] = hashlib.sha256(out.encode("utf-8")).hexdigest()[:16]
    _write(HERE / "golden" / f"{args.workload}.json", digests)
    if args.costs:
        _write(HERE / "costs" / f"{args.workload}.json", costs)
    print(f"{len(digests)} jobs of {args.workload} written")
    return 0


if __name__ == "__main__":
    sys.exit(main())
