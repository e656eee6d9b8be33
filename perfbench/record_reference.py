"""Rewrite reference.json from the library as it stands in this checkout.

    PYTHONPATH=src python3 perfbench/record_reference.py

Runs every seed-independent (`recorded`) op of every workload once and
stores its summary: Fisher triple, QFI matrix, depth certificate and violated
criterion ids for analysis ops; fisher_quantum, fisher_classical and excluded
outcomes for crb ops; exit code plus stdout digest (crb: full stdout) for
cold CLI ops. Re-record only when a change to the library's output is
intended, and say which values moved and by how much.
"""
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import ops  # noqa: E402


def main() -> int:
    os.environ["PYTHONPATH"] = os.path.join(os.path.dirname(HERE), "src")
    workdir = tempfile.mkdtemp(dir=HERE, prefix=".work-record-")
    reference = {}
    try:
        for workload in ops.WORKLOADS:
            for op in ops.BUILDERS[workload](0, workdir):
                if op.recorded:
                    summary = op.summarize(op.run())
                    problems = summary.pop("_problems") + ops.compare(summary, op.expect, op.n)
                    if problems:
                        print(f"{op.name}: {problems}", file=sys.stderr)
                        return 1
                    reference[op.name] = summary
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(reference)} ops")
    return 0


if __name__ == "__main__":
    sys.exit(main())
