#!/usr/bin/env python3
"""Record the reference artifact digests of the workloads at the default seed.

    python3 perfbench/record_reference.py [workload ...]

Runs one pass of each named workload (all by default) and writes the
sha256 of every CSV and SVG into reference.json, together with the
experiments they came from.  Record only when a workload's experiments
change, from a commit whose outputs are trusted; run.py then checks every
run at the default seed against these digests.
"""

import json
import shutil
import sys

import run
import workloads


def main() -> None:
    names = sys.argv[1:] or sorted(workloads.WORKLOADS)
    reference = json.loads(run.REFERENCE_PATH.read_text()) if run.REFERENCE_PATH.is_file() else {}
    mp = run.import_package()
    work = run.ROOT / ".perfbench_work" / "reference"
    for name in names:
        exps = workloads.experiments(name, workloads.DEFAULT_SEED)
        p = run.run_pass(mp, exps, work / name, None)
        errors = [r["error"] for r in p["results"] if r["error"] is not None]
        if errors:
            raise SystemExit(f"{name}: {len(errors)} experiments raised:\n" + "\n".join(errors))
        reference[name] = {
            "experiments": [e["overrides"] for e in exps],
            "digests": {e["id"]: run.artifact_digests(work / name / e["id"]) for e in exps},
        }
        print(f"{name}: {len(exps)} experiments in {p['wall']:.2f} s")
    shutil.rmtree(work, ignore_errors=True)
    run.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
