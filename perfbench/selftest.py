#!/usr/bin/env python3
"""Self-test of the benchmark at tiny size (2 epochs, at most 3 realizations).

    python3 perfbench/selftest.py

Checks, for every workload, that an untraced run emits exactly the
end-to-end metrics of BENCHMARK.json and a traced run exactly its
per-layer metrics, each with its unit; that flipping one byte of one
artifact makes the run fail, against a reference and against the run's
own first pass; and that a trace target the package lacks only marks
its metrics missing.  Prints "ok" and exits 0 when all hold.
"""

import json
import shutil

import run
import spans
import workloads


def tiny(exps: list[dict]) -> list[dict]:
    out = []
    for exp in exps:
        r = min(exp["realizations"], 3)
        out.append({**exp, "realizations": r, "rsteps": r * 100 * 2,
                    "overrides": {**exp["overrides"], "epochs": 2, "n_realizations": r}})
    return out


def flip_one_byte(out_root) -> None:
    path = sorted(out_root.rglob("*.csv"))[0]
    data = bytearray(path.read_bytes())
    data[-2] ^= 1
    path.write_bytes(bytes(data))


def check(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selftest failed: {what}")


def main() -> None:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    check({w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS),
          "BENCHMARK.json names the workloads of workloads.py")
    mp = run.import_package()

    for name in workloads.WORKLOADS:
        exps = tiny(workloads.experiments(name, workloads.DEFAULT_SEED))
        for trace, expected in ((False, end_to_end), (True, per_layer)):
            result, _ = run.run_benchmark(name, workloads.DEFAULT_SEED, 0, trace, exps=exps, setup_samples=1)
            emitted = {k: m["unit"] for k, m in result["metrics"].items()}
            check(emitted == expected, f"{name} trace={trace} emits {sorted(emitted)} with units as listed")
            check(result["correct"] and result["failed"] == 0, f"{name} trace={trace} passes its own checks")

        work = run.ROOT / ".perfbench_work" / "selftest"
        run.run_pass(mp, exps, work, None)
        reference = {e["id"]: run.artifact_digests(work / e["id"]) for e in exps}
        shutil.rmtree(work, ignore_errors=True)
        result, _ = run.run_benchmark(name, 0, 0, False, exps=exps, reference=reference, setup_samples=1)
        check(result["failed"] == 0, f"{name} matches a reference recorded from the same code")
        result, _ = run.run_benchmark(name, 0, 0, False, exps=exps, reference=reference, setup_samples=1,
                                      corrupt=flip_one_byte)
        check(result["failed"] > 0 and not result["correct"], f"{name} flipped byte fails the reference")

        calls = []

        def flip_in_second_pass(out_root):
            calls.append(out_root)
            if len(calls) == 2:
                flip_one_byte(out_root)

        result, _ = run.run_benchmark(name, 0, 0, False, exps=exps, reference=None, setup_samples=1,
                                      corrupt=flip_in_second_pass)
        check(result["failed"] == 1, f"{name} flipped byte in one pass fails the cross-pass check")

    spans.TARGETS += (("memperceptron.harness.train_folded_ensemble", "slp.train"),)
    exps = tiny(workloads.experiments("protocol", workloads.DEFAULT_SEED))
    result, report = run.run_benchmark("protocol", 0, 0, True, exps=exps)
    lost = {k for k in per_layer if k.startswith("slp.train.")} | {"harness.init.s"}
    check(result["correct"] and set(result["metrics"]) == set(per_layer) - lost,
          "a missing trace target drops only its own metrics")
    check(any(line.startswith("missing per-layer metrics: slp.train.") for line in report),
          "a missing trace target is reported")
    print("ok")


if __name__ == "__main__":
    main()
