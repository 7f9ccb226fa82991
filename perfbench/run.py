#!/usr/bin/env python3
"""Benchmark of memperceptron's experiment harness, end to end and per layer.

    python3 perfbench/run.py --workload protocol --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
src/ directory.  One process and one thread drive the public API
(parse_config, run_learning_experiment, run_roc_experiment) through the
experiments of one workload (see workloads.py), pass after pass, until
--seconds have gone by.

--trace 0 reports the end-to-end metrics wall_s, setup_s,
slp_rsteps_per_s, mlp_rsteps_per_s and peak_rss_mb.  The timings are
built from each experiment's fastest run over the passes: on a shared
2-core host, other tenants slow stretches of seconds to minutes by up to
1.9x, so the median of one run's passes moved by 15-30% from run to run,
and the fastest runs by 3-11% (baseline.json).  Every pass time is still
printed, with quartiles.  setup_s is the median of fresh-interpreter
samples (setup_probe.py) taken between the passes.

--trace 1 alternates plain passes with passes in which the public calls
the harness makes are wrapped in spans (spans.py).  It reports the
per-layer metrics of the fastest traced pass, the tracing overhead
(wall_s of the traced passes over that of the plain ones) and the wall
time no span covers.  Trainer figures at a realization count R that the
workload does not run come from a short probe, so every traced run
prints the whole R-scaling table.

Every pass hashes every CSV and SVG it wrote.  An experiment fails when it
raises or when a digest differs from reference.json (at the default seed)
or from the run's first pass (at other seeds, whose digests are printed).
The last line of stdout is one JSON object: correct, attempted, failed
(experiments) and metrics.  `python3 perfbench/selftest.py` checks the
benchmark itself.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import Counter, defaultdict
from importlib import metadata
from pathlib import Path
from time import perf_counter

# One thread, as the package's users run it: no BLAS worker pool (set before numpy loads).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import workloads  # noqa: E402
from spans import Tracer, missing_spans  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE_PATH = BENCH_DIR / "reference.json"

MIN_PASSES = 3          # untraced passes per run, at least
MIN_TRACED_PAIRS = 2    # traced runs: plain and traced passes, at least this many each
SETUP_SAMPLES = 7       # fresh interpreters timed for setup_s, at least
TRAIN_RS = (1, 100, 1000)
PROBE_EPOCHS = {1: 30, 100: 8, 1000: 3}
PROBE_ROUNDS = 3

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "slp_rsteps_per_s": "1/s",
    "mlp_rsteps_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# name -> (unit, span names it is computed from); a metric whose spans
# could not be installed is reported missing rather than wrong.
_ALL_TRAIN = ("harness.trained_ensemble", "data.generate_dataset", "slp.train", "mlp.train")
PER_LAYER = {
    **{f"{m}.train.us_per_step.r{r}": ("us", (f"{m}.train",)) for m in ("slp", "mlp") for r in TRAIN_RS},
    **{f"{m}.train.ns_per_real_step.r{r}": ("ns", (f"{m}.train",)) for m in ("slp", "mlp") for r in TRAIN_RS},
    "harness.init.s": ("s", _ALL_TRAIN),
    "harness.parse_config.s": ("s", ("harness.parse_config",)),
    "data.generate_dataset.s": ("s", ("data.generate_dataset",)),
    "data.generate_dataset.calls": ("count", ("data.generate_dataset",)),
    "harness.ensemble_scores.s": ("s", ("harness.ensemble_scores",)),
    "metrics.roc.s": ("s", ("metrics.roc",)),
    "harness.aggregate_curve.s": ("s", ("harness.aggregate_curve",)),
    "metrics.csv.s": ("s", ("metrics.csv",)),
    "metrics.csv.bytes": ("B", ()),
    "svgplot.svg.s": ("s", ("svgplot.svg",)),
    "svgplot.svg.bytes": ("B", ()),
    "trace.overhead_frac": ("frac", ()),
    "trace.uncovered_s": ("s", ()),
}
_TIMED_SPANS = ("harness.parse_config", "data.generate_dataset", "harness.ensemble_scores",
                "metrics.roc", "harness.aggregate_curve", "metrics.csv", "svgplot.svg")


def import_package():
    """Import memperceptron from this checkout's src/, and nothing else."""
    pkg = ROOT / "src" / "memperceptron"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {pkg}")
    sys.path.insert(0, str(pkg.parent))
    import memperceptron

    if Path(memperceptron.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"perfbench: imported memperceptron from {memperceptron.__file__}, not {pkg}")
    return memperceptron


def git_commit() -> str:
    """The checkout's commit, read from .git without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_facts() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    versions = {}
    for dist in ("numpy", "scipy"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = "absent"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg": list(os.getloadavg()),
        "python": sys.version.split()[0],
        **versions,
        "commit": git_commit(),
    }


def setup_seconds(workload: str, seed: int) -> float:
    """Set-up time of the workload, timed inside one fresh interpreter."""
    out = subprocess.run([sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed)],
                         cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def artifact_digests(exp_dir: Path) -> dict[str, str]:
    if not exp_dir.is_dir():
        return {}
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(exp_dir.iterdir())}


def load_reference(workload: str, seed: int, exps: list[dict]) -> dict | None:
    """Reference digests per experiment id at the default seed, else None.

    A reference recorded for other experiments than `exps` is stale; it
    is returned empty, so that every experiment fails the check.
    """
    if seed != workloads.DEFAULT_SEED:
        return None
    entry = json.loads(REFERENCE_PATH.read_text()).get(workload)
    if entry is None or entry["experiments"] != [e["overrides"] for e in exps]:
        print(f"reference digests for {workload} missing or stale", file=sys.stderr)
        return {}
    return entry["digests"]


def run_pass(mp, exps: list[dict], out_root: Path, tracer: Tracer | None) -> dict:
    """Run every experiment once; returns wall time and per-experiment results.

    An experiment's `seconds` times its run_* call, `elapsed` that call
    together with its parse_config.
    """
    results = []
    t0 = perf_counter()
    for exp in exps:
        res = {"id": exp["id"], "model": exp["model"], "rsteps": exp["rsteps"], "error": None}
        try:
            t = perf_counter()
            config = mp.parse_config(overrides={**exp["overrides"], "out_dir": str(out_root / exp["id"])})
            run = mp.run_learning_experiment if exp["kind"] == "curve" else mp.run_roc_experiment
            if tracer is not None:
                tracer.context = exp
            t_run = perf_counter()
            run(config)
            res["seconds"] = perf_counter() - t_run
            res["elapsed"] = perf_counter() - t
        except Exception:  # a failing experiment is counted, and the run goes on
            res["error"] = traceback.format_exc()
        results.append(res)
    return {"wall": perf_counter() - t0, "results": results}


def train_figures(spans) -> dict[str, float]:
    """us per step and ns per realization-step of each trainer, by R."""
    acc = defaultdict(lambda: [0.0, 0])
    for s in spans:
        if s.name in ("slp.train", "mlp.train"):
            r = s.context["realizations"]
            acc[(s.name, r)][0] += s.seconds
            acc[(s.name, r)][1] += s.context["rsteps"] // r
    out = {}
    for (name, r), (seconds, steps) in acc.items():
        out[f"{name}.us_per_step.r{r}"] = seconds / steps * 1e6
        out[f"{name}.ns_per_real_step.r{r}"] = seconds / (steps * r) * 1e9
    return out


def layer_figures(spans, wall: float) -> dict[str, float]:
    """Per-layer figures of one traced pass."""
    seconds = defaultdict(float)
    calls = Counter()
    for s in spans:
        seconds[s.name] += s.seconds
        calls[s.name] += 1
    out = {f"{name}.s": seconds[name] for name in _TIMED_SPANS}
    out["data.generate_dataset.calls"] = calls["data.generate_dataset"]
    out["harness.init.s"] = sum(s.seconds - s.child_s for s in spans if s.name == "harness.trained_ensemble")
    out["trace.uncovered_s"] = wall - sum(s.seconds for s in spans if s.parent < 0)
    out.update(train_figures(spans))
    return out


def probe_trainers(mp, tracer: Tracer, seed: int, wanted) -> dict[str, float]:
    """Short trainer runs on OR at the (model, R) pairs in `wanted`, best of PROBE_ROUNDS.

    Runs nothing when the harness has no trained_ensemble to call.
    """
    tracer.take()
    if "memperceptron.harness.trained_ensemble" in tracer.missing:
        return {}
    best: dict[str, float] = {}
    for _ in range(PROBE_ROUNDS):
        for model, r in sorted(wanted):
            exp = workloads.experiment("curve", model, "OR", seed, PROBE_EPOCHS[r], r)
            tracer.context = exp
            mp.harness.trained_ensemble(mp.parse_config(overrides=exp["overrides"]))
        for k, v in train_figures(tracer.take()).items():
            best[k] = min(v, best.get(k, v))
    return best


def check_passes(passes: list[dict], reference: dict | None) -> list[str]:
    """One line per failed experiment over all passes.

    With a reference every digest must match it; without one (seeds other
    than the default) every pass must match the run's first good pass.
    """
    expected = {} if reference is None else reference
    failures = []
    for i, p in enumerate(passes):
        for res in p["results"]:
            if res["error"] is not None:
                failures.append(f"pass {i} {res['id']}: raised\n{res['error']}")
                continue
            if reference is None:
                expected.setdefault(res["id"], res["digests"])
            if not res["digests"] or res["digests"] != expected.get(res["id"]):
                against = "reference.json" if reference is not None else "the first pass"
                failures.append(f"pass {i} {res['id']}: artifact digests differ from {against}")
    return failures


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.4f}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"median {q2:.4f} (q1 {q1:.4f}, q3 {q3:.4f}, n={len(values)})"


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  exps: list[dict] | None = None, reference: dict | None = None,
                  setup_samples: int = SETUP_SAMPLES, corrupt=None) -> tuple[dict, list[str]]:
    """Measure one workload; returns (result object, report lines).

    exps and reference default to the workload's own experiments and its
    recorded digests.  `corrupt`, if given, is called with each pass's
    output directory before the artifacts are hashed; the self-test uses
    it to flip a byte.
    """
    report = [f"machine {json.dumps(machine_facts())}"]
    if exps is None:
        exps = workloads.experiments(workload, seed)
        reference = load_reference(workload, seed, exps)
    setup = []
    mp = import_package()
    modules = {"memperceptron": mp, "memperceptron.harness": mp.harness}
    work = ROOT / ".perfbench_work" / f"{workload}-{os.getpid()}"
    tracer = Tracer()
    passes = []
    try:
        # The first pass and set-up warm caches and lazy imports; they are checked but not timed.
        passes.append(_measured_pass(mp, exps, work / "warmup", None, corrupt, "warmup"))
        if not trace:
            setup_seconds(workload, seed)
        start = perf_counter()
        while True:
            plain = [p for p in passes if p["kind"] == "plain"]
            traced = [p for p in passes if p["kind"] == "traced"]
            enough = (min(len(plain), len(traced)) >= MIN_TRACED_PAIRS if trace
                      else len(plain) >= MIN_PASSES and len(setup) >= setup_samples)
            if enough and perf_counter() - start >= seconds:
                break
            if not trace:
                # Set-up samples spread over the whole run, between passes, so
                # that one slow stretch of the host cannot hold all of them.
                setup.append(setup_seconds(workload, seed))
            if trace and len(plain) > len(traced):
                tracer.install(modules)
                try:
                    p = _measured_pass(mp, exps, work / f"pass{len(passes)}", tracer, corrupt, "traced")
                finally:
                    tracer.uninstall()
            else:
                p = _measured_pass(mp, exps, work / f"pass{len(passes)}", None, corrupt, "plain")
            passes.append(p)
        probe = {}
        if trace:
            native = {k for p in traced for k in p["layers"]}
            wanted = {(m, r) for m in ("slp", "mlp") for r in TRAIN_RS
                      if f"{m}.train.us_per_step.r{r}" not in native}
            tracer.install(modules)
            try:
                probe = probe_trainers(mp, tracer, seed, wanted)
            finally:
                tracer.uninstall()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    report.extend(f"pass {i} {p['kind']} wall {p['wall']:.4f} s" for i, p in enumerate(passes))
    failures = check_passes(passes, reference)
    failed = len(failures)
    attempted = len(passes) * len(exps)
    report.extend(failures)
    if reference is None:
        report.append(f"digests {json.dumps({r['id']: r['digests'] for r in passes[0]['results']})}")
    walls = [p["wall"] for p in plain]
    report.append(f"pass wall {quartiles(walls)}")
    report.append(f"failed_frac {failed / attempted} ({failed} of {attempted} experiments)")

    if trace:
        metrics, missing = _layer_metrics(passes, probe, tracer.missing, report)
        if missing:
            report.append(f"missing per-layer metrics: {', '.join(missing)}")
    else:
        metrics = {
            "wall_s": sum(_fastest(plain, "elapsed")),
            "setup_s": statistics.median(setup),
            "slp_rsteps_per_s": _rsteps_per_s(exps, _fastest(plain, "seconds"), "slp"),
            "mlp_rsteps_per_s": _rsteps_per_s(exps, _fastest(plain, "seconds"), "mlp"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        report.append(f"setup_s {quartiles(setup)}")
    units = {**END_TO_END, **{k: v[0] for k, v in PER_LAYER.items()}}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    return result, report


def _measured_pass(mp, exps, out_root: Path, tracer: Tracer | None, corrupt, kind: str) -> dict:
    """One pass, plus its artifact digests and, when traced, its layer figures."""
    p = run_pass(mp, exps, out_root, tracer)
    p["kind"] = kind
    if tracer is not None:
        p["layers"] = layer_figures(tracer.take(), p["wall"])
        p["layers"]["metrics.csv.bytes"] = sum(f.stat().st_size for f in out_root.rglob("*.csv"))
        p["layers"]["svgplot.svg.bytes"] = sum(f.stat().st_size for f in out_root.rglob("*.svg"))
    if corrupt is not None:
        corrupt(out_root)
    for res in p["results"]:
        res["digests"] = artifact_digests(out_root / res["id"])
    shutil.rmtree(out_root, ignore_errors=True)
    return p


def _fastest(passes: list[dict], key: str) -> list[float]:
    """Per experiment, its fastest `key` time over the passes it succeeded in; 0 if none."""
    return [min((p["results"][i][key] for p in passes if p["results"][i]["error"] is None), default=0.0)
            for i in range(len(passes[0]["results"]))]


def _rsteps_per_s(exps: list[dict], seconds: list[float], model: str) -> float:
    mine = [i for i, e in enumerate(exps) if e["model"] == model and seconds[i] > 0.0]
    total = sum(seconds[i] for i in mine)
    return sum(exps[i]["rsteps"] for i in mine) / total if total else 0.0


def _layer_metrics(passes, probe, missing_targets, report) -> tuple[dict, list[str]]:
    traced = [p for p in passes if p["kind"] == "traced"]
    plain = [p for p in passes if p["kind"] == "plain"]
    values = dict(min(traced, key=lambda p: p["wall"])["layers"])
    for k, v in probe.items():
        values.setdefault(k, v)
    values["trace.overhead_frac"] = sum(_fastest(traced, "elapsed")) / sum(_fastest(plain, "elapsed")) - 1.0
    for m in ("slp", "mlp"):
        for r in TRAIN_RS:
            us = values.get(f"{m}.train.us_per_step.r{r}")
            if us is not None:
                source = "probe" if f"{m}.train.us_per_step.r{r}" in probe else "workload"
                report.append(f"r-scaling {m} R={r}: {us:.2f} us/step, "
                              f"{values[f'{m}.train.ns_per_real_step.r{r}']:.2f} ns/realization-step ({source})")
    gone = missing_spans(missing_targets)
    metrics, missing = {}, []
    for name, (_, needs) in PER_LAYER.items():
        if name in values and not gone.intersection(needs):
            metrics[name] = values[name]
        else:
            missing.append(name)
    return metrics, missing


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    result, report = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in report:
        print(line)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
