"""Benchmark workloads: which experiments each one runs, as plain data.

This module imports nothing from the package or numpy, so the set-up
probe can import it before it starts timing the package import.

Every experiment is driven through the package's public API with the
protocol's dataset size (100), learning rates (the per-model defaults)
and 2-2-1 topology.  Only the epoch counts are scaled down from the
protocol's 1000 (curves) and 500 (ROC), so that one pass of a workload
takes about a second and a run holds many passes.
"""

DEFAULT_SEED = 0
# single_model trains every pair at two base seeds; the second is far
# enough away that its datasets and weight draws share no seed with the
# first (ROC evaluation uses base + 1, realization r uses base + r).
SECOND_SEED_OFFSET = 1000

PAIRS = tuple((model, gate) for model in ("slp", "mlp") for gate in ("OR", "AND", "XOR"))

# Why each workload exists is recorded with it in BENCHMARK.json.
WORKLOADS = {
    "protocol": {
        "curve_epochs": 24,
        "roc_epochs": 12,
    },
    "wide_ensemble": {
        "curve_epochs": 10,
    },
    "single_model": {
        "roc_epochs": 14,
    },
}


def experiment(kind: str, model: str, gate: str, seed: int, epochs: int, realizations: int,
               tag: str = "") -> dict:
    """One run_learning_experiment ("curve") or run_roc_experiment ("roc") call.

    rsteps is realizations x samples x epochs, the work its trainer does.
    """
    return {
        "id": f"{kind}_{model}_{gate.lower()}{tag}",
        "kind": kind,
        "model": model,
        "realizations": realizations,
        "rsteps": realizations * 100 * epochs,
        "overrides": {
            "model": model, "gate": gate, "seed": seed, "epochs": epochs,
            "dataset_size": 100, "n_realizations": realizations, "svg": True,
        },
    }


def experiments(workload: str, seed: int) -> list[dict]:
    """The experiments of one pass of `workload` at base seed `seed`, in run order."""
    spec = WORKLOADS[workload]
    if workload == "protocol":
        curves = [experiment("curve", m, g, seed, spec["curve_epochs"], 100) for m, g in PAIRS]
        rocs = [experiment("roc", m, g, seed, spec["roc_epochs"], 1)
                for m, g in (("slp", "OR"), ("slp", "XOR"), ("mlp", "XOR"))]
        return curves + rocs
    if workload == "wide_ensemble":
        return [experiment("curve", m, g, seed, spec["curve_epochs"], 1000)
                for m in ("slp", "mlp") for g in ("OR", "XOR")]
    if workload == "single_model":
        return [experiment("roc", m, g, s, spec["roc_epochs"], 1, tag=f"_s{k}")
                for k, s in enumerate((seed, seed + SECOND_SEED_OFFSET)) for m, g in PAIRS]
    raise KeyError(workload)
