#!/usr/bin/env python3
"""ROC experiments for the trained classifiers: slp on OR, slp on XOR, mlp on XOR.

Each run trains one model for ROC_EPOCHS (500) epochs on a 100-sample
dataset, scores a fresh 100-sample evaluation set, and writes
roc_<model>_<gate>.csv with points at thresholds 0.3, 0.5, 0.7 plus the
full-sweep AUC.
"""

import argparse

from memperceptron.harness import ROC_EPOCHS, parse_config, run_roc_experiment


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="results")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--svg", action="store_true", help="write .svg plots too")
    args = ap.parse_args()

    for model, gate in (("slp", "OR"), ("slp", "XOR"), ("mlp", "XOR")):
        config = parse_config(
            overrides={"model": model, "gate": gate, "seed": args.seed,
                       "out_dir": args.out, "svg": args.svg},
            defaults={"epochs": ROC_EPOCHS},
        )
        path, points, auc_value = run_roc_experiment(config)
        summary = "; ".join(f"t={p.threshold:g}: ({p.fpr:.2f}, {p.tpr:.2f})" for p in points)
        print(f"{model} {gate}: {summary}; AUC {auc_value:.3f} -> {path}")


if __name__ == "__main__":
    main()
