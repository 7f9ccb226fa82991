"""Set-up time of one workload, measured in a fresh interpreter.

Times importing memperceptron from the checkout's src/, then parsing every
config and generating every dataset the workload's experiments use (the
training set, and for ROC runs the evaluation set at base seed + 1).
Prints the seconds on stdout.  run.py starts this once per sample:

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys
from pathlib import Path
from time import perf_counter

import workloads


def main() -> None:
    exps = workloads.experiments(sys.argv[1], int(sys.argv[2]))
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    t0 = perf_counter()
    import memperceptron as mp

    for exp in exps:
        config = mp.parse_config(overrides=exp["overrides"])
        mp.generate_dataset(mp.Gate[config.gate], config.dataset_size, config.seed)
        if exp["kind"] == "roc":
            mp.generate_dataset(mp.Gate[config.gate], config.dataset_size, config.seed + 1)
    print(repr(perf_counter() - t0))


if __name__ == "__main__":
    main()
