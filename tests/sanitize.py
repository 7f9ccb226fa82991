"""Sanitizer runs of the compiled kernel, epoch.c.

    python tests/sanitize.py

Like tests/mutants.py, it works in a temporary directory, on a fresh
copy of the repository's src/ and tests/.  Two checks run there, each
once per branch of the kernel: the package's build, which trains the MLP
on the AVX2 copy of its blocks where the CPU has AVX2, and a build with
NO_AVX2 defined, which trains it on the default copy.

- ASan and UBSan: train._CFLAGS is rewritten in the copy to an -O1 build
  with AddressSanitizer and UndefinedBehaviorSanitizer, which gives the
  kernel its own cache key, and tests/test_engine.py runs in a subprocess
  with libasan preloaded.  The NO_AVX2 run leaves out the test that
  compares the two branches, which needs the package's build.
- TSan: a small C driver, linked with epoch.c under ThreadSanitizer, calls
  `run` with two CPUs at R = 300 on an SLP run, an SLP run with a window
  violation and a 2-2-1 MLP run.  It is in C because preloading libtsan
  into Python can crash the interpreter at start.

Prints one line per check and branch, and exits 1 on any report or
failure.  A check
whose sanitizer runtime the compiler lacks is skipped, with the reason.
The name keeps it out of the test suite: a run takes about a minute.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FP_FLAGS = ["-ffp-contract=off", "-fno-fast-math"]  # train._CFLAGS' float flags, kept in every build
ASAN_FLAGS = ["-O1", "-g", "-fno-omit-frame-pointer", "-fsanitize=address,undefined",
              "-fno-sanitize-recover=all", *FP_FLAGS]
TSAN_FLAGS = ["-O1", "-g", "-fsanitize=thread", *FP_FLAGS, "-pthread"]
REPORTS = ("ERROR: AddressSanitizer", "runtime error:", "WARNING: ThreadSanitizer", "ERROR: ThreadSanitizer")
# the kernel's branches: the flags that build each, and the test that needs the package's build
BRANCHES = {"package": [], "NO_AVX2": ["-DNO_AVX2"]}
BOTH_BRANCHES_TEST = "tests/test_engine.py::test_the_avx2_and_the_default_copy_of_the_mlp_blocks_give_the_same_bytes"

DRIVER = r"""
#include <math.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>

void seed_streams(int64_t R, int64_t n_words, uint32_t *words, uint64_t *streams);
void random_rows(int64_t R, int64_t k, uint64_t *streams, double *out);
int run(int64_t R, int64_t n, int64_t n_in, const double *xs, const double *ts, int64_t epochs,
        uint64_t *streams, double **p, double *histories, double bound, double window_a,
        int64_t *where, double *inc, double eta, int64_t L, const int64_t *sizes, double b_scale,
        double kt, double m_prime, double r_off, double r_on, double d, int64_t cpus);
int avx2(void);

enum { R = 300, N = 8, EPOCHS = 20 };

/* One run on the OR data from seed 0's streams, every parameter drawn
 * uniform in (-0.5, 0.5); returns run's status. */
static int train(int64_t L, const int64_t *sizes, const int64_t *counts, int64_t arrays, double eta,
                 double window_a, double bound, const double *device)
{
    double xs[2 * N], ts[N], histories[R * EPOCHS], inc, *p[4];
    int64_t where[4];
    uint32_t words[1] = {0};
    uint64_t *streams = malloc(sizeof(uint64_t) * 6 * R);
    for (int k = 0; k < N; k++) {
        xs[2 * k] = k & 1;
        xs[2 * k + 1] = (k >> 1) & 1;
        ts[k] = (k & 3) != 0;
    }
    seed_streams(R, 1, words, streams);
    for (int64_t a = 0; a < arrays; a++) {
        p[a] = malloc(sizeof(double) * R * counts[a]);
        random_rows(R, counts[a], streams, p[a]);
        for (int64_t i = 0; i < R * counts[a]; i++)
            p[a][i] -= 0.5;
    }
    int status = run(R, N, 2, xs, ts, EPOCHS, streams, p, histories, bound, window_a, where, &inc,
                     eta, L, sizes, device[0], device[1], device[2], device[3], device[4], device[5], 2);
    for (int64_t a = 0; a < arrays; a++)
        free(p[a]);
    free(streams);
    return status;
}

int main(void)
{
    const double none[6] = {0}, device[6] = {1.0, 1.0, -0.99, 1.0, 0.01, 1.0};
    const int64_t slp[1] = {3}, mlp[4] = {4, 2, 2, 1}, sizes[3] = {2, 2, 1};
    int statuses[3] = {train(0, NULL, slp, 1, 0.1, 1.0, 10.0, none),
                       train(0, NULL, slp, 1, 20.0, 1.0, 10.0, none),
                       train(2, sizes, mlp, 4, 0.1, INFINITY, 2.0, device)};
    printf("statuses %d %d %d, mlp blocks %s\n", statuses[0], statuses[1], statuses[2],
           avx2() ? "avx2" : "default");
    return !(statuses[0] == 0 && statuses[1] == 1 && statuses[2] == 0);
}
"""


def missing_runtime(flags, tmp: Path):
    """None if cc builds and links a program with flags, else why not."""
    if shutil.which("cc") is None:
        return "no C compiler"
    probe = tmp / "probe.c"
    probe.write_text("int main(void) { return 0; }\n")
    built = subprocess.run(["cc", *flags, str(probe), "-o", str(tmp / "probe")], capture_output=True, text=True)
    return None if built.returncode == 0 else f"cc {' '.join(flags)} fails: {built.stderr.strip()[:200]}"


def verdict(name: str, done: subprocess.CompletedProcess) -> bool:
    """Print one line for a finished check; True if it passed with no report."""
    output = done.stdout + done.stderr
    clean = done.returncode == 0 and not any(report in output for report in REPORTS)
    print(f"{'clean' if clean else 'FAILED':8} {name}", flush=True)
    if not clean:
        print(output[-4000:])
    return clean


def asan_check(tmp: Path, branch: str) -> bool:
    """test_engine.py on a copy whose kernel is built with ASan and UBSan, on branch."""
    why = missing_runtime(ASAN_FLAGS, tmp)
    libasan = subprocess.run(["cc", "-print-file-name=libasan.so"], capture_output=True,
                             text=True).stdout.strip() if why is None else ""
    if why is None and not Path(libasan).is_absolute():
        why = "cc knows no libasan.so to preload"
    if why:
        print(f"skipped  asan+ubsan, {branch}: {why}")
        return True
    copy = tmp / f"asan-{branch}"
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, copy / part, ignore=ignore)
    train = copy / "src/memperceptron/train.py"
    text = train.read_text()
    old = '_CFLAGS = ("-O3", "-ffp-contract=off", "-fno-fast-math",'
    if text.count(old) != 1:
        print(f"ERROR    asan+ubsan: {old!r} is not found exactly once in train.py")
        return False
    new = "_CFLAGS = (" + ", ".join(f'"{flag}"' for flag in ASAN_FLAGS + BRANCHES[branch]) + ","
    train.write_text(text.replace(old, new))
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "LD_PRELOAD": str(Path(libasan).resolve()),
           "ASAN_OPTIONS": "detect_leaks=0"}
    # --capture=sys: a report the kernel writes to fd 2 before it aborts is not lost with pytest's capture
    leave_out = ["--deselect", BOTH_BRANCHES_TEST] if BRANCHES[branch] else []
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--capture=sys",
                           "tests/test_engine.py", *leave_out], cwd=copy, env=env, capture_output=True, text=True)
    return verdict(f"asan+ubsan, {branch}: tests/test_engine.py", done)


def tsan_check(tmp: Path, branch: str) -> bool:
    """The C driver's three two-CPU runs under ThreadSanitizer, on branch."""
    why = missing_runtime(TSAN_FLAGS, tmp)
    if why:
        print(f"skipped  tsan, {branch}: {why}")
        return True
    driver, program = tmp / "driver.c", tmp / f"driver-{branch}"
    driver.write_text(DRIVER)
    built = subprocess.run(["cc", *TSAN_FLAGS, *BRANCHES[branch], str(driver),
                            str(ROOT / "src/memperceptron/epoch.c"), "-o", str(program), "-lm"],
                           capture_output=True, text=True)
    if built.returncode != 0:
        print(f"FAILED   tsan, {branch}: the driver does not build\n{built.stderr}")
        return False
    done = subprocess.run([str(program)], capture_output=True, text=True,
                          env={**os.environ, "TSAN_OPTIONS": "halt_on_error=1"})
    return verdict(f"tsan, {branch}: slp, slp with a window violation and 2-2-1 mlp runs, two CPUs, R = 300 "
                   f"({done.stdout.strip()})", done)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        clean = [check(Path(tmp), branch) for check in (asan_check, tsan_check) for branch in BRANCHES]
    return 0 if all(clean) else 1


if __name__ == "__main__":
    sys.exit(main())
