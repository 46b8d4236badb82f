"""Repository benchmark: one run of one workload.

    python3 perfbench/run.py --workload inter150 --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout.  Before any timing, and outside
every metric, it builds the optional ``repro._native`` extension in place
(as ``pip install`` would, when a C compiler is present) and imports the
program once so byte-code is compiled.  It then starts ``bench.py`` in a
fresh interpreter with BLAS/OpenMP pinned to one thread, a fixed
``PYTHONHASHSEED``, ``src`` on the path and ``REPRO_KERNEL`` unset, so
the program's default backend selection runs.  With ``--trace 0`` it also
starts set-up-only interpreters and reports the median set-up time.  The
last line of standard output is the run's JSON result.

Workloads: inter150, stream40, baselines150 (see README.md).
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("inter150", "stream40", "baselines150")

#: Set-up samples per untraced run (the measuring interpreter is one).
SETUP_SAMPLES = 5

#: Seconds a single interpreter may take before the run is abandoned.
CHILD_TIMEOUT_S = 150
BUILD_TIMEOUT_S = 600

WORK_ROOT = os.path.join(ROOT, ".bench_build", "perfbench")


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("REPRO_KERNEL", None)
    env["PYTHONHASHSEED"] = "0"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    ):
        env[name] = "1"
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def build_native(env: dict) -> None:
    """Build ``repro._native`` in place unless a current build exists."""
    source = os.path.join(ROOT, "src", "repro", "_native.c")
    if not os.path.exists(source) or not (shutil.which("cc") or shutil.which("gcc")):
        return
    built = glob.glob(os.path.join(ROOT, "src", "repro", "_native*.so"))
    if built and min(os.path.getmtime(path) for path in built) >= os.path.getmtime(source):
        return
    subprocess.run(
        [
            sys.executable,
            "setup.py",
            "-q",
            "build_ext",
            "--inplace",
            "--build-temp",
            os.path.join(WORK_ROOT, "native-build"),
            "--build-lib",
            os.path.join(WORK_ROOT, "native-lib"),
        ],
        cwd=ROOT,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        timeout=BUILD_TIMEOUT_S,
        check=False,
    )


def bench(args, env: dict, workdir: str, *extra: str) -> subprocess.CompletedProcess:
    command = [
        sys.executable,
        os.path.join(HERE, "bench.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", workdir,
        "--t0", repr(time.time()),
        *extra,
    ]
    return subprocess.run(
        command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )


def last_json(process: subprocess.CompletedProcess) -> dict:
    if process.returncode != 0:
        sys.stderr.write(process.stderr)
        raise SystemExit(f"benchmark interpreter exited with {process.returncode}")
    sys.stderr.write(process.stderr)
    return json.loads(process.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no program source under {os.path.join(ROOT, 'src')}; run from a source checkout", file=sys.stderr)
        return 2

    env = child_env()
    workdir = os.path.join(WORK_ROOT, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        build_native(env)
        subprocess.run(
            [sys.executable, "-c", "import repro.sim, repro.schedulers, repro.workloads.stream"],
            cwd=ROOT, env=env, timeout=CHILD_TIMEOUT_S, check=True,
        )
        setups = []
        if args.trace == 0:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(last_json(bench(args, env, workdir, "--setup-only"))["setup_s"])
        measured = bench(args, env, workdir)
        result = last_json(measured)
        sys.stdout.write("".join(measured.stdout.splitlines(keepends=True)[:-1]))
        if args.trace == 0:
            setups.append(result["metrics"]["setup_s"]["value"])
            result["metrics"]["setup_s"]["value"] = statistics.median(setups)
        print(json.dumps(result))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
