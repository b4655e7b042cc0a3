"""Benchmark of `qbm run`, one workload per invocation.

    python3 benchmark/run.py --workload coherent_T2_all --seed 1 --seconds 22 --trace 0
    python3 benchmark/run.py --workload all --seed 1

Untraced (``--trace 0``): a closed loop with one client.  Each `qbm run` is a
fresh subprocess (``python -m qbm.cli run <config>`` on the checkout's
``src``), started only after the previous one ended, and started again until
``--seconds`` have passed (at least twice).  Set-up is timed first as
separate subprocesses that only import the CLI and parse the config.
Reports the medians of ``wall_s``, ``setup_s`` and ``peak_rss_mb``.

Traced (``--trace 1``): the same config runs twice in this process, once
plain and once with every `qbm` layer wrapped (see ``spans.py``); reports the
per-layer metrics of the traced run and the difference of the two wall clocks
as ``trace.overhead_s``.

Every run's artifacts pass ``workloads.check_outputs`` and are hashed; a repeat
of the same workload and seed whose hashes differ is a failed run.  The last
line of standard output is the JSON result.  Work files go to ``.bench_work/``.
BLAS and OpenMP thread counts are recorded, never set.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

from workloads import WORKLOADS, check_outputs, hash_artifacts, read_csv, write_config

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_REPEATS = 3
MIN_RUNS = 2
DEADLINE_S = 170.0  # every run of one invocation ends by then, or is killed
SETUP_CODE = (
    "import sys\n"
    "import qbm.cli, qbm.runner\n"
    "from qbm.config import parse_config\n"
    "parse_config(sys.argv[1])\n"
)
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@dataclasses.dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list = dataclasses.field(default_factory=list)
    reference: dict | None = None  # artifact hashes of the first correct run

    def record(self, label: str, problems: list, outdir: str) -> bool:
        """Count one run; compare its artifact hashes with the first correct run."""
        self.attempted += 1
        if not problems:
            digests = hash_artifacts(outdir)
            if self.reference is None:
                self.reference = digests
            elif digests != self.reference:
                changed = sorted(k for k in digests.keys() | self.reference.keys()
                                 if digests.get(k) != self.reference.get(k))
                problems = [f"artifacts differ from the first run of this seed: {changed}"]
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]
        return not problems


def spawn(argv: list, log_path: str, deadline: float) -> tuple:
    """Run one subprocess, killed at ``deadline`` (a perf_counter value).

    Returns (exit code, wall s, peak RSS MiB, CPU s).
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=log, env=env, cwd=ROOT)
        timer = threading.Timer(max(0.0, deadline - start), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime


def _tail(path: str) -> str:
    with open(path, encoding="utf-8", errors="replace") as fh:
        return " | ".join(fh.read().strip().splitlines()[-3:])


def prepare(name: str, seed: int) -> tuple:
    """Fresh work directory with the seeded config: (config dict, config path, output dir)."""
    workdir = os.path.join(WORK, name)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    outdir = os.path.join(workdir, "out")
    config = {**WORKLOADS[name].config(seed), "run.output_dir": outdir}
    path = os.path.join(workdir, "run.cfg")
    write_config(path, config)
    return config, path, outdir


def measure(name: str, seed: int, seconds: float) -> dict:
    deadline = time.perf_counter() + DEADLINE_S
    config, cfg_path, outdir = prepare(name, seed)
    log = os.path.join(os.path.dirname(cfg_path), "stderr.log")

    setups = []
    for _ in range(SETUP_REPEATS):
        code, wall, _, _ = spawn([sys.executable, "-c", SETUP_CODE, cfg_path], log, deadline)
        if code != 0:
            raise RuntimeError(f"set-up subprocess exited {code}: {_tail(log)}")
        setups.append(wall)

    outcome, runs = Outcome(), []  # runs: (wall s, peak RSS, CPU s, correct)
    begin = time.perf_counter()
    while ((len(runs) < MIN_RUNS or time.perf_counter() - begin < seconds)
           and time.perf_counter() < deadline):
        shutil.rmtree(outdir, ignore_errors=True)
        code, wall, peak, cpu = spawn([sys.executable, "-m", "qbm.cli", "run", cfg_path], log,
                                      deadline)
        problems = check_outputs(outdir, config) if code == 0 else [
            f"exit code {code}: {_tail(log)}"]
        runs.append((wall, peak, cpu, outcome.record(f"run {len(runs)}", problems, outdir)))
    if not runs:
        raise RuntimeError(f"set-up alone took more than {DEADLINE_S:g} s")
    good = [r for r in runs if r[3]] or runs
    return {
        "outcome": outcome,
        "metrics": {
            "wall_s": (statistics.median(r[0] for r in good), "s", len(good)),
            "setup_s": (statistics.median(setups), "s", len(setups)),
            "peak_rss_mb": (statistics.median(r[1] for r in good), "MiB", len(good)),
        },
        "samples": {"wall_s": [r[0] for r in runs], "peak_rss_mb": [r[1] for r in runs],
                    "cpu_s": [r[2] for r in runs], "setup_s": setups},
    }


def trace(name: str, seed: int) -> dict:
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import qbm.cli
    import qbm.runner  # noqa: F401  (loads every layer before patching)
    import scipy.linalg  # noqa: F401  (imported lazily by the oracle; keep it out of the timing)
    import scipy.special  # noqa: F401

    if not os.path.abspath(qbm.cli.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"qbm imported from {qbm.cli.__file__}, not from {SRC}")
    from spans import Tracer, layer_metrics

    config, cfg_path, outdir = prepare(name, seed)
    outcome, walls = Outcome(), []
    tracer = Tracer(run_id=f"{name}-seed{seed}")
    for label, context in (("untraced", contextlib.nullcontext()), ("traced", tracer)):
        shutil.rmtree(outdir, ignore_errors=True)
        start = time.perf_counter()
        try:
            with context, open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                code = qbm.cli.main(["run", cfg_path])
        except Exception as exc:  # a crash of the program under test is a failed run
            code = repr(exc)
        walls.append(time.perf_counter() - start)
        problems = check_outputs(outdir, config) if code == 0 else [f"exit code {code}"]
        outcome.record(label, problems, outdir)

    coefficients = os.path.join(outdir, "coefficients.csv")
    n_nodes = len(read_csv(coefficients)["t"]) if os.path.exists(coefficients) else 1
    metrics = {"trace.overhead_s": (walls[1] - walls[0], "s"), **layer_metrics(tracer, n_nodes)}
    with open(os.path.join(WORK, name, "spans.json"), "w", encoding="utf-8") as fh:
        json.dump([dataclasses.asdict(s) for s in tracer.spans], fh)
    return {
        "outcome": outcome,
        "metrics": {key: (value, unit, 1) for key, (value, unit) in metrics.items()},
        "samples": {"untraced_s": walls[0], "traced_s": walls[1]},
    }


def machine() -> dict:
    """Where the numbers came from; thread settings are recorded, not pinned."""
    import numpy  # after the timed part, so it costs nothing measured

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                threads[os.path.basename(path)] = getattr(lib, symbol)()
                break
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": threads,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git; 'unknown' outside one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_one(name: str, seed: int, seconds: float, traced: bool) -> dict:
    result = trace(name, seed) if traced else measure(name, seed, seconds)
    outcome = result["outcome"]
    for problem in outcome.problems:
        print(f"[{name}] FAILED {problem}")
    for key, (value, unit, n) in result["metrics"].items():
        print(f"[{name}] {key} = {value:.6g} {unit} (n={n})")
    print(f"[{name}] samples {json.dumps(result['samples'])}")
    print(f"[{name}] failed {outcome.failed} of {outcome.attempted} attempted")
    record = {
        "workload": name,
        "seed": seed,
        "trace": traced,
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": outcome.problems,
        "metrics": {k: {"value": v, "unit": u, "samples": n}
                    for k, (v, u, n) in result["metrics"].items()},
        "samples": result["samples"],
        "artifact_sha256": outcome.reference,
        "machine": machine(),
    }
    with open(os.path.join(WORK, name, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(f"[{name}] machine {json.dumps(record['machine'], sort_keys=True)}")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "qbm", "cli.py")):
        print(f"benchmark: no qbm sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        try:
            records.append(run_one(name, args.seed, args.seconds, bool(args.trace)))
        except (OSError, RuntimeError) as exc:
            print(f"benchmark: {name}: {exc}", file=sys.stderr)
            return 2

    def metrics(record: dict, prefix: str = "") -> dict:
        return {prefix + k: {"value": m["value"], "unit": m["unit"]}
                for k, m in record["metrics"].items()}

    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics(records[0]) if len(records) == 1 else {
            k: v for r in records for k, v in metrics(r, r["workload"] + ".").items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
