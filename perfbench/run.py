"""daviesgap benchmark: one workload, one closed-loop client, one process.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 35 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy.  The run

1. times process set-up (interpreter start and imports) in fresh child
   processes and reports the median;
2. issues one untimed warm-up operation;
3. issues the workload's operations back to back in an order drawn from
   ``--seed``: one full sweep, then more operations while each still fits in
   ``--seconds``;
4. checks every output against the reference values in ``workloads.py``;
5. prints a detail line (environment, per-operation percentiles) and, as the
   last line, the result JSON.  With ``--trace 1`` the daviesgap layers are
   wrapped (``layers.py``) and the result holds the per-layer metrics.

The metric names, units and bounds are in BENCHMARK.json at the repository
root; README.md in this directory says what each metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 6
WORKLOADS = ("certify", "dynamics", "chain")


def _percentiles(values: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    out = {"n": len(values)}
    if not values:
        return out
    ordered = sorted(values)
    out["p50"] = statistics.median(ordered)
    for p in (99.9, 99, 90):
        if len(ordered) * (1 - p / 100) >= 10:
            rank = min(len(ordered) - 1, int(round(p / 100 * (len(ordered) - 1))))
            out[f"p{p:g}"] = ordered[rank]
            break
    return out


def _loadavg() -> float | None:
    try:
        with open("/proc/loadavg") as fh:
            return float(fh.read().split()[0])
    except (OSError, ValueError, IndexError):
        return None


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _blas_threads() -> dict:
    """Thread count of every OpenBLAS the process has loaded."""
    import ctypes
    out = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return out
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def _source_state() -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError):
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True)
            commit = proc.stdout.strip() or None
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def _environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        **_source_state(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "DAVIESGAP_WORKERS": os.environ.get("DAVIESGAP_WORKERS"),
    }


def _import_package():
    sys.path.insert(0, str(SRC))
    from daviesgap import cli, dynamics, spectral
    from daviesgap.davies import ThermalParams
    return cli, spectral, dynamics, ThermalParams


def _probe(workload: str) -> int:
    """Child side of the set-up measurement: import, build inputs, report."""
    _import_package()
    import workloads
    workloads.operations(workload)
    print(repr(time.time()), flush=True)
    return 0


class SetupProbe:
    """Times set-up: wall time from spawning a fresh interpreter until it has
    imported the package and built the workload's inputs.

    The host's speed drifts over seconds, so the probes are spread across the
    measured window instead of being taken back to back.  One unmeasured probe
    first warms the file cache and the bytecode cache.
    """

    def __init__(self, workload: str):
        self.argv = [sys.executable, str(HERE / "run.py"), "--probe",
                     "--workload", workload]
        self.samples: list[float] = []
        self.wall_s = 0.0
        self._once()

    def _once(self) -> float:
        t0 = time.time()
        proc = subprocess.run(self.argv, capture_output=True, text=True, cwd=ROOT,
                              timeout=120)
        self.wall_s += time.time() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        return float(proc.stdout.split()[-1]) - t0

    def measure(self) -> None:
        self.samples.append(self._once())


def _steal_s() -> float | None:
    """Time the hypervisor ran something else on this machine's CPUs."""
    try:
        with open("/proc/stat") as fh:
            return int(fh.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError):
        return None


def _run(args, ops=None, probes: int = SETUP_PROBES) -> dict:
    """Measure one workload; ``ops`` narrows it (the self-test runs one)."""
    import layers
    import workloads
    from spans import Tracer

    setup = SetupProbe(args.workload)
    cli, spectral, dynamics, thermal_params = _import_package()
    env = _environment()
    if ops is None:
        ops = workloads.operations(args.workload)
    workdir = HERE / "_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None
    try:
        runner = workloads.Runner(cli, spectral, thermal_params, workdir, args.seed)
        warm = workloads.smallest(args.workload)
        runner.prepare()
        runner.issue(warm)

        if tracer is not None:
            layers.instrument(tracer, cli, spectral, dynamics)
        rng = random.Random(args.seed)
        durations: dict[str, list[float]] = {op.key: [] for op in ops}
        samples: list[str] = []
        overheads: list[float] = []
        failures: dict[int, str] = {}   # sample index -> reason

        def issue(op):
            runner.prepare()
            before = tracer.overhead_s if tracer else 0.0
            root = tracer.begin_op(len(samples)) if tracer else None
            t0 = time.perf_counter()
            try:
                result, error = runner.issue(op), None
            except Exception as exc:  # a failed operation is counted, not fatal
                result, error = None, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
            if tracer:
                tracer.close(root)
                overheads.append(tracer.overhead_s - before)
            durations[op.key].append(elapsed)
            samples.append(op.key)
            if error is None:
                try:
                    error = runner.check(op, result)
                except (OSError, KeyError, ValueError, TypeError) as exc:
                    error = f"unreadable output: {type(exc).__name__}: {exc}"
            if error:
                failures[len(samples) - 1] = error

        load_before, steal0 = _loadavg(), _steal_s()
        cpu0, t_start = _cpu_s(), time.perf_counter()
        deadline = t_start + args.seconds
        probe_at = [t_start + i * args.seconds / probes for i in range(probes)]

        def issue_between_probes(op):
            while probe_at and time.perf_counter() >= probe_at[0]:
                probe_at.pop(0)
                setup.measure()
            issue(op)

        for op in rng.sample(ops, len(ops)):
            issue_between_probes(op)
        progressed = True
        while progressed:
            progressed = False
            for op in rng.sample(ops, len(ops)):
                if time.perf_counter() + statistics.median(durations[op.key]) <= deadline:
                    issue_between_probes(op)
                    progressed = True
        for _ in probe_at:
            setup.measure()
        measured_s = time.perf_counter() - t_start
        cpu_s, load_after, steal1 = _cpu_s() - cpu0, _loadavg(), _steal_s()
    finally:
        if tracer:
            tracer.unwrap_all()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    spread = runner.tau_spread()
    if spread >= workloads.TAU_SPREAD_MAX:
        for i, key in enumerate(samples):
            if key in runner.taus:
                failures.setdefault(
                    i, f"relaxation-time spread {spread:.1%} over N=3..6 >= 25%")
    failed, attempted = len(failures), len(samples)

    if tracer:
        metrics = {name: {"value": value, "unit": layers.PER_LAYER[name][0]}
                   for name, value in layers.layer_metrics(
                       tracer, samples, overheads).items()}
    else:
        big = [op for op in ops if op.largest] or ops
        largest = [d for op in big for d in durations[op.key]]
        metrics = {
            "wall_s": {"value": sum(statistics.median(d) for d in durations.values()),
                       "unit": "s"},
            "largest_op_s": {"value": statistics.median(largest), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
            "setup_s": {"value": statistics.median(setup.samples), "unit": "s"},
        }

    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env,
        "load_1min_before": load_before, "load_1min_after": load_after,
        "measured_wall_s": measured_s, "setup_probe_wall_s": setup.wall_s,
        "cpu_s": cpu_s, "cpu_per_op_wall": cpu_s / sum(map(sum, durations.values())),
        "steal_s": None if steal0 is None else steal1 - steal0,
        "setup_samples_s": setup.samples,
        "failed_ops_frac": failed / attempted,
        "failures": {f"{i}:{samples[i]}": why for i, why in failures.items()},
        "op_s": _percentiles([d for ds in durations.values() for d in ds]),
        "per_op_s": {key: _percentiles(ds) for key, ds in durations.items()},
    }
    print(json.dumps({"detail": detail}))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "daviesgap" / "__init__.py").is_file():
        print(f"error: no daviesgap sources under {SRC}", file=sys.stderr)
        return 2
    if args.probe:
        return _probe(args.workload)
    print(json.dumps(_run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
