"""Fast self-test of the benchmark (about 15 s).

    python3 perfbench/selftest.py

Runs the smallest operation of each workload (ring N=3 certify, ring N=3
trace, chain N=3) through the untraced and the traced path, and checks that
every metric BENCHMARK.json names is reported, well formed and finite, that
the traced self times add up to the traced wall time, that a wrong reference
value fails the operation, that the wrappers are removed afterwards, and that
the benchmark refuses to run without sources.
Exits 0 when every check passes.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import re
import shutil
import subprocess
import sys

import run
import workloads
from layers import PER_LAYER

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _check(cond: bool, what: str, problems: list) -> None:
    if not cond:
        problems.append(what)


def _check_result(result: dict, wanted: dict, label: str, problems: list) -> None:
    _check(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{label}: result keys {sorted(result)}", problems)
    _check(result["correct"] is True and result["failed"] == 0,
           f"{label}: output check failed ({result['failed']} failed)", problems)
    _check(isinstance(result["attempted"], int) and result["attempted"] >= 1,
           f"{label}: attempted {result['attempted']!r}", problems)
    metrics = result["metrics"]
    _check(set(metrics) == set(wanted),
           f"{label}: metrics differ from BENCHMARK.json: "
           f"{sorted(set(metrics) ^ set(wanted))}", problems)
    for name, entry in metrics.items():
        value = entry.get("value")
        _check(bool(NAME.match(name)), f"{label}: bad metric name {name!r}", problems)
        _check(bool(UNIT.match(entry.get("unit", ""))),
               f"{label}: bad unit for {name}", problems)
        _check(entry.get("unit") == wanted.get(name, entry.get("unit")),
               f"{label}: {name} unit {entry.get('unit')} != {wanted.get(name)}",
               problems)
        _check(isinstance(value, (int, float)) and math.isfinite(value),
               f"{label}: {name} value {value!r}", problems)
    json.dumps(result, allow_nan=False)


def _self_times_add_up(metrics: dict, label: str, problems: list) -> None:
    wall = metrics["trace.wall_s"]["value"]
    parts = sum(entry["value"] for name, entry in metrics.items()
                if entry["unit"] == "s" and not name.startswith("trace.")
                ) + metrics["trace.glue_s"]["value"]
    _check(abs(parts - wall) <= 1e-9 + 1e-9 * wall,
           f"{label}: self times sum to {parts!r}, traced wall {wall!r}", problems)


def _refuses_without_sources(problems: list) -> None:
    fake = run.HERE / "_work" / "selftest-no-src"
    shutil.rmtree(fake, ignore_errors=True)
    try:
        shutil.copytree(run.HERE, fake / run.HERE.name,
                        ignore=shutil.ignore_patterns("_work", "__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", fake / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "chain",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=fake, capture_output=True, text=True, timeout=60)
        _check(proc.returncode != 0 and '"metrics"' not in proc.stdout,
               f"run without sources: exit {proc.returncode}, "
               f"stdout {proc.stdout[-200:]!r}", problems)
    finally:
        shutil.rmtree(fake, ignore_errors=True)
        with contextlib.suppress(OSError):
            fake.parent.rmdir()


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems: list[str] = []
    _check(per_layer == {k: unit for k, (unit, _) in PER_LAYER.items()},
           "BENCHMARK.json per_layer differs from layers.PER_LAYER", problems)
    _check([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
           "BENCHMARK.json workloads differ from run.WORKLOADS", problems)

    for workload in run.WORKLOADS:
        op = workloads.smallest(workload)
        for trace in (0, 1):
            label = f"{workload}/{op.key}/trace={trace}"
            args = argparse.Namespace(workload=workload, seed=7, seconds=0.0,
                                      trace=trace)
            with contextlib.redirect_stdout(io.StringIO()) as out:
                result = run._run(args, ops=[op], probes=1)
            _check("detail" in json.loads(out.getvalue().splitlines()[-1]),
                   f"{label}: no detail line", problems)
            _check_result(result, per_layer if trace else end_to_end, label,
                          problems)
            if trace:
                _self_times_add_up(result["metrics"], label, problems)
            print(f"{label}: {len(problems)} problem(s) so far", flush=True)

    # a wrong reference value must count the operation as failed
    saved = dict(workloads.RING_GAP)
    workloads.RING_GAP[0.0] = 4.0 * (1 + 1e-6)
    try:
        args = argparse.Namespace(workload="certify", seed=7, seconds=0.0, trace=0)
        with contextlib.redirect_stdout(io.StringIO()):
            result = run._run(args, ops=[workloads.smallest("certify")], probes=1)
    finally:
        workloads.RING_GAP.update(saved)
    _check(result["failed"] == 1 and result["correct"] is False,
           f"a wrong reference gap went undetected: {result}", problems)

    from daviesgap import cli, spectral
    _check(not hasattr(cli.main, "__wrapped__")
           and not hasattr(spectral.block_basis, "__wrapped__"),
           "tracing wrappers left installed", problems)
    _refuses_without_sources(problems)

    for p in problems:
        print(f"FAIL {p}")
    print("selftest", "passed" if not problems else f"failed: {len(problems)}")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
