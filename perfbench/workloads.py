"""The benchmark's workloads: their operations, how to issue them, and checks.

One operation is one certified point (``daviesgap gap``), one autocorrelation
trace (``daviesgap dynamics``) or one bond-chain gap (``spectral.gap``).  The
CLI operations run in-process through ``daviesgap.cli.main``; every public
name is looked up on its module at call time, so the tracing wrappers in
``spans.py`` see the calls.

Each operation's output is checked against values recorded on the seed
commit; a mismatch counts the operation as failed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass

RING_BETAJS = (0.0, 0.25, 1.0)
TORUS_BETAJS = (0.25, 1.0)
CHAIN_GAMMAS = (0.2, 0.5, 1.0)

# Certified generator gaps, identical for every ring size N >= 3.
RING_GAP = {0.0: 4.0, 0.25: 2.15153137096, 1.0: 0.143889679697}
TORUS_GAP = {0.25: 2.87647496174, 1.0: 0.214837162458}
# spectral.gap of the abelian bond chain, keyed by (bonds, gamma).
CHAIN_GAP = {
    (3, 0.2): 0.5384615384615381, (3, 0.5): 0.6999999999999998,
    (3, 1.0): 0.9999999999999996, (4, 0.2): 0.3472860481354944,
    (4, 0.5): 0.5757359312880692, (4, 1.0): 0.9999999999999984,
    (5, 0.2): 0.2532150821154327, (5, 0.5): 0.5145898033750315,
    (5, 1.0): 0.999999999999999, (6, 0.2): 0.20059193496821046,
    (6, 0.5): 0.48038475772933714, (6, 1.0): 0.9999999999999979,
    (7, 0.2): 0.16833642962853593, (7, 0.5): 0.4594186792585471,
    (7, 1.0): 0.9999999999999978, (8, 0.2): 0.14718812383573412,
    (8, 0.5): 0.44567228049322877, (8, 1.0): 0.9999999999999971,
    (9, 0.2): 0.13259142696685386, (9, 0.5): 0.43618442752845393,
    (9, 1.0): 0.999999999999998, (10, 0.2): 0.12210167726601104,
    (10, 0.5): 0.4293660902229066, (10, 1.0): 0.9999999999999941,
    (11, 0.2): 0.11431417820200132, (11, 0.5): 0.4243042158313021,
    (11, 1.0): 0.9999999999999959, (12, 0.2): 0.10837616034850643,
    (12, 0.5): 0.42044450422648727, (12, 1.0): 0.9999999999986353,
}
GAP_RTOL = 1e-9
SCHWARZ_TOL = -1e-10
TAU_SPREAD_MAX = 0.25


@dataclass(frozen=True)
class Op:
    key: str
    kind: str            # "gap" | "dynamics" | "chain"
    model: str           # "ising" | "toric" | "chain"
    size: int            # ring sites, torus side or chain bonds
    param: float         # betaJ, or gamma for the chain
    largest: bool = False


def operations(workload: str) -> list[Op]:
    """The operations of one sweep of a workload, in a fixed order."""
    if workload == "certify":
        ops = [Op(f"ring{n}-b{b:g}", "gap", "ising", n, b, largest=n == 8)
               for n in range(3, 9) for b in RING_BETAJS]
        ops += [Op(f"torus2-b{b:g}", "gap", "toric", 2, b, largest=True)
                for b in TORUS_BETAJS]
        return ops
    if workload == "dynamics":
        ops = [Op(f"ring{n}-b0.25", "dynamics", "ising", n, 0.25,
                  largest=n == 6) for n in range(3, 7)]
        ops.append(Op("ring6-b1", "dynamics", "ising", 6, 1.0))
        return ops
    if workload == "chain":
        return [Op(f"chain{n}-g{g:g}", "chain", "chain", n, g, largest=n == 12)
                for n in range(3, 13) for g in CHAIN_GAMMAS]
    raise ValueError(f"unknown workload {workload!r}")


def smallest(workload: str) -> Op:
    return operations(workload)[0]


class Runner:
    """Issues operations against the imported package and checks each result.

    ``issue`` holds only the call into daviesgap; ``check`` reads what the
    call produced and returns None, or the reason the output is wrong.
    """

    def __init__(self, cli, spectral, thermal_params, workdir, seed: int):
        self.cli = cli
        self.spectral = spectral
        self.ThermalParams = thermal_params
        self.workdir = workdir
        self.seed = seed
        self.taus: dict[str, float] = {}

    def prepare(self) -> None:
        """Remove the previous operation's output files."""
        for name in ("report.json", "trace.csv"):
            (self.workdir / name).unlink(missing_ok=True)

    def issue(self, op: Op):
        if op.kind == "chain":
            return self._chain(op)
        report = str(self.workdir / "report.json")
        argv = [op.kind, "--model", op.model, "--size", str(op.size),
                "--betaJ", repr(op.param), "--seed", str(self.seed),
                "--json", report]
        if op.kind == "gap":
            argv += ["--method", "blocks"]
        else:
            argv += ["--observable", "Z1",
                     "--out", str(self.workdir / "trace.csv")]
        with contextlib.redirect_stdout(io.StringIO()):
            return self.cli.main(argv)

    def _chain(self, op: Op):
        gamma = op.param
        tp = self.ThermalParams(beta=0.0 if gamma >= 1.0 else -math.log(gamma) / 2.0)
        chain = self.spectral.abelian_chain_hamiltonian(op.size, tp)
        kernel = [v.astype(complex)
                  for v in self.spectral.abelian_chain_kernel(op.size, gamma)]
        return self.spectral.gap(chain, kernel_basis=kernel, dense_cap=2048,
                                 seed=self.seed)

    def check(self, op: Op, result) -> str | None:
        if op.kind == "chain":
            return _check_chain(op, result)
        if result != 0:
            return f"exit code {result}"
        with open(self.workdir / "report.json") as fh:
            payload = json.load(fh)
        if op.kind == "gap":
            return _check_gap(op, payload)
        reason = _check_dynamics(op, payload)
        if reason is None and op.param == 0.25:
            self.taus[op.key] = payload["relaxation_time"]
        return reason

    def tau_spread(self) -> float:
        """Relative spread of the betaJ=0.25 relaxation times over N=3..6."""
        taus = list(self.taus.values())
        if len(taus) < 2:
            return 0.0
        return (max(taus) - min(taus)) / min(taus)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _check_gap(op: Op, payload: dict) -> str | None:
    want = (RING_GAP if op.model == "ising" else TORUS_GAP)[op.param]
    gap, bound = payload["gap"], payload["analytic_bound"]
    if payload["kernel_dim"] != 1:
        return f"kernel_dim {payload['kernel_dim']} != 1"
    if not gap - bound > 0:
        return f"margin {gap - bound} not positive"
    if _rel(gap, want) > GAP_RTOL:
        return f"gap {gap!r} != reference {want!r}"
    return None


def _check_dynamics(op: Op, payload: dict) -> str | None:
    slack = payload["schwarz_slack"]
    tau = payload["relaxation_time"]
    ceiling = 3.0 * math.exp(8.0 * op.param)
    if not slack >= SCHWARZ_TOL:
        return f"Schwarz slack {slack!r} below {SCHWARZ_TOL}"
    if not tau <= ceiling:
        return f"relaxation time {tau!r} above 3 exp(8 betaJ) = {ceiling:.4g}"
    return None


def _check_chain(op: Op, report) -> str | None:
    gamma = op.param
    floor = gamma * gamma / (1.0 + gamma * gamma)
    want = CHAIN_GAP[(op.size, gamma)]
    if report.kernel_dim != 2:
        return f"kernel_dim {report.kernel_dim} != 2"
    if not report.gap > floor:
        return f"gap {report.gap!r} not above gamma^2/(1+gamma^2) = {floor!r}"
    if _rel(report.gap, want) > GAP_RTOL:
        return f"gap {report.gap!r} != reference {want!r}"
    return None
