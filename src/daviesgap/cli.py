"""Batch front end: verify models, certify gaps, run dynamics, emit reports.

Exit codes: 0 success, 2 usage error (argparse), 3 failed verification or
bound violation, 4 solver non-convergence.  A config file of key=value lines
supplies defaults; command-line flags override it.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .davies import ThermalParams, build_generator, default_couplings, \
    detailed_balance_residual, liouville_matrix
from .dynamics import autocorrelation, relaxation_time, EvolutionError
from .models import verify_model
from .pauli import write_coo_text
from .spectral import (analytic_bounds, certify, sweep, write_sweep_csv,
                       build_ising_or_toric, BoundViolationError,
                       KernelMismatchError, SolverConvergenceError)

EXIT_OK = 0
EXIT_CHECK_FAILED = 3
EXIT_NO_CONVERGENCE = 4


def _read_config(path) -> dict:
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config line without '=': {line!r}")
            key, val = (t.strip() for t in line.split("=", 1))
            out[key] = val
    return out


def _parse_floats(text):
    return [float(t) for t in str(text).split(",") if t != ""]


def _parse_ints(text):
    return [int(t) for t in str(text).split(",") if t != ""]


# every flag, declared once; each command below names the flags it reads
_FLAGS = {
    "--config": {"help": "key=value defaults file"},
    "--model": {"choices": ["ising", "toric"]},
    "--size": {"type": int, "help": "ring sites N or torus side L"},
    "--sizes": {"required": True, "help": "comma list, e.g. 3,4,5"},
    "--coupling": {"type": float, "help": "J (default 1)"},
    "--couplings": {"dest": "coupling_letters",
                    "help": "coupling letters, e.g. xyz or xz"},
    "--betaJ": {},
    "--betaJs": {"required": True, "help": "comma list, e.g. 0,0.25"},
    "--method": {"help": "gap method; only 'blocks' (the default)"},
    "--observable": {"help": "Z1, X1, Z2, X2 (logical operators)"},
    "--seed": {"type": int, "help": "seeds export-generator's detailed-balance "
                                    "residual; gap and dynamics accept it and ignore it"},
    "--json": {"dest": "json_out", "help": "write a JSON report here"},
    "--blocks-out": {"help": "write the per-block inventory as JSON"},
    "--out": {},
}


def _merge(args) -> dict:
    """The config file's keys, overridden by the flags given; only the keys
    the command has a flag for are converted, so a shared config file
    serves every command."""
    cfg = {}
    if args.config:
        cfg.update(_read_config(args.config))
    for key, val in vars(args).items():
        if val is not None and key not in ("config", "func"):
            cfg[key] = val
    cfg.setdefault("coupling", 1.0)
    cfg.setdefault("seed", 0)
    for key, kind in (("coupling", float), ("seed", int), ("size", int)):
        if key in vars(args) and key in cfg:
            cfg[key] = kind(cfg[key])
    return cfg


def _model_of(cfg):
    if "model" not in cfg or "size" not in cfg:
        raise ValueError("need --model and --size")
    return build_ising_or_toric(cfg["model"], int(cfg["size"]), cfg["coupling"])


def _betaJ_of(cfg) -> float:
    if "betaJ" not in cfg:
        raise ValueError("need --betaJ (flag or config file)")
    return float(cfg["betaJ"])


def _check_method(cfg) -> None:
    """``blocks`` is the only gap method; config values bypass argparse choices."""
    method = cfg.get("method", "blocks")
    if method != "blocks":
        raise ValueError(f"unsupported --method {method!r}: gaps are certified "
                         "on charge blocks only (--method blocks)")


def _write_json(cfg, payload) -> None:
    if cfg.get("json_out"):
        with open(cfg["json_out"], "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")


def _cmd_verify(args) -> int:
    cfg = _merge(args)
    model = _model_of(cfg)
    report = verify_model(model)
    print(report)
    _write_json(cfg, {"ok": report.ok,
                      "checks": [{"name": n, "passed": p, "detail": d}
                                 for n, p, d in report.checks]})
    return EXIT_OK if report.ok else EXIT_CHECK_FAILED


def _cmd_bounds(args) -> int:
    cfg = _merge(args)
    tp = ThermalParams.from_betaJ(_betaJ_of(cfg), cfg["coupling"])
    bounds = analytic_bounds(tp)
    for name, value in bounds.items():
        print(f"{name} = {value:.10g}")
    _write_json(cfg, bounds)
    return EXIT_OK


def _cmd_gap(args) -> int:
    cfg = _merge(args)
    _check_method(cfg)
    model = _model_of(cfg)
    tp = ThermalParams.from_betaJ(_betaJ_of(cfg), cfg["coupling"])
    couplings = default_couplings(model, cfg.get("coupling_letters"))
    report = certify(model, tp, couplings=couplings,
                     inventory=bool(cfg.get("blocks_out")))
    if cfg.get("blocks_out"):
        with open(cfg["blocks_out"], "w") as fh:
            json.dump(report.extras.get("blocks", []), fh, indent=1)
            fh.write("\n")
    print(f"model={cfg['model']} size={cfg['size']} betaJ={_betaJ_of(cfg):g} "
          f"gap={report.gap:.10g} bound={report.analytic_bound:.10g} "
          f"margin={report.margin:.10g} kernel={report.kernel_dim} "
          f"solver={report.solver}")
    _write_json(cfg, report.to_json_dict())
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = _merge(args)
    _check_method(cfg)
    reports = sweep(cfg["model"], _parse_ints(cfg["sizes"]),
                    _parse_floats(cfg["betaJs"]), coupling=cfg["coupling"],
                    coupling_letters=cfg.get("coupling_letters"))
    out = cfg.get("out", "sweep.csv")
    write_sweep_csv(reports, out)
    print(f"wrote {len(reports)} rows to {out}; "
          f"min margin {min(r.margin for r in reports):.6g}")
    if any(r.margin < 0 for r in reports):
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _logical_of(model, which: str):
    """The logical named X<i> or Z<i>, i in 1..n_logical; a bare letter is pair 1."""
    labels = [f"{kind}{i}" for i in range(1, model.n_logical + 1) for kind in "XZ"]
    name = which.upper() + ("1" if len(which) == 1 else "")
    if name not in labels:
        raise ValueError(f"unknown observable {which!r}; allowed: "
                         f"{', '.join(labels)} (a bare X or Z means pair 1)")
    return model.logicals[int(name[1:]) - 1][0 if name[0] == "X" else 1]


def _cmd_dynamics(args) -> int:
    cfg = _merge(args)
    model = _model_of(cfg)
    tp = ThermalParams.from_betaJ(_betaJ_of(cfg), cfg["coupling"])
    couplings = default_couplings(model, cfg.get("coupling_letters"))
    observable = _logical_of(model, cfg.get("observable", "Z1"))
    trace = autocorrelation(model, tp, couplings=couplings, observable=observable)
    tau = relaxation_time(trace)
    out = cfg.get("out", "trace.csv")
    trace.write_csv(out)
    print(f"observable={trace.observable} fitted_rate={trace.fitted_rate:.8g} "
          f"relaxation_time={tau:.8g} schwarz_slack={trace.schwarz_slack():.3e}")
    _write_json(cfg, {"observable": trace.observable,
                      "fitted_rate": trace.fitted_rate,
                      "exact_rate": trace.meta["exact_rate"],
                      "relaxation_time": tau,
                      "schwarz_slack": trace.schwarz_slack(),
                      "gap_estimate": trace.meta["gap_estimate"],
                      "stages": trace.meta["stages"]})
    return EXIT_OK


def _cmd_export_model(args) -> int:
    cfg = _merge(args)
    model = _model_of(cfg)
    out = cfg.get("out", f"{cfg['model']}_{cfg['size']}.json")
    model.export_json(out)
    print(f"wrote {out}")
    return EXIT_OK


def _cmd_export_generator(args) -> int:
    cfg = _merge(args)
    model = _model_of(cfg)
    if model.n_sites > 8:
        raise ValueError("full-space export refuses more than 8 sites")
    tp = ThermalParams.from_betaJ(_betaJ_of(cfg), cfg["coupling"])
    couplings = default_couplings(model, cfg.get("coupling_letters"))
    rep = build_generator(model, couplings=couplings, tp=tp)
    neg_l = liouville_matrix(rep)
    out = cfg.get("out", "generator.coo")
    write_coo_text(neg_l, out)
    _write_json(cfg, rep.meta)  # provenance: couplings, constants, basis
    print(f"wrote {out} ({neg_l.nnz} nonzeros); "
          f"detailed balance residual "
          f"{detailed_balance_residual(rep, samples=10, seed=cfg['seed']):.3e}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="daviesgap",
        description="Thermal generators of commuting-Pauli models: "
                    "verification, spectral-gap certification, dynamics.")
    sub = parser.add_subparsers(dest="command", required=True)
    model = "--model --size --coupling "
    for name, func, text, flags in [
            ("verify", _cmd_verify, "check all structural model invariants",
             model + "--json"),
            ("bounds", _cmd_bounds, "print the analytic gap lower bounds",
             "--betaJ --coupling --json"),
            ("gap", _cmd_gap, "certify the generator gap at one point",
             model + "--couplings --betaJ --method --seed --json --blocks-out"),
            ("sweep", _cmd_sweep, "certify over a size x betaJ grid (CSV)",
             "--model --sizes --coupling --couplings --betaJs --method --out"),
            ("dynamics", _cmd_dynamics, "autocorrelation trace and relaxation time",
             model + "--couplings --betaJ --observable --seed --json --out"),
            ("export-model", _cmd_export_model, "write the model as JSON",
             model + "--out"),
            ("export-generator", _cmd_export_generator, "write -L in coordinate format",
             model + "--couplings --betaJ --seed --json --out")]:
        p = sub.add_parser(name, help=text, allow_abbrev=False)  # --size is not --sizes
        for flag in ["--config", *flags.split()]:
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(func=func)
    return parser


_main_parser = functools.cache(build_parser)  # one per process: a build leaves cyclic garbage


def main(argv=None) -> int:
    args = _main_parser().parse_args(argv)
    try:
        return args.func(args)
    except (BoundViolationError, KernelMismatchError) as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except (SolverConvergenceError, EvolutionError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
