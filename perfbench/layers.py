"""Which daviesgap names the traced run wraps, and the per-layer metrics.

Every timing below is a self time (span minus its child spans), summed over
one sweep of the workload: the mean over an operation's samples, summed over
the workload's distinct operations.  Counts are per sweep the same way,
except the ``max`` ones, which are the largest value any call produced.
Layers that a workload never reaches report 0.
"""

from __future__ import annotations

from collections import defaultdict

# name -> (unit, what it is)
PER_LAYER = {
    "cli.self_s": ("s", "self time of cli.main: argparse, printing, JSON/CSV writing"),
    "models.build_s": ("s", "self time of the model builders"),
    "basis.build_frame_s": ("s", "self time of build_frame"),
    "basis.frame_builds": ("count", "build_frame calls per sweep"),
    "pauli.commutant_dimension_s": ("s", "self time of commutant_dimension"),
    "davies.build_generator_s": ("s", "self time of build_generator"),
    "davies.generator_nnz": ("count", "max nonzeros of one generator"),
    "davies.components": ("count", "max jump components of one generator"),
    "davies.generator_builds_per_op": ("count", "build_generator calls per operation"),
    "master.to_master_s": ("s", "self time of to_master"),
    "master.k_nnz": ("count", "max nonzeros of one master operator K"),
    "master.block_basis_s": ("s", "self time of block_basis"),
    "master.block_matrix_s": ("s", "self time of block_matrix"),
    "master.blocks": ("count", "max blocks of one gap_from_blocks call"),
    "master.block_dim": ("count", "max block dimension"),
    "spectral.certify_s": ("s", "self time of certify"),
    "spectral.certify_calls": ("count", "certify calls per sweep"),
    "spectral.gap_from_blocks_self_s": ("s", "self time of gap_from_blocks, mostly eigh"),
    "spectral.chain_build_s": ("s", "self time of abelian_chain_hamiltonian and _kernel"),
    "spectral.gap_dense_s": ("s", "self time of gap calls answered by the dense path"),
    "spectral.gap_iterative_s": ("s", "self time of gap calls answered iteratively"),
    "spectral.iterative_gap_calls": ("count", "iterative gap calls per sweep"),
    "spectral.first_choice_solver_share": (
        "ratio", "share of iterative gap calls whose solver is shift-invert"),
    "dynamics.autocorrelation_self_s": ("s", "self time of autocorrelation"),
    "dynamics.grid_points": ("count", "time-grid points per sweep"),
    "dynamics.point_ms": ("ms", "autocorrelation self time per grid point"),
    "trace.wall_s": ("s", "traced wall time of one sweep"),
    "trace.glue_s": ("s", "time inside operations but outside every layer span"),
    "trace.overhead_s": ("s", "wrapper bookkeeping time per sweep"),
    "trace.ops": ("count", "operations traced in the run"),
}

# span name -> per-layer self-time metric
_SELF_METRIC = {
    "op": "trace.glue_s",
    "cli.main": "cli.self_s",
    "models.build": "models.build_s",
    "basis.build_frame": "basis.build_frame_s",
    "pauli.commutant_dimension": "pauli.commutant_dimension_s",
    "davies.build_generator": "davies.build_generator_s",
    "master.to_master": "master.to_master_s",
    "master.block_basis": "master.block_basis_s",
    "master.block_matrix": "master.block_matrix_s",
    "spectral.certify": "spectral.certify_s",
    "spectral.gap_from_blocks": "spectral.gap_from_blocks_self_s",
    "spectral.chain_build": "spectral.chain_build_s",
    "dynamics.autocorrelation": "dynamics.autocorrelation_self_s",
}


def _generator_info(rep, info):
    info["nnz"] = rep.matrix.nnz
    info["components"] = len(rep.components)


def instrument(tracer, cli, spectral, dynamics) -> None:
    """Wrap each public name where its callers look it up.

    A name a later version of the package no longer has is skipped, so its
    layer reads 0 instead of failing the run.
    """
    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(cli, "build_ising_or_toric", "models.build")
    tracer.wrap(cli, "certify", "spectral.certify")
    tracer.wrap(cli, "autocorrelation", "dynamics.autocorrelation",
                lambda tr, info: info.update(points=len(tr.times)))
    tracer.wrap(spectral, "certify", "spectral.certify")
    for module in (spectral, dynamics):
        tracer.wrap(module, "build_frame", "basis.build_frame")
        tracer.wrap(module, "build_generator", "davies.build_generator",
                    _generator_info)
    tracer.wrap(spectral, "to_master", "master.to_master",
                lambda m, info: info.update(nnz=m.matrix.nnz))
    tracer.wrap(spectral, "commutant_dimension", "pauli.commutant_dimension")
    tracer.wrap(spectral, "gap_from_blocks", "spectral.gap_from_blocks")
    tracer.wrap(spectral, "block_basis", "master.block_basis",
                lambda b, info: info.update(dim=b.shape[1]))
    tracer.wrap(spectral, "block_matrix", "master.block_matrix")
    tracer.wrap(spectral, "abelian_chain_hamiltonian", "spectral.chain_build")
    tracer.wrap(spectral, "abelian_chain_kernel", "spectral.chain_build")
    tracer.wrap(spectral, "gap", "spectral.gap",
                lambda r, info: info.update(solver=r.solver))


def layer_metrics(tracer, sample_keys: list[str],
                  sample_overhead: list[float]) -> dict:
    """Per-layer metrics from the spans of a traced run.

    ``sample_keys[i]`` is the operation key of sample i (the ``op`` index of
    its spans); ``sample_overhead[i]`` its wrapper bookkeeping time.
    """
    selfs = tracer.self_times()
    per_sample = [defaultdict(float) for _ in sample_keys]
    peaks = defaultdict(int)
    blocks_per_call = defaultdict(int)
    for i, span in enumerate(tracer.spans):
        if span.op < 0:
            continue
        acc = per_sample[span.op]
        name = span.name
        if name in _SELF_METRIC:
            acc[_SELF_METRIC[name]] += selfs[i]
        if name == "op":
            acc["trace.wall_s"] += span.duration
        elif name == "basis.build_frame":
            acc["basis.frame_builds"] += 1
        elif name == "davies.build_generator":
            acc["davies.generator_builds_per_op"] += 1
            peaks["davies.generator_nnz"] = max(peaks["davies.generator_nnz"],
                                                span.info.get("nnz", 0))
            peaks["davies.components"] = max(peaks["davies.components"],
                                             span.info.get("components", 0))
        elif name == "master.to_master":
            peaks["master.k_nnz"] = max(peaks["master.k_nnz"], span.info.get("nnz", 0))
        elif name == "master.block_basis":
            blocks_per_call[span.parent] += 1
            peaks["master.block_dim"] = max(peaks["master.block_dim"],
                                            span.info.get("dim", 0))
        elif name == "spectral.certify":
            acc["spectral.certify_calls"] += 1
        elif name == "spectral.gap":
            solver = span.info.get("solver", "")
            if solver.startswith("iterative"):
                acc["spectral.gap_iterative_s"] += selfs[i]
                acc["spectral.iterative_gap_calls"] += 1
                acc["first_choice"] += solver == "iterative"
            else:
                acc["spectral.gap_dense_s"] += selfs[i]
        elif name == "dynamics.autocorrelation":
            acc["dynamics.grid_points"] += span.info.get("points", 0)
    for acc, overhead in zip(per_sample, sample_overhead):
        acc["trace.overhead_s"] += overhead

    # mean over each operation's samples, summed over distinct operations
    by_key = defaultdict(list)
    for key, acc in zip(sample_keys, per_sample):
        by_key[key].append(acc)
    sweep = defaultdict(float)
    for accs in by_key.values():
        for name in set().union(*accs):
            sweep[name] += sum(a[name] for a in accs) / len(accs)

    out = {name: 0.0 for name in PER_LAYER}
    out.update({k: v for k, v in sweep.items() if k in out})
    out.update(peaks)
    out["master.blocks"] = max(blocks_per_call.values(), default=0)
    out["davies.generator_builds_per_op"] = (
        sum(a["davies.generator_builds_per_op"] for a in per_sample)
        / max(len(per_sample), 1))
    calls = sweep["spectral.iterative_gap_calls"]
    out["spectral.first_choice_solver_share"] = (
        sweep["first_choice"] / calls if calls else 0.0)
    points = sweep["dynamics.grid_points"]
    out["dynamics.point_ms"] = (
        1e3 * sweep["dynamics.autocorrelation_self_s"] / points if points else 0.0)
    out["trace.ops"] = len(sample_keys)
    return out
