"""The gap, certify, dynamics and chain paths and the torus sign-flip
restriction load no scipy module; the full-space generator export loads
scipy.sparse on demand."""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# each script runs in a fresh interpreter (pytest itself has imported scipy
# here) and prints, as its last line, the scipy modules it loaded
RUNTIME = textwrap.dedent("""
    import contextlib, io, json, sys
    sys.path.insert(0, sys.argv[1])
    from daviesgap import cli, dynamics, spectral
    from daviesgap.davies import ThermalParams, build_generator
    from daviesgap.master import XBlockSpec, sign_flip_restriction
    from daviesgap.models import build_ising_ring, build_toric_code
    from daviesgap.pauli import PauliString

    tp = ThermalParams.from_betaJ(0.25)
    ring = build_ising_ring(4)
    spectral.certify(ring, tp)
    dynamics.autocorrelation(ring, tp)
    spectral.gap(spectral.abelian_chain_hamiltonian(6, tp),
                 kernel_basis=spectral.abelian_chain_kernel(6, tp.gamma))
    torus = build_toric_code(2)
    lrep = build_generator(torus, couplings=[PauliString.single(8, j, "X") for j in range(8)],
                           tp=tp)
    assert sign_flip_restriction(lrep, XBlockSpec(nu=1), check=True).matrix.shape == (64, 64)
    out = sys.argv[2]
    with contextlib.redirect_stdout(io.StringIO()):
        # the benchmark's two command lines
        assert cli.main(["gap", "--model", "ising", "--size", "4", "--betaJ", "0.25",
                         "--seed", "1", "--json", out + "/gap.json", "--method", "blocks"]) == 0
        assert cli.main(["dynamics", "--model", "ising", "--size", "4", "--betaJ", "0.25",
                         "--seed", "1", "--json", out + "/dynamics.json", "--observable", "Z1",
                         "--out", out + "/trace.csv"]) == 0
    print(json.dumps(sorted(name for name in sys.modules
                            if name == "scipy" or name.startswith("scipy."))))
""")

FULL_SPACE = textwrap.dedent("""
    import contextlib, io, json, sys
    sys.path.insert(0, sys.argv[1])
    from daviesgap import cli

    out = sys.argv[2]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["export-generator", "--model", "ising", "--size", "3",
                         "--betaJ", "0.25", "--out", out + "/gen.coo"]) == 0
    print(json.dumps(sorted(name for name in sys.modules
                            if name == "scipy" or name.startswith("scipy."))))
""")


def _scipy_modules(script, tmp_path) -> list:
    proc = subprocess.run([sys.executable, "-c", script, str(SRC), str(tmp_path)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_runtime_paths_load_no_scipy(tmp_path):
    assert _scipy_modules(RUNTIME, tmp_path) == []
    assert json.loads((tmp_path / "gap.json").read_text())["kernel_dim"] == 1


def test_no_scipy_linalg_or_csgraph_is_loaded(tmp_path):
    assert [name for name in _scipy_modules(RUNTIME, tmp_path) if name.startswith(
        ("scipy.linalg", "scipy.sparse.linalg", "scipy.sparse.csgraph"))] == []


def test_export_generator_loads_scipy_sparse_on_demand(tmp_path):
    assert "scipy.sparse" in _scipy_modules(FULL_SPACE, tmp_path)
    assert (tmp_path / "gen.coo").read_text().split()[0] == "64"
