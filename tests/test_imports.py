"""The gap, certify, dynamics and chain paths and the torus sign-flip
restriction load no scipy module and no ``numpy.random``, every command
runs with scipy blocked from import, and ``dynamics`` reads the charge
blocks through public names only."""

import ast
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
    loaded = sorted(name for name in sys.modules if name.split(".")[:2] == ["numpy", "random"])
    assert not loaded, loaded
    print(json.dumps(sorted(name for name in sys.modules
                            if name == "scipy" or name.startswith("scipy."))))
""")

# the rest of the command line, after RUNTIME, in the same interpreter
COMMANDS = textwrap.dedent("""
    with contextlib.redirect_stdout(io.StringIO()):
        for args in (["export-generator", "--model", "ising", "--size", "3",
                      "--betaJ", "0.25", "--out", out + "/ring3.coo"],
                     ["export-generator", "--model", "toric", "--size", "2",
                      "--betaJ", "0.25", "--out", out + "/torus2.coo"],
                     ["verify", "--model", "toric", "--size", "2"],
                     ["bounds", "--betaJ", "0.25"],
                     ["sweep", "--model", "ising", "--sizes", "3,4", "--betaJs", "0,0.25",
                      "--out", out + "/sweep.csv"],
                     ["export-model", "--model", "toric", "--size", "2",
                      "--out", out + "/torus2.json"]):
            assert cli.main(args) == 0, args
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


def test_every_command_runs_with_scipy_blocked(tmp_path):
    # None in sys.modules makes every import of scipy raise ImportError; that
    # entry is the one scipy name the script lists
    assert _scipy_modules('import sys; sys.modules["scipy"] = None\n' + RUNTIME + COMMANDS,
                          tmp_path) == ["scipy"]
    assert (tmp_path / "ring3.coo").read_text().split()[:2] == ["64", "100"]
    assert (tmp_path / "torus2.coo").read_text().split()[:2] == ["65536", "311296"]


def test_dynamics_uses_no_private_name_of_master():
    tree = ast.parse((SRC / "daviesgap" / "dynamics.py").read_text())
    imported = [alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "master"
                for alias in node.names]
    assert imported and not [name for name in imported if name.startswith("_")]
    assert not [node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                and node.attr.startswith("_") and not node.attr.startswith("__")]
