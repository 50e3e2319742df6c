"""The runtime loads numpy and scipy.sparse only."""

import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# run in a fresh interpreter: pytest's warning filter already imports scipy.linalg here
SCRIPT = textwrap.dedent("""
    import sys
    sys.path.insert(0, sys.argv[1])
    from daviesgap import cli, dynamics, spectral
    from daviesgap.davies import ThermalParams
    from daviesgap.models import build_ising_ring

    tp = ThermalParams.from_betaJ(0.25)
    ring = build_ising_ring(4)
    spectral.certify(ring, tp)
    dynamics.autocorrelation(ring, tp)
    spectral.gap(spectral.abelian_chain_hamiltonian(6, tp))
    print(" ".join(sorted(name for name in sys.modules if name.startswith(
        ("scipy.linalg", "scipy.sparse.linalg", "scipy.sparse.csgraph")))))
""")


def test_no_scipy_linalg_or_csgraph_is_loaded():
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(SRC)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
