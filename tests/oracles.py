"""Full-space reference operators for the tests.

``to_master`` assembles the whole 4^n-dimensional master operator K from
the jump components with sparse Kronecker products.  The package itself
certifies gaps on charge blocks only; the tests compare those blocks, their
spectra and the dynamics built from them against this K.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from daviesgap.davies import SuperOperatorRep, GeneratorError
from daviesgap.master import _g_weight
from daviesgap.spectral import GapReport, gap


def _component_k(matrix: sp.csr_matrix, eta: float) -> sp.csr_matrix:
    """(S_L - eta S_R)*(S_L - eta S_R) + (Sd_R - eta Sd_L)*(Sd_R - eta Sd_L).

    Both factors annihilate rho^{1/2}: S rho^{1/2} = eta rho^{1/2} S and
    Sd rho^{1/2} = eta^{-1} rho^{1/2} Sd for a component at frequency w.
    """
    dim = matrix.shape[0]
    ident = sp.identity(dim, format="csr", dtype=complex)
    adj = matrix.conj().T.tocsr()
    a = sp.kron(ident, matrix, format="csr") - eta * sp.kron(matrix.T, ident, format="csr")
    b = sp.kron(matrix.conj(), ident, format="csr") - eta * sp.kron(ident, adj, format="csr")
    return (a.conj().T @ a + b.conj().T @ b).tocsr()


@dataclass
class MasterHamiltonian:
    rep: SuperOperatorRep
    kernel_witness: np.ndarray
    components: list = field(default_factory=list)  # positive-frequency JumpComponents

    @property
    def matrix(self):
        return self.rep.matrix

    @property
    def component_index(self) -> list:
        """(coupling_index, omega) of each positive-frequency summand of K."""
        return [(c.coupling_index, c.omega) for c in self.components]

    def component(self, i: int) -> sp.csr_matrix:
        """Materialize one positive-frequency summand of K."""
        comp = self.components[i]
        eta = math.exp(-self.rep.beta * comp.omega / 2.0)
        return _g_weight(comp.rate, comp.omega) * _component_k(comp.matrix, eta)

    def kernel_residual(self) -> float:
        v = self.kernel_witness
        return float(np.linalg.norm(self.matrix @ v))


def to_master(lrep: SuperOperatorRep) -> MasterHamiltonian:
    """Unitarily transport -L to Hilbert-Schmidt space via X -> X rho^{1/2}."""
    if lrep.space != "liouville":
        raise GeneratorError("to_master expects a Liouville-space generator")
    if lrep.rho is None or lrep.frame is None:
        raise GeneratorError("generator lacks Gibbs weights or basis frame")
    dim = lrep.frame.dim
    k = sp.csr_matrix((dim * dim, dim * dim), dtype=complex)
    # negative frequencies are covered by the adjoint of the positive ones
    comps = [c for c in lrep.components if c.omega >= -1e-12]
    for comp in comps:
        eta = math.exp(-lrep.beta * comp.omega / 2.0)
        k = k + _g_weight(comp.rate, comp.omega) * _component_k(comp.matrix, eta)

    witness = np.zeros(dim * dim, dtype=complex)
    witness[np.arange(dim) * (dim + 1)] = np.sqrt(lrep.rho)
    rep = SuperOperatorRep(matrix=k.tocsr(), space="hilbert-schmidt",
                           beta=lrep.beta, frame=lrep.frame, rho=lrep.rho,
                           components=lrep.components, meta=dict(lrep.meta))
    return MasterHamiltonian(rep=rep, kernel_witness=witness, components=comps)


def full_space_gap(lrep: SuperOperatorRep, expected_kernel=None,
                   iterative: bool = False) -> GapReport:
    """Gap of the full K: dense ``eigh``, or shift-invert Lanczos with ``iterative``."""
    master = to_master(lrep)
    dense_cap = 0 if iterative else master.matrix.shape[0]
    return gap(master.rep, expected_kernel=expected_kernel, dense_cap=dense_cap)
