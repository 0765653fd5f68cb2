"""Approximate ground state projectors and their measured parameters.

An AGSP is a Hermitian K whose spectrum splits into a block >= sqrt(Gamma)
on (a projector near) the ground space and a block <= sqrt(Delta) on its
complement; epsilon is the operator-norm distance of that projector from
the true ground projector.  Constructions here: the linear rescaling of H
and the Chebyshev spectral filter.  The ordered product of local weak
factors is the product sweep's success operator
(``instrument.sweep_success_operator``); its claimed parameters are a test
reference, ``agsp_product`` in tests/oracles.py.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInstanceError, ParameterError
from .pauli import PauliHamiltonian, SpectralData, to_dense

_HERM_TOL = 1e-12


@dataclass(frozen=True)
class AgspParams:
    """(Delta, Gamma, epsilon) triple, with the square roots kept explicit.

    ``sqrt_gamma`` is the smallest eigenvalue of K on the selected block and
    ``sqrt_delta`` the largest magnitude outside it; ``delta``/``gamma`` are
    their squares, which is what the overlap and run-time bounds consume.
    """

    delta: float
    gamma: float
    epsilon: float
    sqrt_delta: float = field(default=None)  # type: ignore[assignment]
    sqrt_gamma: float = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.sqrt_delta is None:
            object.__setattr__(self, "sqrt_delta", float(np.sqrt(max(self.delta, 0.0))))
        if self.sqrt_gamma is None:
            object.__setattr__(self, "sqrt_gamma", float(np.sqrt(max(self.gamma, 0.0))))
        if self.delta < -1e-12 or self.epsilon < -1e-12:
            raise ParameterError(f"negative AGSP parameters: {self}")

    @classmethod
    def from_sqrt(cls, sqrt_delta: float, sqrt_gamma: float, epsilon: float) -> "AgspParams":
        return cls(
            delta=float(sqrt_delta) ** 2,
            gamma=float(sqrt_gamma) ** 2,
            epsilon=float(epsilon),
            sqrt_delta=float(sqrt_delta),
            sqrt_gamma=float(sqrt_gamma),
        )


@dataclass(frozen=True)
class Agsp:
    """Dense AGSP operator with claimed-or-measured parameters attached."""

    operator: np.ndarray
    params: AgspParams
    metadata: dict = field(default_factory=dict)
    # for K = f(H): f at each eigenvalue of the SpectralData it was built
    # from, so K = V diag(values) V^dag with V that data's eigenvectors
    values: np.ndarray | None = None

    def __post_init__(self):
        k = self.operator
        if np.abs(k - k.conj().T).max() > _HERM_TOL:
            raise ParameterError("AGSP operator is not Hermitian within 1e-12")


def agsp_linear(
    ham: PauliHamiltonian, spec: SpectralData, *, h_dense: np.ndarray | None = None
) -> Agsp:
    """K = (1 - H/kappa)/2 with its closed-form parameters.

    sqrt(Gamma) = (1 - lambda0/kappa)/2 and sqrt(Delta) = (1 - lambda1/kappa)/2,
    with epsilon = 0 since K commutes with the ground projector exactly.
    ``h_dense`` is ``to_dense(ham)`` when the caller already holds it.
    """
    if ham.kappa <= 0.0:
        raise DegenerateInstanceError("kappa = 0: Hamiltonian has no weight to rescale")
    mat = to_dense(ham) if h_dense is None else h_dense
    k = (np.eye(ham.dimension) - mat / ham.kappa) / 2.0
    k = (k + k.conj().T) / 2.0
    params = AgspParams.from_sqrt(
        sqrt_delta=(1.0 - spec.lambda1 / ham.kappa) / 2.0,
        sqrt_gamma=(1.0 - spec.lambda0 / ham.kappa) / 2.0,
        epsilon=0.0,
    )
    return Agsp(k, params, values=(1.0 - spec.eigenvalues / ham.kappa) / 2.0)


def _chebyshev_t(ell: int, y: np.ndarray) -> np.ndarray:
    """T_ell evaluated stably inside and outside [-1, 1]."""
    y = np.asarray(y, dtype=float)
    out = np.empty_like(y)
    inside = np.abs(y) <= 1.0
    out[inside] = np.cos(ell * np.arccos(np.clip(y[inside], -1.0, 1.0)))
    above = y > 1.0
    out[above] = np.cosh(ell * np.arccosh(y[above]))
    below = y < -1.0
    out[below] = (-1.0) ** ell * np.cosh(ell * np.arccosh(-y[below]))
    return out


def agsp_chebyshev(spec: SpectralData, ell: int, num_terms: int | None = None) -> Agsp:
    """Rescaled Chebyshev filter C_ell(H) applied by eigendecomposition.

    The polynomial is normalized to 1 at lambda0 and minimax-flat on
    [lambda1, ||H||]; when that interval degenerates to a point the monomial
    ((x - lambda1)/(lambda0 - lambda1))^ell is used instead, which annihilates
    the excited spectrum exactly.
    """
    if ell < 1:
        raise ParameterError(f"Chebyshev degree must be >= 1, got {ell}")
    tol = 1e-12 * max(1.0, spec.norm)
    if spec.gap <= tol:
        raise DegenerateInstanceError("gapless spectrum: Chebyshev filter undefined")
    if spec.eigenvalues is None or spec.eigenvectors is None:
        raise ParameterError("SpectralData must carry the full eigendecomposition")
    evals = spec.eigenvalues
    top = spec.norm
    if top - spec.lambda1 <= tol:
        vals = ((evals - spec.lambda1) / (spec.lambda0 - spec.lambda1)) ** ell
    else:
        y = (2.0 * evals - spec.lambda1 - top) / (top - spec.lambda1)
        y0 = (2.0 * spec.lambda0 - spec.lambda1 - top) / (top - spec.lambda1)
        vals = _chebyshev_t(ell, y) / _chebyshev_t(ell, np.array([y0]))[0]
    v = spec.eigenvectors
    k = (v * vals) @ v.conj().T
    k = (k + k.conj().T) / 2.0
    sqrt_delta_bound = 2.0 * np.exp(-2.0 * ell * np.sqrt(spec.gap / (spec.norm - spec.lambda0)))
    params = AgspParams.from_sqrt(sqrt_delta=min(sqrt_delta_bound, 1.0), sqrt_gamma=1.0, epsilon=0.0)
    metadata = {"degree": ell}
    if num_terms is not None:
        metadata["term_count_estimate"] = float((np.e / ell) ** ell * num_terms**ell)
    return Agsp(k, params, metadata=metadata, values=vals)


def verify_agsp(k: np.ndarray, pi0: np.ndarray) -> AgspParams:
    """Measure (Delta, Gamma, epsilon) of K against a ground projector.

    Selects the rank-N spectral projector of K closest to pi0 by
    overlap-greedy matching (largest <v|pi0|v> first, ties by descending
    eigenvalue), then reads the parameters off the split spectrum.  Always
    returns; a poor AGSP simply shows up as a large epsilon.
    """
    if np.abs(k - k.conj().T).max() > _HERM_TOL:
        raise ParameterError("verify_agsp needs a Hermitian operator")
    w, chosen, rest, pi = _select_block(k, pi0)
    sqrt_gamma = float(np.min(w[chosen])) if chosen.size else 0.0
    sqrt_delta = float(np.max(np.abs(w[rest]))) if rest.size else 0.0
    epsilon = float(np.linalg.norm(pi - pi0, ord=2))
    return AgspParams.from_sqrt(sqrt_delta=sqrt_delta, sqrt_gamma=sqrt_gamma, epsilon=epsilon)


def _select_block(k: np.ndarray, pi0: np.ndarray):
    """Eigenvalues of K, the chosen and the remaining eigen-indices, and the
    rank-N projector Pi onto the chosen ones."""
    n_ground = int(round(float(np.trace(pi0).real)))
    w, v = np.linalg.eigh(k)
    # <v_i|pi0|v_i> as one BLAS product and a row-wise dot
    overlaps = np.einsum("ij,ij->j", v.conj(), pi0 @ v).real
    order = np.lexsort((-w, -overlaps))
    chosen = order[:n_ground]
    return w, chosen, order[n_ground:], v[:, chosen] @ v[:, chosen].conj().T
