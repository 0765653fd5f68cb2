"""Two-outcome weak-measurement instruments, transfer matrices, fixed points.

Vectorization fixes the column-stacking convention: |rho>> stacks columns,
so the map rho -> A rho B^dag has transfer matrix conj(B) (x) A.  The trace
functional is the row vector <<1| = vec(identity)^dag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import (
    ConvergenceError,
    InvalidAgspError,
    ParameterError,
    ResourceLimitError,
    SingularFixedPointError,
)
from .pauli import PauliHamiltonian, PauliString, PauliTerm, support_index_table

TRANSFER_LIMIT_QUBITS = 6


def vec(rho: np.ndarray) -> np.ndarray:
    """Column-stacked vectorization of a matrix."""
    return np.asarray(rho).reshape(-1, order="F").astype(np.complex128, copy=False)


def unvec(v: np.ndarray) -> np.ndarray:
    d = int(round(np.sqrt(v.size)))
    return np.asarray(v).reshape((d, d), order="F")


def trace_row(dim: int) -> np.ndarray:
    """<<1| as a 1-D array: <<1|rho>> = tr(rho)."""
    return vec(np.eye(dim)).conj()


class ResamplerKind(Enum):
    GLOBAL = "global"
    LOCAL = "local"
    IDENTITY = "identity"
    CUSTOM = "custom"


@dataclass(frozen=True)
class Resampler:
    """Recovery map applied after a failure outcome.

    ``min_support`` is the guaranteed minimum eigenvalue mu of the output:
    1/D for global maximally-mixed resampling, 0 for the others unless a
    custom map declares better.
    """

    kind: ResamplerKind
    qubits: tuple[int, ...] | None = None
    kraus: tuple[np.ndarray, ...] | None = None
    min_support: float = 0.0

    def __post_init__(self):
        if self.kind is ResamplerKind.LOCAL and not self.qubits:
            raise ParameterError("local resampler needs a qubit set")
        if self.kind is ResamplerKind.CUSTOM:
            if not self.kraus:
                raise ParameterError("custom resampler needs Kraus operators")
            d = self.kraus[0].shape[0]
            comp = sum(a.conj().T @ a for a in self.kraus)
            if np.abs(comp - np.eye(d)).max() > 1e-10:
                raise ParameterError("custom resampler Kraus set is not trace-preserving")

    @staticmethod
    def global_mixed(dim: int) -> "Resampler":
        return Resampler(ResamplerKind.GLOBAL, min_support=1.0 / dim)

    @staticmethod
    def local_mixed(qubits) -> "Resampler":
        return Resampler(ResamplerKind.LOCAL, qubits=tuple(sorted(qubits)))

    @staticmethod
    def identity() -> "Resampler":
        return Resampler(ResamplerKind.IDENTITY)

    @staticmethod
    def custom(kraus, min_support: float = 0.0) -> "Resampler":
        return Resampler(
            ResamplerKind.CUSTOM,
            kraus=tuple(np.asarray(a, dtype=np.complex128) for a in kraus),
            min_support=min_support,
        )


def validate_min_support(resampler: Resampler, num_qubits: int, rng, samples: int = 20):
    """Check the declared mu by minimum-eigenvalue sampling.

    Applies the resampling map to random pure states and verifies the output
    never dips below the declared minimum support.  Raises ParameterError on
    a violation (custom resamplers must declare an honest mu).
    """
    if resampler.min_support <= 0.0:
        return
    d = 1 << num_qubits
    t = resampler_transfer(resampler, num_qubits).matrix
    for _ in range(samples):
        psi = rng.normal(size=d) + 1j * rng.normal(size=d)
        psi /= np.linalg.norm(psi)
        out = unvec(t @ vec(np.outer(psi, psi.conj())))
        lam = float(np.linalg.eigvalsh((out + out.conj().T) / 2.0).min())
        if lam < resampler.min_support - 1e-10:
            raise ParameterError(
                f"resampler output eigenvalue {lam:.3e} below declared mu "
                f"{resampler.min_support:.3e}"
            )


@dataclass(frozen=True)
class Instrument:
    """Success/failure Kraus pair {E0, E1} plus the resampling map."""

    e0: np.ndarray
    e1: np.ndarray
    resampler: Resampler
    support: tuple[int, ...] | None = None

    @property
    def kraus0(self) -> tuple[np.ndarray, ...]:
        return (self.e0,)

    @property
    def kraus1(self) -> tuple[np.ndarray, ...]:
        return (self.e1,)

    @property
    def dimension(self) -> int:
        return self.e0.shape[0]


def principal_sqrt_complement(e0: np.ndarray) -> np.ndarray:
    """Principal square root of 1 - E0^dag E0.

    Eigenvalues below 1e-13 are treated as exact zeros: the square root
    would otherwise inflate eigh roundoff to the 1e-8 scale and spoil the
    circuit-equivalence tolerance.
    """
    g = np.eye(e0.shape[0]) - e0.conj().T @ e0
    g = (g + g.conj().T) / 2.0
    w, v = np.linalg.eigh(g)
    if w.min() < -1e-9:
        raise InvalidAgspError(f"1 - E0^dag E0 has eigenvalue {w.min():.3e} < 0; scale the AGSP")
    w = np.where(w < 1e-13, 0.0, w)
    return (v * np.sqrt(w)) @ v.conj().T


def make_instrument(op: np.ndarray, eps: float, resampler: Resampler, support=None) -> Instrument:
    """Weak measurement E0 = (1-eps)1 + eps*op with E1 completing it.

    ``op`` is the (pre-weighted) Hermitian AGSP piece: the global K, or a
    local factor kappa_v k_v embedded in the full space.  eps = 1 recovers
    the bare AGSP Kraus pair, eps = 0 the trivial instrument.
    """
    _check_eps(eps)
    d = op.shape[0]
    e0 = (1.0 - eps) * np.eye(d) + eps * op
    if np.linalg.norm(e0, ord=2) > 1.0 + 1e-12:
        raise InvalidAgspError("||E0|| > 1: AGSP piece must be pre-scaled below unit norm")
    e1 = principal_sqrt_complement(e0)
    return Instrument(e0, e1, resampler, tuple(support) if support is not None else None)


def _check_eps(eps: float):
    if not 0.0 <= eps <= 1.0:
        raise ParameterError(f"eps must be in [0, 1], got {eps}")


def _check_weight(weight: float):
    if not 0.0 <= weight <= 1.0:
        raise ParameterError(f"measurement weight must be in [0, 1], got {weight}")


def dilation_angles(eps: float, weight: float) -> tuple[float, float]:
    """Dilation angles (theta, phi) with cos(theta) = 1 - eps and
    cos(phi) = 1 - eps(1 - w): E0 is cos(phi) on the range of k_v and
    cos(theta) off it.

    They are computed in half-angle form, theta = 2 asin(sqrt(eps/2)) and
    phi = 2 asin(sqrt(eps(1 - w)/2)), which keeps full relative accuracy
    as eps -> 0, where acos(1 - eps) loses eps below the spacing of doubles
    near 1.
    """
    _check_eps(eps)
    _check_weight(weight)
    theta = 2.0 * math.asin(math.sqrt(eps / 2.0))
    return theta, 2.0 * math.asin(math.sqrt(eps * (1.0 - weight) / 2.0))


@dataclass(frozen=True, eq=False)
class TermInstrument:
    """The weak measurement of one Pauli term at measurement weight w.

    With the local projector k_v = (1 - s_v h_v)/2, the success Kraus
    operator is E0 = (1 - eps) 1 + eps w k_v and the failure operator its
    principal complement root E1.  Both are diagonal in the eigenbasis of
    k_v, so both are affine in the Pauli string: E_b = a_b 1 + b_b h_v.
    ``coefficients`` is the only copy of that closed form; the local Kraus
    pair and the embedded instrument are built from it, and the dilation
    angles (``dilation_angles``) have cos(phi) and cos(theta) equal to its
    eigenvalues of E0.
    ``table``, ``perm`` and ``phase`` act on the full register: the term's
    support index table and the phase-permutation h|psi> = (phase psi)[perm].
    They hold 2^n entries each, so like the local matrices they are built on
    first use: the closed form, the local Kraus pair and the angles stay
    O(4^k) on any register size.
    """

    term: PauliTerm
    weight: float

    def __post_init__(self):
        _check_weight(self.weight)

    @property
    def num_qubits(self) -> int:
        return self.term.string.num_qubits

    @property
    def sign(self) -> float:
        return self.term.sign

    @cached_property
    def support(self) -> tuple[int, ...]:
        return self.term.string.support

    @cached_property
    def table(self) -> np.ndarray:
        return support_index_table(self.num_qubits, self.support)

    @cached_property
    def _perm_and_phase(self) -> tuple[np.ndarray, np.ndarray]:
        return self.term.string.perm_and_phase()

    @cached_property
    def perm(self) -> np.ndarray:
        return self._perm_and_phase[0]

    @cached_property
    def phase(self) -> np.ndarray:
        return self._perm_and_phase[1]

    @cached_property
    def h_local(self) -> np.ndarray:
        """h_v on the support qubits; an identity term has h_v = 1 on a
        trivial support."""
        sub = "".join(c for c in self.term.string.factors if c != "I")
        return PauliString(sub).to_matrix() if sub else np.ones((1, 1), dtype=np.complex128)

    @cached_property
    def k_local(self) -> np.ndarray:
        """k_v = (1 - s_v h_v)/2 on the support qubits."""
        return (np.eye(self.h_local.shape[0]) - self.sign * self.h_local) / 2.0

    def coefficients(self, eps: float) -> tuple[complex, complex, complex, complex]:
        """(a0, b0, a1, b1) with E0 = a0 1 + b0 h_v and E1 = a1 1 + b1 h_v.

        E0 is cos(phi) on the range of k_v and 1 - eps = cos(theta) off it;
        E1 is sin(phi) and sin(theta) = sqrt(eps (2 - eps)) there.
        """
        _check_eps(eps)
        w, s = self.weight, self.sign
        s_theta = np.sqrt(max(eps * (2.0 - eps), 0.0))
        c = 1.0 - eps * (1.0 - w)
        s_phi = np.sqrt(max(1.0 - c * c, 0.0))
        return (
            complex(1.0 - eps + eps * w / 2.0),
            complex(-eps * w * s / 2.0),
            complex((s_phi + s_theta) / 2.0),
            complex(-s * (s_phi - s_theta) / 2.0),
        )

    def kraus(self, eps: float) -> tuple[np.ndarray, np.ndarray]:
        """The local 2^k x 2^k pair (E0, E1) on the term's support."""
        a0, b0, a1, b1 = self.coefficients(eps)
        eye = np.eye(self.h_local.shape[0], dtype=np.complex128)
        return a0 * eye + b0 * self.h_local, a1 * eye + b1 * self.h_local

    def embed(self, op: np.ndarray) -> np.ndarray:
        """A local operator on the support, padded with the identity elsewhere."""
        d = 1 << self.num_qubits
        full = np.zeros((d, d), dtype=np.complex128)
        full[self.table[:, :, None], self.table[:, None, :]] = op
        return full

    def instrument(self, eps: float, resampler: Resampler) -> Instrument:
        """The full-space instrument with this term's support declared."""
        e0, e1 = self.kraus(eps)
        return Instrument(self.embed(e0), self.embed(e1), resampler, self.support)


def term_weights(ham: PauliHamiltonian, weighting: str) -> list[float]:
    """Per-term measurement weights kappa_v.

    "sum" divides by kappa = sum |alpha| (the linear-AGSP factorization);
    "max" divides by max |alpha|, so uniform-coefficient Hamiltonians get
    kappa_v = 1 exactly (the simplified projective-factor case).
    """
    if weighting == "sum":
        return [abs(t.coefficient) / ham.kappa for t in ham.terms]
    amax = max(abs(t.coefficient) for t in ham.terms)
    return [abs(t.coefficient) / amax for t in ham.terms]


def term_instruments(ham: PauliHamiltonian, weighting: str) -> list[TermInstrument]:
    return [TermInstrument(t, w) for t, w in zip(ham.terms, term_weights(ham, weighting))]


def sweep_success_operator(terms, eps: float) -> np.ndarray:
    """M M^dag with M = E0_1 ... E0_m: the all-success branch of a
    forward-then-reversed sweep, as one Hermitian Kraus operator.

    Each factor acts through its phase-permutation, fwd E0 = a0 fwd +
    b0 fwd h, at O(D^2) per term.
    """
    d = 1 << terms[0].num_qubits
    fwd = np.eye(d, dtype=np.complex128)
    for t in terms:
        a0, b0, _, _ = t.coefficients(eps)
        # (fwd h)[:, c] = fwd[:, perm[c]] phase[c]
        fwd = a0 * fwd + b0 * (fwd[:, t.perm] * t.phase)
    k = fwd @ fwd.conj().T
    return (k + k.conj().T) / 2.0


@dataclass(frozen=True)
class TransferMatrix:
    """Dense D^2 x D^2 matrix form of a CP map."""

    matrix: np.ndarray
    trace_preserving: bool = field(default=False)

    @property
    def dim(self) -> int:
        return int(round(np.sqrt(self.matrix.shape[0])))

    def apply(self, rho: np.ndarray) -> np.ndarray:
        return unvec(self.matrix @ vec(rho))


def _check_transfer_dim(dim: int):
    if dim > 1 << TRANSFER_LIMIT_QUBITS:
        raise ResourceLimitError(
            f"dimension {dim} exceeds the {TRANSFER_LIMIT_QUBITS}-qubit transfer-matrix cap"
        )


def transfer_of_kraus(ops) -> TransferMatrix:
    """E = sum_i conj(A_i) (x) A_i in the column-stacking convention."""
    ops = list(ops)
    d = ops[0].shape[0]
    _check_transfer_dim(d)
    mat = np.zeros((d * d, d * d), dtype=np.complex128)
    for a in ops:
        mat += np.kron(a.conj(), a)
    row = trace_row(d)
    tp = bool(np.abs(row @ mat - row).max() < 1e-9)
    return TransferMatrix(mat, trace_preserving=tp)


def resampler_transfer(resampler: Resampler, num_qubits: int) -> TransferMatrix:
    d = 1 << num_qubits
    _check_transfer_dim(d)
    if resampler.kind is ResamplerKind.GLOBAL:
        mat = np.outer(vec(np.eye(d) / d), trace_row(d).conj()).astype(np.complex128)
        return TransferMatrix(mat, trace_preserving=True)
    if resampler.kind is ResamplerKind.IDENTITY:
        return TransferMatrix(np.eye(d * d, dtype=np.complex128), trace_preserving=True)
    if resampler.kind is ResamplerKind.LOCAL:
        table = support_index_table(num_qubits, resampler.qubits)
        ds = table.shape[1]
        ops = []
        for a in range(ds):
            for b in range(ds):
                k = np.zeros((d, d), dtype=np.complex128)
                k[table[:, b], table[:, a]] = 1.0 / np.sqrt(ds)
                ops.append(k)
        return transfer_of_kraus(ops)
    return transfer_of_kraus(resampler.kraus)


def transfer_of_instrument_success(inst: Instrument) -> TransferMatrix:
    return transfer_of_kraus(inst.kraus0)


def transfer_of_instrument_failure(inst: Instrument, num_qubits: int | None = None) -> TransferMatrix:
    """Failure branch rho -> R(E1 rho E1^dag) as a transfer matrix.

    For the global maximally-mixed resampler this equals
    |1/D>><<1| (1 - E0-transfer) identically, which is the form used.
    """
    d = inst.dimension
    if num_qubits is None:
        num_qubits = int(round(np.log2(d)))
    if inst.resampler.kind is ResamplerKind.GLOBAL:
        t0 = transfer_of_kraus(inst.kraus0).matrix
        mat = np.outer(vec(np.eye(d) / d), trace_row(d).conj()) @ (np.eye(d * d) - t0)
        return TransferMatrix(mat.astype(np.complex128))
    r = resampler_transfer(inst.resampler, num_qubits).matrix
    t1 = sum(np.kron(a.conj(), a) for a in inst.kraus1)
    return TransferMatrix(r @ t1)


def global_channel_transfer(e0: np.ndarray) -> TransferMatrix:
    """Transfer matrix of rho -> E0 rho E0^dag + (tr rho - tr E0 rho E0^dag) 1/D."""
    d = e0.shape[0]
    _check_transfer_dim(d)
    t0 = np.kron(e0.conj(), e0)
    mat = t0 + np.outer(vec(np.eye(d) / d), trace_row(d).conj()) @ (np.eye(d * d) - t0)
    return TransferMatrix(mat, trace_preserving=True)


def fixed_point_direct(k: np.ndarray, margin: float = 1e-8) -> np.ndarray:
    """Closed-form fixed point (1 - K^2)^{-1} / tr(...) for ||K|| < 1.

    Refuses near-singular inversions: the channel only has this fixed point
    when the AGSP norm stays strictly below 1.
    """
    k = (k + k.conj().T) / 2.0
    w, v = np.linalg.eigh(k)
    if np.max(np.abs(w)) >= 1.0 - margin:
        raise SingularFixedPointError(
            f"||K|| = {np.max(np.abs(w)):.12f} too close to 1 for the closed-form fixed point"
        )
    x = 1.0 / (1.0 - w**2)
    rho = (v * x) @ v.conj().T
    rho = (rho + rho.conj().T) / 2.0
    return rho / np.trace(rho).real


def fixed_point_iterate(
    transfer, tol: float = 1e-10, max_iters: int = 200000, rho0: np.ndarray | None = None
) -> np.ndarray:
    """Power-iterate a trace-preserving transfer matrix to its fixed point."""
    mat = transfer.matrix if isinstance(transfer, TransferMatrix) else np.asarray(transfer)
    d = int(round(np.sqrt(mat.shape[0])))
    rho = np.eye(d, dtype=np.complex128) / d if rho0 is None else rho0.astype(np.complex128)
    v = vec(rho)
    for _ in range(max_iters):
        nv = mat @ v
        diff = unvec(nv - v)
        diff = (diff + diff.conj().T) / 2.0
        resid = 0.5 * float(np.abs(np.linalg.eigvalsh(diff)).sum())
        v = nv
        if resid < tol:
            rho = unvec(v)
            rho = (rho + rho.conj().T) / 2.0
            return rho / np.trace(rho).real
    raise ConvergenceError(
        f"fixed point not converged after {max_iters} iterations", residual=resid
    )


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    diff = (a - b + (a - b).conj().T) / 2.0
    return 0.5 * float(np.abs(np.linalg.eigvalsh(diff)).sum())


# ---------------------------------------------------------------------------
# Per-sweep channel transfers: the exact density-matrix view of one sweep of
# the trajectory engine, used as the oracle for Monte Carlo runs.  Each
# micro-step acts on the qubits it touches, as a local superoperator on a
# stack of vectorized matrices (Wood, Biamonte & Cory, QIC 15 (2015)).
# ---------------------------------------------------------------------------

_PADDING_TOL = 1e-10


def apply_local_transfer(t_loc: np.ndarray, support, num_qubits: int, x: np.ndarray) -> np.ndarray:
    """Apply a k-local transfer matrix to every column of a D^2 x N stack.

    ``t_loc`` is the 4^k x 4^k transfer of a map on the ascending qubits
    ``support``, in the column-stacking convention of this module.  The
    result equals (t_loc padded with the identity elsewhere) @ x at
    O(D^2 N 4^k) cost instead of O(D^4 N).
    """
    xt = x.reshape((2,) * (2 * num_qubits) + (x.shape[1],))
    return apply_local_tensor(t_loc, support, num_qubits, xt).reshape(x.shape)


def apply_local_tensor(t_loc: np.ndarray, support, num_qubits: int, xt: np.ndarray) -> np.ndarray:
    """``apply_local_transfer`` on a stack held as its (2,)*2n + (N,) tensor.

    The result is a view in the input's axis order, not a contiguous copy,
    so a chain of calls copies the stack once per call (inside tensordot)
    and the caller reshapes to D^2 x N once at the end.
    """
    n, k = num_qubits, len(support)
    axes = list(support) + [n + q for q in support]
    out = np.tensordot(t_loc.reshape((2,) * (4 * k)), xt, axes=(range(2 * k, 4 * k), axes))
    return np.moveaxis(out, range(2 * k), axes)


def _support_block(op: np.ndarray, table: np.ndarray, name: str) -> np.ndarray:
    """The block of ``op`` on a support, checked to be identity-padded."""
    block = op[np.ix_(table[0], table[0])]
    padded = np.zeros_like(op)
    padded[table[:, :, None], table[:, None, :]] = block
    defect = float(np.abs(op - padded).max())
    if defect > _PADDING_TOL:
        raise ParameterError(
            f"{name} is not the identity outside its declared support (defect {defect:.2e})"
        )
    return block


class _MicroStep:
    """One instrument of a sweep as local superoperators on its qubits.

    The qubits are the instrument's support joined with a local resampler's
    qubits.  An instrument without a support, or with a custom resampler,
    acts on all qubits.  The global resampler stays a rank-one update.
    """

    def __init__(self, inst: Instrument, num_qubits: int):
        res = inst.resampler
        if inst.support is None or res.kind is ResamplerKind.CUSTOM:
            qubits = tuple(range(num_qubits))
        else:
            extra = res.qubits if res.kind is ResamplerKind.LOCAL else ()
            qubits = tuple(sorted(set(inst.support) | set(extra)))
        table = support_index_table(num_qubits, qubits)
        e0 = _support_block(inst.e0, table, "E0")
        e1 = _support_block(inst.e1, table, "E1")
        self.qubits, self.num_qubits, self.dim = qubits, num_qubits, inst.dimension
        self.t0 = np.kron(e0.conj(), e0)
        self.t_full = None
        if res.kind is not ResamplerKind.GLOBAL:
            t1 = np.kron(e1.conj(), e1)
            if res.kind is ResamplerKind.LOCAL:
                local = Resampler.local_mixed(qubits.index(q) for q in res.qubits)
                t1 = resampler_transfer(local, len(qubits)).matrix @ t1
            elif res.kind is ResamplerKind.CUSTOM:
                t1 = resampler_transfer(res, num_qubits).matrix @ t1
            self.t_full = self.t0 + t1

    # both branches take and return a stack as its (2,)*2n + (N,) tensor
    def success(self, xt: np.ndarray) -> np.ndarray:
        return apply_local_tensor(self.t0, self.qubits, self.num_qubits, xt)

    def channel(self, xt: np.ndarray) -> np.ndarray:
        """Success plus failure branch; global resampling is
        Y + |1/D>>(<<1|X - <<1|Y) with Y the success branch."""
        if self.t_full is not None:
            return apply_local_tensor(self.t_full, self.qubits, self.num_qubits, xt)
        x = xt.reshape(self.dim**2, -1)
        y = self.success(xt).reshape(x.shape)
        diag = np.arange(self.dim) * (self.dim + 1)
        y[diag] += (x[diag].sum(axis=0) - y[diag].sum(axis=0)) / self.dim
        return y.reshape(xt.shape)


def _eye_tensor(d: int, num_qubits: int) -> np.ndarray:
    """The D^2 x D^2 identity stack as its (2,)*2n + (D^2,) tensor."""
    return np.eye(d * d, dtype=np.complex128).reshape((2,) * (2 * num_qubits) + (d * d,))


def sweep_transfer_product(instruments, num_qubits: int):
    """(T0_sweep, T1_sweep) for one forward-then-reversed sweep.

    The success branch is conj(K) (x) K with K the product of the 2m E0
    in sweep order; the failure branch is everything else: resampling
    fires right after the failing term and the sweep continues, so
    T1 = (full sweep channel) - T0.
    """
    d = instruments[0].dimension
    _check_transfer_dim(d)
    steps = [_MicroStep(inst, num_qubits) for inst in instruments]
    full = _eye_tensor(d, num_qubits)
    kraus = np.eye(d, dtype=np.complex128)
    for v in list(range(len(steps))) + list(reversed(range(len(steps)))):
        full = steps[v].channel(full)
        kraus = instruments[v].e0 @ kraus
    full = full.reshape(d * d, d * d)
    succ = np.kron(kraus.conj(), kraus)
    return TransferMatrix(succ), TransferMatrix(full - succ)


def sweep_transfer_mixture(instruments, num_qubits: int):
    """(T0_sweep, T1_sweep) for 2m uniformly sampled single-term micro-steps."""
    m = len(instruments)
    d = instruments[0].dimension
    _check_transfer_dim(d)
    eye = _eye_tensor(d, num_qubits)
    steps = [_MicroStep(inst, num_qubits) for inst in instruments]
    a = sum(s.success(eye) for s in steps).reshape(d * d, d * d) / m
    b = sum(s.channel(eye) for s in steps).reshape(d * d, d * d) / m
    succ = np.linalg.matrix_power(a, 2 * m)
    full = np.linalg.matrix_power(b, 2 * m)
    return TransferMatrix(succ), TransferMatrix(full - succ)


def sweep_transfer_global(inst: Instrument):
    """(T0, T1) of a single global instrument applied once per sweep."""
    t0 = transfer_of_instrument_success(inst)
    t1 = transfer_of_instrument_failure(inst)
    return t0, t1
