"""Two-outcome weak-measurement instruments, transfer matrices, fixed points.

A sweep's transfer matrix is written on the normalised Pauli strings
P/sqrt(D), restricted to a symmetry sector (``PauliSector``), where a
Hermiticity-preserving map is real; a global instrument that is a function
of H is a chain on the populations of H's eigenvectors (``Populations``).
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from functools import cache, cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    ConvergenceError,
    ParameterError,
    ResourceLimitError,
    SingularFixedPointError,
)
from .pauli import PauliHamiltonian, PauliString, PauliTerm, support_index_table

TRANSFER_LIMIT_QUBITS = 6


RESAMPLER_KINDS = ("global", "local", "identity")


@dataclass(frozen=True)
class Instrument:
    """Success/failure Kraus pair {E0, E1} on the ascending qubits
    ``support`` (every qubit when None) and the resampler kind applied
    after a failure.

    "global" resets the register to I/D, "local" resets the support's qubits
    (every qubit when there is no support, and none on an empty support), and
    "identity" keeps E1's post-measurement state.
    """

    e0: np.ndarray
    e1: np.ndarray
    resampler: str
    support: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.resampler not in RESAMPLER_KINDS:
            raise ParameterError(
                f"resampler must be one of {RESAMPLER_KINDS}, got {self.resampler!r}"
            )
        if self.support is not None and self.dimension != 1 << len(self.support):
            raise ParameterError(
                f"a Kraus pair of dimension {self.dimension} on {len(self.support)} qubits"
            )

    @property
    def dimension(self) -> int:
        return self.e0.shape[0]


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
    pair and the instrument on the support are built from it, and the dilation
    angles (``dilation_angles``) have cos(phi) and cos(theta) equal to its
    eigenvalues of E0.
    ``table``, ``perm``, ``phase`` and ``hphase`` act on the full register:
    the term's support index table, the phase-permutation
    h|psi> = (phase psi)[perm], and its phases on the state's tensor,
    h|psi> = hphase * psi[flips], where ``flips`` reverses the X and Y axes.  They
    hold 2^n entries each, so like the local matrices they are built on
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
    def _tensor_axes(self) -> tuple[tuple[int, ...], tuple[slice, ...]]:
        """The state as a tensor with one axis per run of adjacent qubits
        that the string flips (X, Y) or keeps (I, Z), and the index that
        reverses the flipped axes: reversing an axis of 2^k entries flips
        all k of its qubits, so psi[flips] is a view whose entry i is
        psi[perm[i]]."""
        rev, keep = slice(None, None, -1), slice(None)
        shape, flips = [], []
        for c in self.term.string.factors:
            f = rev if c in "XY" else keep
            if flips and flips[-1] is f:
                shape[-1] *= 2
            else:
                shape.append(2)
                flips.append(f)
        return tuple(shape), tuple(flips)

    @property
    def flips(self) -> tuple[slice, ...]:
        return self._tensor_axes[1]

    @cached_property
    def hphase(self) -> np.ndarray:
        """phase[perm] on the tensor of ``flips``, so h psi = hphase * psi[flips];
        float64 when the string is real (an even number of Y factors)."""
        ph = self.phase[self.perm]
        if self.term.string.is_real:
            ph = ph.real.copy()
        return ph.reshape(self._tensor_axes[0])

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

    def branch_row(self, eps: float) -> tuple[float, ...]:
        """(a0, b0, a1, b1, A0, B0, A1, B1) as real floats.

        h_v^2 = 1 and a_b, b_b are real, so E_b^dag E_b = A_b + B_b h_v with
        A_b = a_b^2 + b_b^2 and B_b = 2 a_b b_b: the Born weight of branch
        b on a state psi is A_b + B_b <psi|h_v psi> / <psi|psi>.
        """
        a0, b0, a1, b1 = (c.real for c in self.coefficients(eps))
        return (a0, b0, a1, b1, a0 * a0 + b0 * b0, 2.0 * a0 * b0, a1 * a1 + b1 * b1, 2.0 * a1 * b1)

    def kraus(self, eps: float) -> tuple[np.ndarray, np.ndarray]:
        """The local 2^k x 2^k pair (E0, E1) on the term's support."""
        a0, b0, a1, b1 = self.coefficients(eps)
        eye = np.eye(self.h_local.shape[0], dtype=np.complex128)
        return a0 * eye + b0 * self.h_local, a1 * eye + b1 * self.h_local

    def instrument(self, eps: float, resampler: str) -> Instrument:
        """The Kraus pair on the term's support with the given resampler kind."""
        return Instrument(*self.kraus(eps), resampler, self.support)


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
    """A CP map as a real S x S matrix in the basis ``sector``."""

    matrix: np.ndarray
    sector: PauliSector | Populations

    def apply(self, rho: np.ndarray) -> np.ndarray:
        return self.sector.unvec(self.matrix @ self.sector.vec(rho))


class Populations:
    """The populations p of the eigenvectors V of H, for the states
    V diag(p) V^dag; ``vec`` refuses a state with coherences between them."""

    def __init__(self, vectors: np.ndarray):
        self.vectors = vectors
        self.trace_row = np.ones(vectors.shape[1])

    def vec(self, rho: np.ndarray) -> np.ndarray:
        m = self.vectors.conj().T @ rho @ self.vectors
        p = np.diagonal(m).real.copy()
        np.fill_diagonal(m, 0.0)
        leak = np.abs(m).max()
        if leak > _LEAK_TOL:
            raise ParameterError(f"state has coherences between H's eigenvectors (weight {leak:.2e})")
        return p

    def unvec(self, p: np.ndarray) -> np.ndarray:
        return (self.vectors * p) @ self.vectors.conj().T


def population_chain(values: np.ndarray, vectors: np.ndarray, resampler: str):
    """(T0, T1) of the global instrument E0 = V diag(values) V^dag on the
    populations of V: with q = values^2, T0 = diag(q), and T1 = diag(1 - q)
    under "identity" or the reset to I/D under "global" and "local" (whose
    support is every qubit)."""
    q = np.asarray(values) ** 2
    t1 = np.diag(1.0 - q) if resampler == "identity" else np.outer(np.full(q.size, 1.0 / q.size), 1.0 - q)
    basis = Populations(vectors)
    return TransferMatrix(np.diag(q), basis), TransferMatrix(t1, basis)


def _check_transfer_dim(dim: int):
    if dim > 1 << TRANSFER_LIMIT_QUBITS:
        raise ResourceLimitError(
            f"dimension {dim} exceeds the {TRANSFER_LIMIT_QUBITS}-qubit transfer-matrix cap"
        )


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


def fixed_point_iterate(chain: TransferMatrix) -> np.ndarray:
    """Power-iterate a trace-preserving population chain from I/D to its
    fixed point, until successive populations are within 1e-10 in half
    their l1 distance, which is the trace distance of the two states."""
    d = chain.matrix.shape[0]
    p = np.full(d, 1.0 / d)
    for _ in range(200000):
        nxt = chain.matrix @ p
        resid = 0.5 * float(np.abs(nxt - p).sum())
        p = nxt
        if resid < 1e-10:
            return chain.sector.unvec(p / p.sum())
    raise ConvergenceError("fixed point not converged after 200000 iterations", residual=resid)


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    diff = (a - b + (a - b).conj().T) / 2.0
    return 0.5 * float(np.abs(np.linalg.eigvalsh(diff)).sum())


# ---------------------------------------------------------------------------
# The Pauli-transfer basis.  A map written on the normalised Pauli strings
# P/sqrt(D) is real when it preserves Hermiticity (Greenbaum,
# arXiv:1509.02921).  A string is indexed base 4, digits I, X, Y, Z = 0..3
# with qubit 0 most significant, so the coefficients of a stack of matrices
# form a (4,)*n + (N,) tensor with axis q for qubit q.
# ---------------------------------------------------------------------------

_SIGMA = np.array(
    [[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]],
    dtype=np.complex128,
)
# _PAIR[2a + b, i] = sigma_i[a, b] / sqrt(2): one qubit's matrix entries from
# its Pauli coefficients; unitary, so its adjoint gives the coefficients
_PAIR = _SIGMA.reshape(4, 4).T / np.sqrt(2.0)
_LEAK_TOL = 1e-12


def _pair_axes(k: int) -> list[int]:
    """Axis order taking a (2,)*2k matrix tensor to per-qubit (row, col) pairs."""
    return [ax for q in range(k) for ax in (q, k + q)]


def _on_axes(x: np.ndarray, m: np.ndarray, axes) -> np.ndarray:
    """Contract each listed axis of ``x`` with the first index of ``m``."""
    for ax in axes:
        x = np.moveaxis(np.tensordot(x, m, axes=([ax], [0])), -1, ax)
    return x


def pauli_coefficients(rho: np.ndarray) -> np.ndarray:
    """tr(P rho)/sqrt(D) for every Pauli string P, as a (4,)*n tensor; a
    (D, D, N) stack of matrices gives a (4,)*n + (N,) stack."""
    rho = np.asarray(rho)
    n = rho.shape[0].bit_length() - 1
    batch = rho.shape[2:]
    tail = list(range(2 * n, 2 * n + len(batch)))
    x = rho.reshape((2,) * (2 * n) + batch).transpose(_pair_axes(n) + tail)
    return _on_axes(x.reshape((4,) * n + batch), _PAIR.conj(), range(n))


def pauli_matrix(coeffs: np.ndarray, num_qubits: int) -> np.ndarray:
    """The matrix sum_P c_P P/sqrt(D) of a 4^n coefficient vector; the
    columns of a 4^n x N stack give a (D, D, N) stack."""
    n = num_qubits
    batch = np.shape(coeffs)[1:]
    tail = list(range(2 * n, 2 * n + len(batch)))
    x = _on_axes(np.reshape(coeffs, (4,) * n + batch), _PAIR.T, range(n))
    x = x.reshape((2,) * (2 * n) + batch).transpose(list(np.argsort(_pair_axes(n))) + tail)
    return x.reshape((1 << n, 1 << n) + batch)


def pauli_transfer(kraus) -> np.ndarray:
    """Real 4^k x 4^k Pauli-transfer matrix of rho -> sum_A A rho A^dag."""
    k = kraus[0].shape[0].bit_length() - 1
    flat = np.array([np.ravel(a) for a in kraus])
    # sum_A vec(A) vec(A)^dag in one product; pairing each bit of A's rows
    # (then columns) with conj(A)'s gives A (x) conj(A) per qubit
    x = (flat.T @ flat.conj()).reshape((2,) * (4 * k)).transpose(_pair_axes(2 * k))
    x = _on_axes(x.reshape((4,) * (2 * k)), _PAIR.conj(), range(k))
    return np.ascontiguousarray(_on_axes(x, _PAIR, range(k, 2 * k)).reshape(4**k, 4**k).real)


def _gf2_null_space(a: np.ndarray) -> np.ndarray:
    """Rows spanning {v : a v = 0 mod 2}, by Gauss-Jordan elimination."""
    a = np.array(a, dtype=np.uint8) % 2
    rows, cols = a.shape
    pivots = []
    for c in range(cols):
        r = len(pivots)
        hit = np.flatnonzero(a[r:, c]) if r < rows else ()
        if len(hit) == 0:
            continue
        a[[r, r + hit[0]]] = a[[r + hit[0], r]]
        others = np.flatnonzero(a[:, c])
        a[others[others != r]] ^= a[r]
        pivots.append(c)
    basis = []
    for f in (c for c in range(cols) if c not in pivots):
        v = np.zeros(cols, dtype=np.uint8)
        v[f] = 1
        v[pivots] = a[: len(pivots), f]
        basis.append(v)
    return np.array(basis, dtype=np.uint8).reshape(-1, cols)


def _check_leak(leak: float, what: str):
    if leak > _LEAK_TOL:
        raise ParameterError(f"{what} leaves the Pauli symmetry sector (weight {leak:.2e} outside it)")


class PauliSector:
    """The fixed space of the twirl rho -> |G|^-1 sum_g g rho g^dag over a
    group G of Pauli symmetries, in the Pauli-transfer basis.

    The space is spanned by the S = 4^n/|G| strings that commute with every
    g in G; ``strings`` lists their indices in ascending order, so the
    identity comes first.  When every instrument and resampler of a sweep
    commutes with G, so do its transfers, and overlaps and E(tau) from a
    state in the sector are exact on its S x S blocks (the weak symmetry of
    Buca & Prosen, New J. Phys. 14, 073007, 2012).  ``generators`` is a
    GF(2) basis of G as (x | z) bit rows, qubit q at column q and n + q; no
    generators is the trivial group, whose sector is every string.
    """

    def __init__(self, num_qubits: int, generators=()):
        n = num_qubits
        self.num_qubits = n
        self.generators = np.array(generators, dtype=np.uint8).reshape(-1, 2 * n)
        digits = (np.arange(4**n)[:, None] >> (2 * np.arange(n - 1, -1, -1))) & 3
        xz = np.concatenate([(digits == 1) | (digits == 2), (digits >= 2)], axis=1)
        # string s commutes with g when x_s . z_g + z_s . x_g is even
        swapped = np.roll(self.generators, n, axis=1)
        self.member = ~((xz.astype(np.int64) @ swapped.T.astype(np.int64)) & 1).any(axis=1)
        self.strings = np.flatnonzero(self.member)
        self.trace_row = np.zeros(self.strings.size)
        self.trace_row[0] = np.sqrt(float(1 << n))
        self._orders = {}

    @classmethod
    def of(cls, ham: PauliHamiltonian) -> "PauliSector":
        """The sector of every Pauli string commuting with each term of ``ham``."""
        n = ham.num_qubits
        rows = [
            [c in "ZY" for c in t.string.factors] + [c in "XY" for c in t.string.factors]
            for t in ham.terms
        ]
        # g commutes with term t when (z_t | x_t) . (x_g | z_g) is even
        return cls(n, _gf2_null_space(np.array(rows, dtype=np.uint8).reshape(-1, 2 * n)))

    @property
    def dimension(self) -> int:
        return int(self.strings.size)

    def vec(self, rho: np.ndarray) -> np.ndarray:
        """Real coefficients of a Hermitian rho on the sector's strings;
        a rho with weight outside the sector raises ParameterError."""
        c = pauli_coefficients(rho).reshape(-1)
        outside = c[~self.member]
        _check_leak(max(np.abs(c.imag).max(), np.abs(outside).max(initial=0.0)), "state")
        return c.real[self.strings]

    def unvec(self, v: np.ndarray) -> np.ndarray:
        full = np.zeros(4**self.num_qubits)
        full[self.strings] = v
        return pauli_matrix(full, self.num_qubits)

    def block_order(self, qubits: tuple[int, ...]) -> "BlockOrder":
        """The ``BlockOrder`` of a block on ``qubits``, built on first use
        and kept with the sector."""
        order = self._orders.get(qubits)
        if order is None:
            order = self._orders[qubits] = BlockOrder(self, qubits)
        return order


@cache
def trivial_sector(num_qubits: int) -> PauliSector:
    """The trivial group's sector, every string, as one instance per
    register size: the walks on it (the noisy sweep, its distance and the
    noise tomography) then build each ``BlockOrder`` once per process."""
    return PauliSector(num_qubits)


class BlockOrder:
    """The sector's rows ordered for a block on ``qubits`` (listed in the
    order of the block's tensor factors).

    A sector string is an inside string on ``qubits`` and an outside string
    on the rest.  Their commutation patterns with the generators cancel, so
    the outside string fixes the syndrome class of the inside one, and the
    rows with one outside string hold exactly one class of inside strings.
    A block that commutes with the twirl is block diagonal over these
    classes.  The rows are sorted by (class, outside qubits before the
    block's first, inside string, the other outside qubits), which makes
    the stack a (C, G, m, A*N) tensor: C classes of m inside strings, G
    leading and A trailing outside patterns each.  On the trivial sector
    and an ascending run of qubits this is the sector's own order, so that
    block needs no gather.  ``rows`` and ``pos`` map sorted rows to sector
    rows and back; both are None when the order is the sector's own.
    """

    def __init__(self, sector: PauliSector, qubits: tuple[int, ...]):
        n, k = sector.num_qubits, len(qubits)
        gens = sector.generators
        # syndrome of every inside string: bit j set when it anticommutes with
        # generator j restricted to the block's qubits
        digits = (np.arange(4**k)[:, None] >> (2 * np.arange(k - 1, -1, -1))) & 3
        x, z = (digits == 1) | (digits == 2), digits >= 2
        q = list(qubits)
        odd = (x.astype(np.int64) @ gens[:, [n + i for i in q]].T + z.astype(np.int64) @ gens[:, q].T) & 1
        self.syndrome = odd @ (1 << np.arange(gens.shape[0], dtype=np.int64))
        shifts = 2 * (n - 1 - np.arange(n))
        string_digits = (sector.strings[:, None] >> shifts) & 3
        inside = string_digits[:, q] @ (4 ** np.arange(k - 1, -1, -1, dtype=np.int64))
        first = min(qubits, default=0)
        outside = [i for i in range(n) if i not in qubits]
        lead = [i for i in outside if i < first]
        trail = [i for i in outside if i > first]
        lead_key = string_digits[:, lead] @ (1 << shifts[lead])
        trail_key = string_digits[:, trail] @ (1 << shifts[trail])
        cls = self.syndrome[inside]
        rows = np.lexsort((trail_key, inside, lead_key, cls))
        s = sector.dimension
        c = np.unique(cls).size
        g = np.unique(cls * 4**n + lead_key).size // c
        m = int(np.count_nonzero(self.syndrome == cls[0]))
        self.shape = (c, g, m, s // (c * g * m))
        self.members = inside[rows].reshape(self.shape)[:, 0, :, 0]
        if np.array_equal(rows, np.arange(s)):
            self.rows = self.pos = None
        else:
            self.rows, self.pos = rows, np.argsort(rows)

    def split(self, op: np.ndarray) -> np.ndarray:
        """The (C, 1, m, m) per-class sub-blocks of a block's operator,
        refusing one whose entries between classes exceed 1e-12: it would
        move weight out of the sector.  One class of every inside string
        (the trivial sector's) is the operator itself."""
        if self.members.shape[1] == op.shape[0]:
            return op[None, None]
        cross = self.syndrome[:, None] != self.syndrome[None, :]
        _check_leak(float(np.abs(op[cross]).max(initial=0.0)), "sweep channel")
        mem = self.members
        return op[mem[:, :, None], mem[:, None, :]][:, None]


# ---------------------------------------------------------------------------
# Per-sweep channel transfers: the exact density-matrix view of one sweep of
# the trajectory engine, used as the oracle for Monte Carlo runs.  Each
# micro-step acts on the qubits it touches, as a local Pauli-transfer block
# on an S x N stack of sector coefficient vectors (Wood, Biamonte & Cory,
# QIC 15 (2015)).  Consecutive blocks on the same qubits are fused into one,
# the gate-fusion step of state-vector simulators (Haner & Steiger, SC'17),
# and each block writes into one of two stacks allocated once per walk.
# ---------------------------------------------------------------------------


class Block(NamedTuple):
    """A real local Pauli-transfer block on ``qubits``.  A block that keeps
    the identity string gives the identity string of its output the
    input's coefficient back, which is not a map on ``qubits`` alone."""

    op: np.ndarray
    qubits: tuple[int, ...]
    keep_identity: bool = False


def _regather(held: BlockOrder | None, order: BlockOrder | None):
    """Rows of a stack held in ``held``'s order that give ``order``'s (None
    is the sector's own), or None when the two agree."""
    have = None if held is None else held.rows
    want = None if order is None else order.rows
    if held is order or have is None and want is None:
        return None
    if have is None:
        return want
    return held.pos if want is None else held.pos[want]


def apply_blocks(blocks, x: np.ndarray, sector: PauliSector) -> np.ndarray:
    """The blocks applied in order to an S x N stack of sector columns,
    whose rows follow ``sector.strings``.

    Each block is one gather into its ``BlockOrder`` (none when the stack
    already is in it) and one batched matmul of its per-class sub-blocks;
    one gather after the last block restores the sector's order.  Each
    writes into one of two stacks allocated here, so the input is never
    written.  A block with weight between classes raises ParameterError.
    """
    dtype = np.result_type(x, *(b.op for b in blocks))
    stacks = [np.empty(x.shape, dtype) for _ in range(2)]

    def spare(held):
        return stacks[1] if held is stacks[0] else stacks[0]

    cur, held, cols = x, None, x.shape[1]
    for b in blocks:
        order = sector.block_order(b.qubits)
        sub = order.split(b.op)
        idx = _regather(held, order)
        if idx is not None:
            cur = np.take(cur, idx, axis=0, out=spare(cur), mode="clip")
        c, g, m, a = order.shape
        out = spare(cur)
        np.matmul(sub, cur.reshape(c, g, m, a * cols), out=out.reshape(c, g, m, a * cols))
        if b.keep_identity:
            ident = 0 if order.pos is None else order.pos[0]
            out[ident] = cur[ident]
        cur, held = out, order
    idx = _regather(held, None)
    if idx is not None:
        cur = np.take(cur, idx, axis=0, out=spare(cur), mode="clip")
    return cur


class MicroStep:
    """One micro-measurement of a sweep as real Pauli-transfer blocks on
    ``qubits``: R0 for success and R1 for failure, followed by the
    resampler kind.  "local" then resets ``qubits``; "global" resets the
    register as a rank-one update and reads no R1, which may be None.
    Each branch gives the step's ``Block``.
    """

    def __init__(self, r0: np.ndarray, r1: np.ndarray | None, qubits: tuple[int, ...], resampler: str):
        self.qubits = qubits
        self.r0 = r0
        self.r_full = None
        if resampler != "global":
            if resampler == "local":
                # I_S/d_S (x) tr_S keeps only the identity string on S
                r1 = np.concatenate([r1[:1], np.zeros_like(r1[1:])])
            self.r_full = r0 + r1

    @classmethod
    def of(cls, inst: Instrument) -> "MicroStep":
        """The step of an instrument on its support, from the transfers of
        its Kraus pair."""
        r1 = None if inst.resampler == "global" else pauli_transfer([inst.e1])
        return cls(pauli_transfer([inst.e0]), r1, inst.support, inst.resampler)

    def success(self) -> Block:
        return Block(self.r0, self.qubits)

    def success_adjoint(self) -> Block:
        return Block(self.r0.T, self.qubits)

    def channel(self) -> Block:
        """Success plus failure branch.  Global resampling adds
        |1/D>>(<<1|X - <<1|Y) to the success branch Y, which in this basis
        gives the identity string the input's coefficient back."""
        if self.r_full is None:
            return Block(self.r0, self.qubits, keep_identity=True)
        return Block(self.r_full, self.qubits)


def sweep_plan(steps, branch) -> list[Block]:
    """The forward-then-reversed sweep of ``branch``, a ``MicroStep``
    method, over the m steps in sweep order, with each run of consecutive
    blocks on the same qubits fused into one block (the later block times
    the earlier).  A block that keeps the identity string ends a run.

    A Heisenberg chain's terms on one bond are adjacent, so its 2m steps
    fuse into one block per bond and direction, and the last bond's two
    meet at the middle of the palindrome: 7 blocks for 24 steps at n = 5.
    """
    m = len(steps)
    plan = []
    for v in [*range(m), *range(m - 1, -1, -1)]:
        b = branch(steps[v])
        if plan and plan[-1].qubits == b.qubits and not (plan[-1].keep_identity or b.keep_identity):
            plan[-1] = Block(b.op @ plan[-1].op, b.qubits)
        else:
            plan.append(b)
    return plan


def micro_steps(instruments) -> list[MicroStep]:
    """One ``MicroStep`` per instrument, with the Pauli transfers of each
    distinct local Kraus pair built once and shared: the terms of a
    Heisenberg chain's bonds have three pairs between them."""
    built, steps = {}, []
    for inst in instruments:
        key = (inst.resampler, inst.e0.shape, inst.e0.tobytes(), inst.e1.tobytes())
        if key not in built:
            built[key] = MicroStep.of(inst)
        step = copy.copy(built[key])
        step.qubits = inst.support
        steps.append(step)
    return steps


def sweep_walk(walks, x: np.ndarray, sector: PauliSector) -> list[np.ndarray]:
    """Forward-then-reversed sweeps of an S x N stack of sector columns,
    one per walk (steps, branch), each applied as its ``sweep_plan``.

    The order is a palindrome and the blocks are real, so the
    ``success_adjoint`` walk is the adjoint of the ``success`` walk.
    """
    return [apply_blocks(sweep_plan(steps, branch), x, sector) for steps, branch in walks]


def sweep_transfer_product(instruments, num_qubits: int, sector: PauliSector | None = None):
    """(T0_sweep, T1_sweep) for one forward-then-reversed sweep, as real
    S x S transfers on ``sector`` (None: the trivial group, S = 4^n).

    The success branch composes the 2m success blocks in sweep order; the
    failure branch is everything else: resampling fires right after the
    failing term and the sweep continues, so T1 = (full sweep channel) - T0.
    A sweep that leaves the sector raises ParameterError.
    """
    _check_transfer_dim(1 << num_qubits)
    sector = sector if sector is not None else trivial_sector(num_qubits)
    steps = micro_steps(instruments)
    walks = [(steps, MicroStep.channel), (steps, MicroStep.success)]
    full, t0 = sweep_walk(walks, np.eye(sector.dimension), sector)
    return TransferMatrix(t0, sector=sector), TransferMatrix(full - t0, sector=sector)


def sweep_transfer_mixture(instruments, num_qubits: int, sector: PauliSector | None = None):
    """(T0_sweep, T1_sweep) for 2m uniformly sampled single-term micro-steps,
    on ``sector`` as in ``sweep_transfer_product``."""
    m = len(instruments)
    _check_transfer_dim(1 << num_qubits)
    sector = sector if sector is not None else trivial_sector(num_qubits)
    eye = np.eye(sector.dimension)
    steps = micro_steps(instruments)
    a = sum(apply_blocks([s.success()], eye, sector) for s in steps) / m
    b = sum(apply_blocks([s.channel()], eye, sector) for s in steps) / m
    succ = np.linalg.matrix_power(a, 2 * m)
    full = np.linalg.matrix_power(b, 2 * m)
    return TransferMatrix(succ, sector=sector), TransferMatrix(full - succ, sector=sector)
