"""Pauli Hamiltonians, dense materialization, and the spectral oracle.

Conventions fixed here and relied on everywhere else:

* Qubit 0 is the most significant tensor factor, so basis index
  ``b = b_0 b_1 ... b_{n-1}`` in binary with qubit q at bit ``n-1-q``.
* A Pauli string acts as a phase-permutation: column ``b`` of its matrix has
  a single entry ``phase(b)`` at row ``b XOR flip``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InvalidInstanceError, ResourceLimitError

DEFAULT_DENSE_LIMIT = 12

_PAULI_CHARS = "IXYZ"


def dense_limit() -> int:
    """Qubit cap for dense materialization (env DQE_DENSE_LIMIT overrides)."""
    raw = os.environ.get("DQE_DENSE_LIMIT")
    if raw is None:
        return DEFAULT_DENSE_LIMIT
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"DQE_DENSE_LIMIT must be an integer, got {raw!r}") from exc


@dataclass(frozen=True)
class PauliString:
    """Tensor product of single-qubit Paulis, e.g. factors='XIZY'."""

    factors: str

    def __post_init__(self):
        if not self.factors or any(c not in _PAULI_CHARS for c in self.factors):
            raise InvalidInstanceError(f"invalid Pauli factors {self.factors!r}")

    @property
    def num_qubits(self) -> int:
        return len(self.factors)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(q for q, c in enumerate(self.factors) if c != "I")

    @property
    def is_real(self) -> bool:
        """True when the matrix is real: an even number of Y factors."""
        return self.factors.count("Y") % 2 == 0

    def masks(self) -> tuple[int, int, int]:
        """(flip mask, phase mask, Y count) for the phase-permutation action.

        Bit n-1-q carries qubit q.  ``flip`` has X and Y positions set;
        ``phase`` has Z and Y positions set; the total phase of input b is
        ``i**ny * (-1)**popcount(b & phase_mask)``.
        """
        n = self.num_qubits
        flip = 0
        phase = 0
        ny = 0
        for q, c in enumerate(self.factors):
            bit = 1 << (n - 1 - q)
            if c in ("X", "Y"):
                flip |= bit
            if c in ("Z", "Y"):
                phase |= bit
            if c == "Y":
                ny += 1
        return flip, phase, ny

    def perm_and_phase(self) -> tuple[np.ndarray, np.ndarray]:
        """Permutation and phase arrays so that h|psi> = (phase*psi)[perm]."""
        n = self.num_qubits
        flip, pmask, ny = self.masks()
        idx = np.arange(1 << n, dtype=np.int64)
        parity = np.bitwise_count(idx & pmask) & 1
        phase = np.where(parity, -1.0 + 0.0j, 1.0 + 0.0j) * (1j) ** (ny % 4)
        return idx ^ flip, phase.astype(np.complex128)

    def to_matrix(self) -> np.ndarray:
        d = 1 << self.num_qubits
        perm, phase = self.perm_and_phase()
        idx = np.arange(d, dtype=np.int64)
        mat = np.zeros((d, d), dtype=np.complex128)
        mat[perm, idx] = phase
        return mat


@dataclass(frozen=True)
class PauliTerm:
    """One weighted Pauli string alpha_v * h_v."""

    coefficient: float
    string: PauliString

    def __post_init__(self):
        c = self.coefficient
        if not np.isfinite(c) or c == 0.0:
            raise InvalidInstanceError(f"term coefficient must be finite and non-zero, got {c}")

    @property
    def sign(self) -> float:
        return 1.0 if self.coefficient > 0 else -1.0


@dataclass(frozen=True)
class PauliHamiltonian:
    """Weighted sum of Pauli strings on a fixed qubit register."""

    num_qubits: int
    terms: tuple[PauliTerm, ...]
    kappa: float = field(init=False)

    def __post_init__(self):
        if self.num_qubits < 1:
            raise InvalidInstanceError("num_qubits must be >= 1")
        for t in self.terms:
            if t.string.num_qubits != self.num_qubits:
                raise InvalidInstanceError(
                    f"term {t.string.factors!r} does not act on {self.num_qubits} qubits"
                )
        object.__setattr__(self, "terms", tuple(self.terms))
        object.__setattr__(self, "kappa", float(sum(abs(t.coefficient) for t in self.terms)))

    @property
    def num_terms(self) -> int:
        return len(self.terms)

    @property
    def dimension(self) -> int:
        return 1 << self.num_qubits


@dataclass(frozen=True)
class SpectralData:
    """Exact-diagonalization summary consumed by every other module."""

    lambda0: float
    lambda1: float
    gap: float
    norm: float
    ground_projector: np.ndarray
    degeneracy: int
    dimension: int
    eigenvalues: np.ndarray | None = None
    eigenvectors: np.ndarray | None = None


def build_heisenberg_chain(n: int, periodic: bool = False) -> PauliHamiltonian:
    """Nearest-neighbour XX+YY+ZZ chain with unit couplings."""
    if n < 2:
        raise InvalidInstanceError(f"Heisenberg chain needs n >= 2, got {n}")
    bonds = [(i, i + 1) for i in range(n - 1)]
    if periodic:
        bonds.append((n - 1, 0))
    terms = []
    for i, j in bonds:
        for p in "XYZ":
            factors = ["I"] * n
            factors[i] = p
            factors[j] = p
            terms.append(PauliTerm(1.0, PauliString("".join(factors))))
    return PauliHamiltonian(n, tuple(terms))


def build_maxsat(num_vars: int, clauses) -> PauliHamiltonian:
    """Sum of projectors onto each clause's forbidden assignment.

    ``clauses`` is a sequence of (variable indices, forbidden bitstring)
    pairs.  The projector (1 +/- Z)/2 expansion yields Z/I strings whose
    diagonal counts violated clauses per basis state.
    """
    if num_vars < 1:
        raise InvalidInstanceError("num_vars must be >= 1")
    accum: dict[str, float] = {}
    for ci, (subset, bits) in enumerate(clauses):
        subset = tuple(int(v) for v in subset)
        if len(bits) != len(subset):
            raise InvalidInstanceError(
                f"clause {ci}: bitstring {bits!r} does not match {len(subset)} variables"
            )
        if len(set(subset)) != len(subset):
            raise InvalidInstanceError(f"clause {ci}: repeated variable in {subset}")
        for v in subset:
            if not 0 <= v < num_vars:
                raise InvalidInstanceError(f"clause {ci}: variable {v} out of range")
        k = len(subset)
        signs = [1.0 if b == "0" else -1.0 for b in bits]
        for mask in range(1 << k):
            factors = ["I"] * num_vars
            coeff = 1.0 / (1 << k)
            for j in range(k):
                if mask >> j & 1:
                    factors[subset[j]] = "Z"
                    coeff *= signs[j]
            key = "".join(factors)
            accum[key] = accum.get(key, 0.0) + coeff
    terms = tuple(
        PauliTerm(c, PauliString(s)) for s, c in sorted(accum.items()) if abs(c) > 1e-15
    )
    return PauliHamiltonian(num_vars, terms)


def to_dense(ham: PauliHamiltonian) -> np.ndarray:
    """Dense Hermitian matrix of the Hamiltonian (column-indexed assembly)."""
    if ham.num_qubits > dense_limit():
        raise ResourceLimitError(
            f"{ham.num_qubits} qubits exceeds dense limit {dense_limit()} "
            "(set DQE_DENSE_LIMIT to override)"
        )
    d = ham.dimension
    mat = np.zeros((d, d), dtype=np.complex128)
    idx = np.arange(d, dtype=np.int64)
    for t in ham.terms:
        perm, phase = t.string.perm_and_phase()
        # column b has its single entry at row b ^ flip = perm[b]
        mat[perm, idx] += t.coefficient * phase
    return mat


# The component search costs 0.26 ms at D = 32 and 0.40 ms at D = 128.  Below
# this dimension one eigh of the whole matrix is cheaper than the search and
# the block solves (Heisenberg chains on a 2-core x86 box: 0.39 ms whole
# against 0.73 ms by blocks at D = 64, 1.68 against 1.47 ms at D = 128, 6.6
# against 3.4 ms at D = 256).
_BLOCK_MIN_DIM = 128


def block_labels(mat: np.ndarray) -> np.ndarray:
    """Block of each basis index: the connected components of the exact
    nonzero pattern of a Hermitian matrix, so entries between blocks are 0."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    return connected_components(csr_matrix(mat != 0), directed=False)[1]


def eigh_blocks(mat: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian eigendecomposition solved one block at a time.

    ``labels[i]`` is the block of basis index i, and ``mat`` must vanish
    exactly between blocks.  The solve is real when ``mat.imag`` is zero;
    blocks of equal size share one stacked eigh and size-1 blocks need none.
    Returns the eigenvalues in ascending order (ties kept in block order by
    a stable sort, so a level spanning blocks stays whole) and the
    eigenvectors as columns, float64 when ``mat`` is real.
    """
    if not mat.imag.any():
        mat = mat.real
    sizes = np.bincount(labels)
    if sizes.size == 1:
        return np.linalg.eigh(mat)
    d = mat.shape[0]
    order = np.argsort(labels, kind="stable")
    starts = np.cumsum(sizes) - sizes
    evals = np.empty(d)
    solved = []
    for s in np.unique(sizes):
        blocks = np.flatnonzero(sizes == s)
        cols = starts[blocks, None] + np.arange(s)  # each block's eigenpair slots
        rows = order[cols]  # and its basis indices
        sub = mat[rows[:, :, None], rows[:, None, :]]
        if s == 1:
            w, v = sub[:, 0].real, np.ones_like(sub)
        else:
            w, v = np.linalg.eigh(sub)
        evals[cols] = w
        solved.append((rows, cols, v))
    rank = np.argsort(evals, kind="stable")
    slot = np.empty(d, dtype=np.int64)
    slot[rank] = np.arange(d)
    evecs = np.zeros((d, d), dtype=mat.dtype)
    for rows, cols, v in solved:
        evecs[rows[:, :, None], slot[cols][:, None, :]] = v
    return evals[rank], evecs


def diagonalize(
    ham: PauliHamiltonian, degeneracy_rtol: float = 1e-9, *, h_dense: np.ndarray | None = None
) -> SpectralData:
    """Full Hermitian eigendecomposition with a degeneracy threshold.

    H is solved one exact block at a time (``eigh_blocks``); below
    ``_BLOCK_MIN_DIM`` it is one block.  lambda1 is the smallest eigenvalue
    strictly above lambda0 plus the tolerance; for a fully degenerate
    spectrum (H proportional to 1) there is no second distinct eigenvalue
    and lambda1 = lambda0 with gap 0.  ``h_dense`` is ``to_dense(ham)`` when
    the caller already holds it.
    """
    mat = to_dense(ham) if h_dense is None else h_dense
    d = mat.shape[0]
    labels = block_labels(mat) if d >= _BLOCK_MIN_DIM else np.zeros(d, dtype=np.int64)
    evals, evecs = eigh_blocks(mat, labels)
    norm = float(np.max(np.abs(evals))) if evals.size else 0.0
    tol = degeneracy_rtol * max(1.0, norm)
    lam0 = float(evals[0])
    mask = evals <= lam0 + tol
    ndeg = int(np.count_nonzero(mask))
    vg = evecs[:, :ndeg]
    proj = vg @ vg.conj().T
    if ndeg < evals.size:
        lam1 = float(evals[ndeg])
    else:
        lam1 = lam0
    return SpectralData(
        lambda0=lam0,
        lambda1=lam1,
        gap=lam1 - lam0,
        norm=norm,
        ground_projector=proj,
        degeneracy=ndeg,
        dimension=ham.dimension,
        eigenvalues=evals,
        eigenvectors=evecs,
    )


# ---------------------------------------------------------------------------
# JSON interchange:  {"num_qubits": n, "terms": [{"coeff": f, "paulis": s}]}
# ---------------------------------------------------------------------------


def hamiltonian_to_json(ham: PauliHamiltonian) -> str:
    payload = {
        "num_qubits": ham.num_qubits,
        "terms": [{"coeff": t.coefficient, "paulis": t.string.factors} for t in ham.terms],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def hamiltonian_from_json(text: str) -> PauliHamiltonian:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from exc
    if not isinstance(payload, dict) or "num_qubits" not in payload:
        raise ConfigError("missing field 'num_qubits'")
    if "terms" not in payload or not isinstance(payload["terms"], list):
        raise ConfigError("missing or malformed field 'terms'")
    try:
        n = int(payload["num_qubits"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"field 'num_qubits' must be an integer: {payload['num_qubits']!r}") from exc
    terms = []
    for i, entry in enumerate(payload["terms"]):
        if not isinstance(entry, dict) or "coeff" not in entry or "paulis" not in entry:
            raise ConfigError(f"terms[{i}] needs fields 'coeff' and 'paulis'")
        try:
            coeff = float(entry["coeff"])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"terms[{i}].coeff is not a number: {entry['coeff']!r}") from exc
        try:
            terms.append(PauliTerm(coeff, PauliString(str(entry["paulis"]))))
        except InvalidInstanceError as exc:
            raise ConfigError(f"terms[{i}].paulis: {exc}") from exc
    try:
        return PauliHamiltonian(n, tuple(terms))
    except InvalidInstanceError as exc:
        raise ConfigError(str(exc)) from exc


def load_hamiltonian(path: str) -> PauliHamiltonian:
    with open(path, "r", encoding="utf-8") as fh:
        return hamiltonian_from_json(fh.read())


def support_index_table(num_qubits: int, support) -> np.ndarray:
    """Group basis indices by the assignment of the support qubits.

    Returns an int64 array of shape (D / 2^k, 2^k): row r lists, for each of
    the 2^k support assignments (qubit-ordered, MSB first), the global index
    whose remaining qubits carry the r-th rest pattern.  Every global index
    appears exactly once.
    """
    support = tuple(sorted(support))
    n = num_qubits
    k = len(support)
    d = 1 << n
    idx = np.arange(d, dtype=np.int64)
    a = np.zeros(d, dtype=np.int64)
    for pos, q in enumerate(support):
        a |= ((idx >> (n - 1 - q)) & 1) << (k - 1 - pos)
    rest = [q for q in range(n) if q not in support]
    r = np.zeros(d, dtype=np.int64)
    for pos, q in enumerate(rest):
        r |= ((idx >> (n - 1 - q)) & 1) << (len(rest) - 1 - pos)
    table = np.zeros((1 << len(rest), 1 << k), dtype=np.int64)
    table[r, a] = idx
    return table
