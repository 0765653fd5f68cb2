"""Independent reference computations the tests check the package against.

These deliberately avoid the code paths they validate: the Markov chain
oracle solves a linear system over run-length states, the rank oracle
enumerates permutations, and the violation counter walks raw bitstrings.
The dense constructions that ``dqe`` builds in closed form (an instrument's
E1 by eigendecomposition, the product AGSP as a matrix, the dilation
unitary, the measurement circuit's unitary and its QASM round trip) live
here too, as second paths the tests compare the program against.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from dqe.errors import ConfigError, DqeError, InvalidNoiseError, ParameterError


def axpb_pauli(psi, out, perm, phase, a, b):
    """out = a*psi + b*h(psi) out of place, with h(psi)[i] = phase[perm[i]] *
    psi[perm[i]] read through the index gather; returns ||out||^2."""
    np.multiply(phase, psi, out=out)
    out[:] = out[perm]
    out *= b
    out += a * psi
    return float(np.vdot(out, out).real)


def markov_expected_absorption(success_probs):
    """Expected steps for the run-length chain to first reach run n.

    State k < n holds the current run length; a step succeeds with
    success_probs[k] (advancing to k+1) or resets to 0.  Solves
    t_k = 1 + p_k t_{k+1} + (1 - p_k) t_0 with t_n = 0 exactly.
    """
    n = len(success_probs)
    a = np.zeros((n, n))
    b = np.ones(n)
    for k in range(n):
        a[k, k] += 1.0
        a[k, 0] -= 1.0 - success_probs[k]
        if k + 1 < n:
            a[k, k + 1] -= success_probs[k]
    t = np.linalg.solve(a, b)
    return float(t[0])


def global_run_success_probs(k_op, n):
    """P(0 | current run k) = tr(K^{2(k+1)}) / tr(K^{2k}) for k = 0..n-1."""
    k2 = k_op @ k_op.conj().T
    probs = []
    power = np.eye(k_op.shape[0], dtype=complex)
    for _ in range(n):
        num = np.trace(power @ k2).real
        den = np.trace(power).real
        probs.append(num / den)
        power = power @ k2
    return probs


def count_violations(clauses, assignment_bits):
    """Number of clauses whose forbidden pattern matches the assignment."""
    count = 0
    for subset, bits in clauses:
        if all(assignment_bits[v] == b for v, b in zip(subset, bits)):
            count += 1
    return count


def chow_expected_rank_enumerated(n, thresholds):
    """Mean absolute rank of the threshold policy over all n! orders."""
    total = 0
    for perm in itertools.permutations(range(1, n + 1)):
        for i in range(1, n + 1):
            y = 1 + sum(1 for j in range(i - 1) if perm[j] < perm[i - 1])
            if i == n or y <= thresholds.s[i]:
                total += perm[i - 1]
                break
    return total / math.factorial(n)


def brute_force_chromatic(adjacency):
    """Smallest number of colors for a small conflict graph (exhaustive)."""
    n = len(adjacency)
    for k in range(1, n + 1):
        for coloring in itertools.product(range(k), repeat=n):
            ok = True
            for u in range(n):
                for v in adjacency[u]:
                    if coloring[u] == coloring[v]:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                return k
    return n


def geometric_run_stream(rng, p_zero, num_runs):
    """iid run lengths with P(length = k) = (1-p) p^k (zero lengths allowed)."""
    return (rng.geometric(1.0 - p_zero, size=num_runs) - 1).astype(np.int64)


def longest_zero_run(bits):
    """Length of the longest run of 0s in a 0/1 array."""
    longest = 0
    current = 0
    for b in bits:
        if b == 0:
            current += 1
            if current > longest:
                longest = current
        else:
            current = 0
    return longest


# ---------------------------------------------------------------------------
# The column-stacking convention, the dense reference for the Pauli-transfer
# sector transfers of ``dqe.instrument``: |rho>> stacks columns, so the map
# rho -> A rho B^dag has transfer matrix conj(B) (x) A, and the trace
# functional is the row vector <<1| = vec(identity)^dag.
# ---------------------------------------------------------------------------


def vec(rho):
    """Column-stacked vectorization of a matrix."""
    return np.asarray(rho).reshape(-1, order="F").astype(np.complex128, copy=False)


def unvec(v):
    d = int(round(np.sqrt(v.size)))
    return np.asarray(v).reshape((d, d), order="F")


def trace_row(dim):
    """<<1| as a 1-D array: <<1|rho>> = tr(rho)."""
    return vec(np.eye(dim)).conj()


class ColumnStacking:
    """The column-stacking basis with the members ``dqe.analytics`` reads off
    a transfer's sector: ``vec``, ``unvec`` and the trace row."""

    vec = staticmethod(vec)
    unvec = staticmethod(unvec)

    def __init__(self, dim):
        self.trace_row = trace_row(dim)


@dataclass(frozen=True)
class DenseTransfer:
    """A D^2 x D^2 column-stacked transfer matrix, which the analytics walk
    takes like a sector ``TransferMatrix``."""

    matrix: np.ndarray
    trace_preserving: bool = False

    @property
    def sector(self):
        return ColumnStacking(int(round(np.sqrt(self.matrix.shape[0]))))

    def apply(self, rho):
        return unvec(self.matrix @ vec(rho))


def transfer_of_kraus(ops):
    """E = sum_i conj(A_i) (x) A_i."""
    ops = list(ops)
    d = ops[0].shape[0]
    mat = sum(np.kron(a.conj(), a) for a in ops).astype(np.complex128)
    row = trace_row(d)
    return DenseTransfer(mat, trace_preserving=bool(np.abs(row @ mat - row).max() < 1e-9))


def embed(op, support, num_qubits):
    """A local operator on ``support``, padded with the identity elsewhere;
    with no support, ``op`` already acts on every qubit."""
    from dqe import pauli

    if support is None:
        return np.asarray(op, dtype=np.complex128)
    d = 1 << num_qubits
    table = pauli.support_index_table(num_qubits, support)
    full = np.zeros((d, d), dtype=np.complex128)
    full[table[:, :, None], table[:, None, :]] = op
    return full


def _register_size(inst, num_qubits):
    return inst.dimension.bit_length() - 1 if num_qubits is None else num_qubits


def mixture_kraus(ham, eps):
    """Kraus set E_i = ((1-eps)1 + eps*kappa_i*k_i)/sqrt(m) of the mixture map,
    each padded to the full register."""
    from dqe import instrument as im

    factors = im.term_instruments(ham, "sum")
    m = len(factors)
    return [embed(f.kraus(eps)[0], f.support, ham.num_qubits) / np.sqrt(m) for f in factors]


def _local_reset_transfer(qubits, num_qubits):
    """rho -> I_S/d_S (x) tr_S rho, as a Kraus set of matrix units on S."""
    from dqe import pauli

    d = 1 << num_qubits
    table = pauli.support_index_table(num_qubits, qubits)
    ds = table.shape[1]
    ops = []
    for a in range(ds):
        for b in range(ds):
            k = np.zeros((d, d), dtype=np.complex128)
            k[table[:, b], table[:, a]] = 1.0 / np.sqrt(ds)
            ops.append(k)
    return transfer_of_kraus(ops)


def transfer_of_instrument_success(inst, num_qubits=None):
    n = _register_size(inst, num_qubits)
    return transfer_of_kraus([embed(inst.e0, inst.support, n)])


def transfer_of_instrument_failure(inst, num_qubits=None):
    """Failure branch rho -> R(E1 rho E1^dag), with E1 padded to the register.

    A global reset, and a local one of an instrument with no support, equal
    |1/D>><<1| (1 - E0-transfer) identically, which is the form used; a
    local reset acts on the support alone.
    """
    n = _register_size(inst, num_qubits)
    d = 1 << n
    if inst.resampler == "global" or (inst.resampler == "local" and inst.support is None):
        t0 = transfer_of_instrument_success(inst, n).matrix
        return DenseTransfer(np.outer(vec(np.eye(d) / d), trace_row(d).conj()) @ (np.eye(d * d) - t0))
    e1 = embed(inst.e1, inst.support, n)
    t1 = np.kron(e1.conj(), e1)
    if inst.resampler == "local":
        t1 = _local_reset_transfer(inst.support, n).matrix @ t1
    return DenseTransfer(t1)


def apply_on_axes(op, axes, xt):
    """A local operator on the listed axes of a stack tensor, by tensordot
    and moveaxis: the reference for ``instrument.apply_blocks``."""
    k = len(axes)
    local = tuple(xt.shape[a] for a in axes)
    out = np.tensordot(op.reshape(local * 2), xt, axes=(range(k, 2 * k), axes))
    return np.moveaxis(out, range(k), axes)


def full_row_walk(blocks, sector):
    """The blocks applied in order to the sector's columns held on all 4^n
    rows of a (4,)*n + (S,) stack, one ``apply_on_axes`` each, and the
    sector's S rows read back: the reference for the walk on the sector's
    rows.  Weight above 1e-12 on a row outside the sector raises
    ValueError."""
    n, s = sector.num_qubits, sector.dimension
    x = np.zeros((4**n, s))
    x[sector.strings, np.arange(s)] = 1.0
    xt = x.reshape((4,) * n + (s,))
    ident = (0,) * n
    for b in blocks:
        out = apply_on_axes(b.op, b.qubits, xt)
        if b.keep_identity:
            out[ident] = xt[ident]
        xt = out
    x = xt.reshape(4**n, s)
    leak = np.abs(x[~sector.member]).max(initial=0.0)
    if leak > 1e-12:
        raise ValueError(f"weight {leak:.2e} outside the sector")
    return x[sector.strings]


def full_row_sweep_transfers(instruments, sector, mixture=False):
    """(T0, T1) of a product (or mixture) sweep on ``sector`` from
    ``full_row_walk``, with a step per instrument and no shared transfers."""
    from dqe import instrument as im

    steps = [im.MicroStep.of(inst) for inst in instruments]
    if mixture:
        m = len(steps)
        a = sum(full_row_walk([s.success()], sector) for s in steps) / m
        b = sum(full_row_walk([s.channel()], sector) for s in steps) / m
        t0, full = np.linalg.matrix_power(a, 2 * m), np.linalg.matrix_power(b, 2 * m)
    else:
        t0 = full_row_walk(im.sweep_plan(steps, im.MicroStep.success), sector)
        full = full_row_walk(im.sweep_plan(steps, im.MicroStep.channel), sector)
    return t0, full - t0


def apply_local_tensor(t_loc, support, num_qubits, xt):
    """A k-local column-stacked transfer applied to a D^2 x N stack held as
    its (2,)*2n + (N,) tensor; equals (t_loc padded with the identity) @ x."""
    return apply_on_axes(t_loc, list(support) + [num_qubits + q for q in support], xt)


def pauli_basis(num_qubits):
    """The unitary whose column s is vec(P_s)/sqrt(D), for every Pauli
    string P_s in ``dqe.instrument``'s base-4 order, each built by
    ``PauliString.to_matrix``."""
    from dqe import pauli

    n = num_qubits
    cols = []
    for idx in range(4**n):
        factors = "".join("IXYZ"[(idx >> 2 * (n - 1 - q)) & 3] for q in range(n))
        cols.append(pauli.PauliString(factors).to_matrix().reshape(-1, order="F"))
    return np.array(cols).T / np.sqrt(1 << n)


def in_pauli_basis(mat):
    """A column-stacked transfer on k qubits as its real 4^k x 4^k
    Pauli-transfer matrix B^dag T B."""
    b = pauli_basis(int(round(np.log2(mat.shape[0]))) // 2)
    r = b.conj().T @ mat @ b
    assert np.abs(r.imag).max() <= 1e-12, "the map does not preserve Hermiticity"
    return r.real


def column_stacked(t):
    """A sector transfer R written back in column stacking: B R B^dag, with
    B the sector's columns of ``pauli_basis``; on the trivial sector B is
    unitary and this is the whole map.  A ``DenseTransfer`` is already
    column-stacked."""
    if isinstance(t, DenseTransfer):
        return t.matrix
    b = pauli_basis(t.sector.num_qubits)[:, t.sector.strings]
    return b @ t.matrix @ b.conj().T


def global_pair(inst):
    """(T0, T1) of a global instrument as its dense column-stacked pair."""
    return transfer_of_instrument_success(inst), transfer_of_instrument_failure(inst)


def global_channel(e0):
    """rho -> E0 rho E0^dag + (tr rho - tr E0 rho E0^dag) 1/D, the whole
    channel of a global instrument at eps = 1, as a dense column-stacked
    transfer."""
    d = e0.shape[0]
    t0 = transfer_of_kraus([e0]).matrix
    reset = np.outer(vec(np.eye(d) / d), trace_row(d).conj())
    return DenseTransfer(t0 + reset @ (np.eye(d * d) - t0))


def fixed_point_iterate(transfer, tol=1e-10, max_iters=200000, rho0=None):
    """Power-iterate a trace-preserving column-stacked transfer from rho0
    (default I/D) until successive states are within trace distance
    ``tol``, each distance from the eigenvalues of their difference."""
    basis = transfer.sector
    d = int(round(np.sqrt(transfer.matrix.shape[0])))
    v = basis.vec(np.eye(d) / d if rho0 is None else rho0)
    for _ in range(max_iters):
        nv = transfer.matrix @ v
        resid = 0.5 * float(np.abs(np.linalg.eigvalsh(basis.unvec(nv - v))).sum())
        v = nv
        if resid < tol:
            rho = basis.unvec(v)
            rho = (rho + rho.conj().T) / 2.0
            return rho / np.trace(rho).real
    raise AssertionError(f"fixed point not converged after {max_iters} iterations")


def dense_sweep_transfer_product(instruments, num_qubits):
    """(T0, T1) of a forward-then-reversed sweep by dense D^2 x D^2 algebra.

    Every micro-instrument becomes a full kron transfer pair and the sweep
    is composed by matmuls, the O(D^6)-per-step form that the local
    Pauli-transfer path in ``dqe.instrument`` replaces.
    """
    micro = [
        (
            transfer_of_instrument_success(inst, num_qubits).matrix,
            transfer_of_instrument_failure(inst, num_qubits).matrix,
        )
        for inst in instruments
    ]
    d2 = micro[0][0].shape[0]
    full = np.eye(d2, dtype=np.complex128)
    succ = np.eye(d2, dtype=np.complex128)
    for v in list(range(len(micro))) + list(reversed(range(len(micro)))):
        t0, t1 = micro[v]
        full = (t0 + t1) @ full
        succ = t0 @ succ
    return succ, full - succ


def dense_sweep_transfer_mixture(instruments, num_qubits):
    """(T0, T1) of 2m uniformly sampled micro-steps by dense D^2 x D^2 algebra:
    the averaged micro-transfers raised to the 2m-th power."""
    m = len(instruments)
    micro = [
        (
            transfer_of_instrument_success(inst, num_qubits).matrix,
            transfer_of_instrument_failure(inst, num_qubits).matrix,
        )
        for inst in instruments
    ]
    a = sum(t0 for t0, _ in micro) / m
    b = sum(t0 + t1 for t0, t1 in micro) / m
    succ = np.linalg.matrix_power(a, 2 * m)
    return succ, np.linalg.matrix_power(b, 2 * m) - succ


def dense_stopped_general(t0, t1, rho0, n):
    """(state / tr, E(tau)) at run length n from explicit powers of T0 and
    dense solves of W = 1 - T1 sum_{j<n} T0^j, with no geometric-sum
    doubling, walk or LU reuse."""
    d = rho0.shape[0]
    powers = [np.eye(d * d, dtype=np.complex128)]
    for _ in range(n):
        powers.append(powers[-1] @ t0)
    g = sum(powers[:n])
    h = sum((j + 1) * powers[j] for j in range(n))
    w = np.eye(d * d) - t1 @ g
    x = np.linalg.solve(w, rho0.reshape(-1, order="F"))
    rho = (powers[n] @ x).reshape((d, d), order="F")
    rho = (rho + rho.conj().T) / 2.0
    y = np.linalg.solve(w, t1 @ (h @ x))
    tau = n + np.trace((powers[n] @ y).reshape((d, d), order="F")).real
    return rho / np.trace(rho).real, float(tau)


def kraus_from_choi(choi, d, tol=1e-12):
    """A Kraus set of the map with Choi matrix sum_ij E_ij (x) Phi(E_ij): the
    eigenvectors of its eigenvalues above tol * max(1, largest), scaled by
    their roots."""
    choi = (choi + choi.conj().T) / 2.0
    w, v = np.linalg.eigh(choi)
    cut = tol * max(w.max(), 1.0)
    return [np.sqrt(lam) * col.reshape((d, d), order="F") for lam, col in zip(w, v.T) if lam > cut]


def choi_from_transfer(r, k):
    """The Choi matrix of the map whose Pauli-transfer matrix on k qubits is
    r: sum_{s,t} r[t, s] P_s^T (x) P_t, the partial transpose of a Pauli
    expansion (Wood, Biamonte & Cory, QIC 15, 2015)."""
    from dqe import instrument as im

    d = 1 << k
    # pauli_matrix(c, 2k) = sum_{s,t} c[s, t] P_s (x) P_t, with rows (i, a)
    # and columns (j, b); transposing the input factor swaps i and j
    choi = im.pauli_matrix(r.T.reshape(-1), 2 * k).reshape(d, d, d, d)
    return choi.transpose(2, 1, 0, 3).reshape(d * d, d * d)


def noisy_kraus(ni, tol=0.0):
    """(kraus0, kraus1) of a tomographed noisy instrument, each heaviest
    first, from the Choi matrices of its branch transfers."""
    k = len(ni.support)
    return tuple(
        sorted(kraus_from_choi(choi_from_transfer(r, k), 1 << k, tol), key=lambda a: -np.linalg.norm(a))
        for r in (ni.success_transfer, ni.failure_transfer)
    )


def dense_noisy_sweep_success_transfer(engine):
    """Noisy all-zeros sweep transfer with a Kraus set of every term's
    success branch embedded in the full space and composed by dense
    matmuls."""
    d = engine.dim
    micro = []
    for ni, term in zip(engine.noisy_instruments, engine.terms):
        table = term.table
        t0 = np.zeros((d * d, d * d), dtype=np.complex128)
        for a in noisy_kraus(ni)[0]:
            full = np.zeros((d, d), dtype=np.complex128)
            for r in range(table.shape[0]):
                full[np.ix_(table[r], table[r])] = a
            t0 += np.kron(full.conj(), full)
        micro.append(t0)
    out = np.eye(d * d, dtype=np.complex128)
    for v in list(range(len(micro))) + list(range(len(micro) - 1, -1, -1)):
        out = micro[v] @ out
    return out


# ---------------------------------------------------------------------------
# Gate noise on dense density matrices: the reference for the Pauli-transfer
# tomography of ``dqe.noise``
# ---------------------------------------------------------------------------

_PAULI_AXES = ("X", "Y", "Z")


def gate_noise_targets(gate, num_qubits):
    from dqe import circuits

    if isinstance(gate, circuits.BasisRotation):
        return (gate.qubit,)
    if isinstance(gate, circuits.AncillaRotation):
        return (num_qubits - 1,)
    if isinstance(gate, circuits.ControlledNot):
        return (gate.control, gate.target)
    return ()


def pauli_conj_data(num_qubits, qubits):
    """(perm, phase-left) pairs realizing sigma rho sigma^dag for the 3 or 15
    non-identity Pauli words on the given qubits."""
    from dqe import pauli

    words = []
    if len(qubits) == 1:
        combos = [(a,) for a in _PAULI_AXES]
    else:
        combos = [
            (a, b)
            for a in ("I",) + _PAULI_AXES
            for b in ("I",) + _PAULI_AXES
            if not (a == "I" and b == "I")
        ]
    for combo in combos:
        factors = ["I"] * num_qubits
        for q, ax in zip(qubits, combo):
            if ax != "I":
                factors[q] = ax
        perm, phase = pauli.PauliString("".join(factors)).perm_and_phase()
        words.append((perm, phase[perm]))
    return words


def apply_depolarizing(rho, words, p):
    if p == 0.0:
        return rho
    acc = np.zeros_like(rho)
    for perm, pl in words:
        acc += (pl[:, None] * rho[np.ix_(perm, perm)]) * pl.conj()[None, :]
    return (1.0 - p) * rho + (p / len(words)) * acc


def dense_noisy_circuit_branches(circ, model):
    """Branch channels Phi_0, Phi_1 of the noisy circuit, as Choi matrices.

    Evolves each data basis matrix unit through the gate list with a
    depolarizing channel after every gate, then projects the ancilla.
    """
    from dqe import circuits

    n = circ.num_qubits
    d_data = 1 << (n - 1)
    gates = []
    for g in circ.gates:
        if isinstance(g, (circuits.MeasureAncilla, circuits.ResetAncilla)):
            continue
        targets = gate_noise_targets(g, n)
        p = model.p1 if len(targets) == 1 else model.p2
        gates.append((circuits.gate_unitary(g, n), pauli_conj_data(n, targets), p))
    anc0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=np.complex128)
    choi0 = np.zeros((d_data * d_data, d_data * d_data), dtype=np.complex128)
    choi1 = np.zeros_like(choi0)
    for i in range(d_data):
        for j in range(d_data):
            e_ij = np.zeros((d_data, d_data), dtype=np.complex128)
            e_ij[i, j] = 1.0
            rho = np.kron(e_ij, anc0)
            for u, words, p in gates:
                rho = u @ rho @ u.conj().T
                rho = apply_depolarizing(rho, words, p)
            unit = np.zeros_like(e_ij)
            unit[i, j] = 1.0
            choi0 += np.kron(unit, rho[0::2, 0::2])
            choi1 += np.kron(unit, rho[1::2, 1::2])
    return choi0, choi1


def dense_noisy_term_instrument(term, eps, weight, model):
    """(kraus0, kraus1, delta_measured) of one noisy term from the dense
    matrix-unit simulation; every positive Choi eigenvalue is kept, so the
    Kraus sets give the simulated channels to round-off."""
    from dqe import circuits, instrument as im

    choi0, choi1 = dense_noisy_circuit_branches(circuits.measurement_circuit(term, eps, weight), model)
    d = 1 << len(term.string.support)
    kraus0, kraus1 = kraus_from_choi(choi0, d, 0.0), kraus_from_choi(choi1, d, 0.0)
    e0_clean = im.TermInstrument(term, weight).kraus(eps)[0]
    delta = float(np.linalg.norm(im.pauli_transfer(kraus0) - im.pauli_transfer([e0_clean]), 2))
    return kraus0, kraus1, delta


def iterative_free_decay_overlaps(spectral, p1, steps):
    """Free-decay overlap series by stepping the dense density matrix: each
    step applies (1 - p) rho + (p/3) sum_sigma sigma rho sigma on every qubit."""
    n = int(round(np.log2(spectral.dimension)))
    rho = spectral.ground_projector.astype(np.complex128) / spectral.degeneracy
    words = [pauli_conj_data(n, (q,)) for q in range(n)]
    series = np.empty(steps + 1)
    series[0] = float(np.trace(spectral.ground_projector @ rho).real)
    for t in range(1, steps + 1):
        for q in range(n):
            rho = apply_depolarizing(rho, words[q], p1)
        series[t] = float(np.trace(spectral.ground_projector @ rho).real)
    return series


# ---------------------------------------------------------------------------
# Instruments by eigendecomposition: the second path to the closed form of
# ``dqe.instrument.TermInstrument.coefficients``
# ---------------------------------------------------------------------------


class InvalidAgspError(DqeError):
    """Operator fails the preconditions for building an instrument from it."""


def principal_sqrt_complement(e0):
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


def make_instrument(op, eps, resampler, support=None):
    """Weak measurement E0 = (1-eps)1 + eps*op with E1 completing it.

    ``op`` is the (pre-weighted) Hermitian AGSP piece on ``support``: the
    global K with no support, or a local factor kappa_v k_v on the term's
    qubits.  eps = 1 recovers the bare AGSP Kraus pair, eps = 0 the trivial
    instrument.
    """
    from dqe.instrument import Instrument

    if not 0.0 <= eps <= 1.0:
        raise ParameterError(f"eps must be in [0, 1], got {eps}")
    d = op.shape[0]
    e0 = (1.0 - eps) * np.eye(d) + eps * op
    if np.linalg.norm(e0, ord=2) > 1.0 + 1e-12:
        raise InvalidAgspError("||E0|| > 1: AGSP piece must be pre-scaled below unit norm")
    e1 = principal_sqrt_complement(e0)
    return Instrument(e0, e1, resampler, tuple(support) if support is not None else None)


def agsp_product(ham, eps, spec=None):
    """Ordered forward-then-reversed product of the 2m weak local factors.

    K' = F_1...F_m F_m...F_1 with F_i = (1-eps)1 + eps*kappa_i*k_i, which is
    Hermitian PSD by construction.  Claimed parameters are the leading-order
    corollary forms; the O(eps^2) corrections are what verify_agsp measures.
    """
    from dqe.agsp import Agsp, AgspParams
    from dqe.instrument import sweep_success_operator, term_instruments

    if not 0.0 < eps < 1.0:
        raise ParameterError(f"eps must be in (0, 1), got {eps}")
    k = sweep_success_operator(term_instruments(ham, "sum"), eps)
    m = ham.num_terms
    if spec is not None:
        pref = (1.0 - eps) ** (2 * m - 1)
        params = AgspParams(
            delta=pref * (1.0 - eps * spec.lambda1 / ham.kappa),
            gamma=pref * (1.0 - eps * spec.lambda0 / ham.kappa),
            epsilon=0.0,
        )
    else:
        params = AgspParams(delta=1.0, gamma=1.0, epsilon=0.0)
    return Agsp(k, params, metadata={"eps": eps})


# ---------------------------------------------------------------------------
# Stopped states that ``dqe.analytics`` has no command for
# ---------------------------------------------------------------------------


def expected_state_global(k, n):
    """E(rho_n) = K^{2n} / tr(K^{2n}) for the globally resampled process.

    Evaluated through eigenvalues in log-space, so large n cannot underflow
    the trace: weights exp(2n log|w_i|) are normalized against the largest.
    """
    if n < 0:
        raise ParameterError("n must be >= 0")
    w, v = np.linalg.eigh((k + k.conj().T) / 2.0)
    d = k.shape[0]
    if n == 0:
        return np.eye(d) / d
    absw = np.abs(w)
    if absw.max() <= 1e-300:
        raise ParameterError("K = 0 has no conditioned stopped state")
    with np.errstate(divide="ignore"):
        loga = 2.0 * n * np.log(absw)
    weights = np.exp(loga - loga.max())
    rho = (v * weights) @ v.conj().T
    rho = (rho + rho.conj().T) / 2.0
    return rho / np.trace(rho).real


def expected_state_schedule(success_transfers, failure_transfers, rho0):
    """Expected stopped state under a per-position schedule of sweep channels.

    Position j of every attempt (j sweeps since the last failure) applies
    the channels (T0_j, T1_j); the process stops after n = len(lists)
    consecutive successes.  Summing over failed attempts gives
    E|rho_n>> = A_n (1 - sum_j T1_{j+1} A_j)^{-1} |rho0>> with
    A_j = T0_j ... T0_1, which reduces to the W form when the schedule is
    constant.  The state is divided by its trace, and the walk runs on the
    transfers' sector, as in ``dqe.analytics.expected_stopped_general``.
    """
    from dqe.analytics import _LuSolver

    n = len(success_transfers)
    if n < 1 or len(failure_transfers) != n:
        raise ParameterError("schedule needs matching non-empty transfer lists")
    sector = success_transfers[0].sector
    t0s = [t.matrix for t in success_transfers]
    t1s = [t.matrix for t in failure_transfers]
    d2 = t0s[0].shape[0]
    a = np.eye(d2)
    f = np.zeros((d2, d2))
    for j in range(n):
        f += t1s[j] @ a
        a = t0s[j] @ a
    x = _LuSolver(np.eye(d2) - f, "schedule W").solve(sector.vec(rho0))
    rho = sector.unvec(a @ x)
    rho = (rho + rho.conj().T) / 2.0
    return rho / np.trace(rho).real


# ---------------------------------------------------------------------------
# Direct channel perturbation of a clean instrument, and its resilience bound
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChannelPerturbation:
    """E0' = E0 + delta * direction, direction unit-normalized in transfer norm."""

    delta: float
    seed: int = 0

    def __post_init__(self):
        if self.delta < 0.0:
            raise ParameterError("delta must be >= 0")


def _random_hermitian_direction(dim, seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2.0


def perturb_instrument(inst, model):
    """Shift E0 by delta along a transfer-norm-normalized Kraus direction.

    E1 is recomputed as the principal complement root, so the perturbed
    instrument satisfies completeness exactly; the perturbation must keep
    ||E0'|| <= 1 or the noise model is rejected.  The direction acts on the
    instrument's own qubits, so the perturbed instrument keeps its support.
    """
    from dqe.instrument import Instrument, pauli_transfer

    e0 = inst.e0
    d = e0.shape[0]
    g = _random_hermitian_direction(d, model.seed)
    # rho -> g rho E0^dag + E0 rho g^dag, the derivative along g, by polarization
    d1 = pauli_transfer([e0 + g]) - pauli_transfer([e0]) - pauli_transfer([g])
    scale = np.linalg.norm(d1, 2)
    if scale < 1e-30:
        raise InvalidNoiseError("degenerate perturbation direction")
    g = g / scale
    e0p = e0 + model.delta * g
    if np.linalg.norm(e0p, 2) > 1.0:
        raise InvalidNoiseError("perturbation pushes ||E0|| above 1; reduce delta")
    e1p = principal_sqrt_complement(e0p)
    return Instrument(e0p, e1p, inst.resampler, inst.support)


def transfer_delta(inst_a, inst_b):
    """Operator-norm distance between the success-branch transfer matrices."""
    from dqe.instrument import pauli_transfer

    return float(np.linalg.norm(pauli_transfer([inst_a.e0]) - pauli_transfer([inst_b.e0]), 2))


def fixed_point_resilience_bound(params, delta, dim, degeneracy):
    """1 - ((1-Gamma)/(1-Delta) + delta)(D/N - 1) - eps - delta."""
    ratio = (1.0 - params.gamma) / (1.0 - params.delta) if params.delta < 1.0 else 0.0
    return 1.0 - (ratio + delta) * (dim / degeneracy - 1.0) - params.epsilon - delta


# ---------------------------------------------------------------------------
# The secretary rule on synthetic run-length streams
# ---------------------------------------------------------------------------


def secretary_scan(lengths, obs, horizon, coins):
    """Step-accurate secretary policy over a stream of zero-run lengths.

    Run i contributes ``lengths[i]`` zero-steps then one 1-step.  Stopping is
    allowed at zero-steps with index > obs and <= horizon; the policy stops
    the moment the current run strictly exceeds every completed run, with a
    fair coin (coins[i] < 0.5 stops) when it exactly ties the record.
    Returns the index of the run stopped in, or -1.
    """
    step = 0
    best = -1
    for i in range(lengths.shape[0]):
        run = int(lengths[i])
        for z in range(1, run + 1):
            step += 1
            if step > horizon:
                return -1
            if step > obs:
                if z > best:
                    return i
                if z == best and coins[i] < 0.5:
                    return i
        step += 1
        if step > horizon:
            return -1
        if run > best:
            best = run
    return -1


def run_lengths_within(lengths, horizon):
    """Truncate a run-length stream at a step horizon (run + trailing 1 each)."""
    out = []
    step = 0
    for run in lengths:
        run = int(run)
        if step + run >= horizon:
            out.append(horizon - step)
            break
        out.append(run)
        step += run + 1
        if step >= horizon:
            break
    return np.asarray(out, dtype=np.int64)


def secretary_select(lengths, horizon, coins):
    """Index of the run the secretary policy stops in, or -1."""
    obs = int(horizon / math.e)
    return int(secretary_scan(np.ascontiguousarray(lengths, dtype=np.int64), obs, horizon, coins))


# ---------------------------------------------------------------------------
# Dense simulation of the measurement circuits of ``dqe.circuits`` (qubit 0
# most significant, the ancilla the last qubit), and their QASM round trip
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DilationUnitary:
    """Block form of the measurement unitary over (ancilla) x (Pi sector)."""

    matrix: np.ndarray  # 4x4, basis |a>|sector> with sector 0 = range(Pi)
    theta: float
    phi: float


def dilation_unitary(kappa_v, eps):
    """U = R_phi (x) Pi + R_theta (x) (1 - Pi) reduced to its 2x2 blocks.

    (theta, phi) are the dilation angles at weight kappa_v; the |0>-row
    blocks are the E0 eigenvalues on (Pi, 1-Pi) and the |1>-row blocks E1's.
    """
    from dqe.instrument import dilation_angles

    theta, phi = dilation_angles(eps, kappa_v)
    cp, sp = math.cos(phi), math.sin(phi)
    ct, st = math.cos(theta), math.sin(theta)
    mat = np.array(
        [
            [cp, 0.0, -sp, 0.0],
            [0.0, ct, 0.0, -st],
            [sp, 0.0, cp, 0.0],
            [0.0, st, 0.0, ct],
        ]
    )
    return DilationUnitary(mat, theta, phi)


def circuit_unitary(circuit):
    """Unitary of the gate list (measurements and resets excluded)."""
    from dqe.circuits import MeasureAncilla, ResetAncilla, gate_unitary

    u = np.eye(1 << circuit.num_qubits, dtype=np.complex128)
    for g in circuit.gates:
        if isinstance(g, (MeasureAncilla, ResetAncilla)):
            continue
        u = gate_unitary(g, circuit.num_qubits) @ u
    return u


def simulate_measurement(circuit, psi_data):
    """Ancilla statistics of the circuit on a data state.

    Returns (p0, post0, p1, post1): outcome probabilities and normalized
    post-measurement data states (post is None for a zero-probability
    branch).  The ancilla starts in |0> and is the least significant bit.
    """
    u = circuit_unitary(circuit)
    full = np.zeros(1 << circuit.num_qubits, dtype=np.complex128)
    full[0::2] = psi_data  # data (x) |0>_ancilla
    out = u @ full
    branch0 = out[0::2]
    branch1 = out[1::2]
    p0 = float(np.vdot(branch0, branch0).real)
    p1 = float(np.vdot(branch1, branch1).real)
    post0 = branch0 / np.sqrt(p0) if p0 > 1e-30 else None
    post1 = branch1 / np.sqrt(p1) if p1 > 1e-30 else None
    return p0, post0, p1, post1


@dataclass(frozen=True)
class ParsedQasm:
    num_qubits: int
    ops: tuple  # (name, qubits, angle)


def parse_qasm(text):
    """Parse the subset ``dqe.circuits.export_qasm`` writes, for round-trip
    verification."""
    num_qubits = None
    ops = []
    for raw in text.splitlines():
        line = raw.split("//")[0].strip()
        if not line or line.startswith(("OPENQASM", "include", "creg")):
            continue
        if line.startswith("qreg"):
            num_qubits = int(line[line.index("[") + 1 : line.index("]")])
            continue
        if not line.endswith(";"):
            raise ConfigError(f"unterminated QASM line: {raw!r}")
        line = line[:-1]
        if line.startswith("measure"):
            ops.append(("measure", (int(line[line.index("[") + 1 : line.index("]")]),), None))
            continue
        name, _, args = line.partition(" ")
        angle = None
        if name.startswith("ry("):
            angle = float(name[3:-1]) / 2.0
            name = "ry"
        qubits = tuple(
            int(tok[tok.index("[") + 1 : tok.index("]")]) for tok in args.split(",")
        )
        ops.append((name, qubits, angle))
    if num_qubits is None:
        raise ConfigError("missing qreg declaration")
    return ParsedQasm(num_qubits, tuple(ops))


def parsed_unitary(parsed):
    """Unitary of a parsed gate list (measure/reset excluded)."""
    from dqe.circuits import _H, _S, _cnot_matrix, _embed_1q, _rotation

    n = parsed.num_qubits
    u = np.eye(1 << n, dtype=np.complex128)
    for name, qubits, angle in parsed.ops:
        if name in ("measure", "reset"):
            continue
        if name == "h":
            g = _embed_1q(_H, qubits[0], n)
        elif name == "s":
            g = _embed_1q(_S, qubits[0], n)
        elif name == "sdg":
            g = _embed_1q(_S.conj().T, qubits[0], n)
        elif name == "ry":
            g = _embed_1q(_rotation(angle), qubits[0], n)
        elif name == "cx":
            g = _cnot_matrix(qubits[0], qubits[1], n)
        else:
            raise ConfigError(f"unsupported QASM gate {name!r}")
        u = g @ u
    return u
