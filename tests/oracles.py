"""Independent reference computations the tests check the package against.

These deliberately avoid the code paths they validate: the Markov chain
oracle solves a linear system over run-length states, the rank oracle
enumerates permutations, and the violation counter walks raw bitstrings.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np


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
