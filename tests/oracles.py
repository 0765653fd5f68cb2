"""Independent reference computations the tests check the package against.

These deliberately avoid the code paths they validate: the Markov chain
oracle solves a linear system over run-length states, the rank oracle
enumerates permutations, and the violation counter walks raw bitstrings.
"""

import itertools
import math

import numpy as np


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


def dense_sweep_transfer_product(instruments, num_qubits):
    """(T0, T1) of a forward-then-reversed sweep by dense D^2 x D^2 algebra.

    Every micro-instrument becomes a full kron transfer pair and the sweep
    is composed by matmuls, the O(D^6)-per-step form that the local
    superoperator path in ``dqe.instrument`` replaces.
    """
    from dqe import instrument as im

    micro = [
        (
            im.transfer_of_instrument_success(inst).matrix,
            im.transfer_of_instrument_failure(inst, num_qubits).matrix,
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


def dense_noisy_sweep_success_transfer(engine):
    """Noisy all-zeros sweep transfer with every term's Kraus set embedded
    in the full space and composed by dense matmuls."""
    d = engine.dim
    micro = []
    for kraus0, _, table, _ in engine.noisy_terms:
        t0 = np.zeros((d * d, d * d), dtype=np.complex128)
        for a in kraus0:
            full = np.zeros((d, d), dtype=np.complex128)
            for r in range(table.shape[0]):
                full[np.ix_(table[r], table[r])] = a
            t0 += np.kron(full.conj(), full)
        micro.append(t0)
    out = np.eye(d * d, dtype=np.complex128)
    for v in list(range(len(micro))) + list(range(len(micro) - 1, -1, -1)):
        out = micro[v] @ out
    return out
