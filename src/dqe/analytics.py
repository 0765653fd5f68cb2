"""Exact closed-form expectations for the stopped process.

Global resampling admits scalar spectral formulas; general resampling works
through real transfer matrices on a Pauli sector or on H's populations.  All
W-matrix expressions are evaluated by solves on W = 1 - E1 (1 + E0 + ... +
E0^{n-1}), with the partial geometric sums formed explicitly: this stays
regular even when E0 has unit-modulus eigenvalues (Gamma = 1), where the
equivalent (1 - E0 - E1 + E1 E0^n) form is singular.  Each W is inverted
once with numpy's LAPACK, which also gives its exact 1-norm condition, and
every solve takes one step of iterative refinement.  A table over run
lengths is one walk that adds a sweep per product.  ``geometric_sums``
forms the same sums by index doubling, for checks that want a single large
n.  The resolvent forms live only in tests as an independent second path.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import IllConditionedError, ParameterError
from .instrument import TransferMatrix

_TINY = 1e-300
_RCOND_FLOOR = 1e-13


def expected_tau_global(k: np.ndarray, n: int) -> float:
    """E(tau_n) = tr(sum_{j<n} K^{2j}) / tr(K^{2n}).

    The partial geometric sum is used directly, so unit eigenvalues of K
    (where the resolvent form is singular) are handled exactly.
    """
    if n < 0:
        raise ParameterError("n must be >= 0")
    if n == 0:
        return 0.0
    w, _ = np.linalg.eigh((k + k.conj().T) / 2.0)
    w2 = w**2
    # inside the window the n-term sum is exact to ~n*1e-12 relative, while
    # the quotient form would lose digits to cancellation
    near_one = np.abs(w2 - 1.0) < 1e-12
    numer = np.where(near_one, float(n), (1.0 - w2**n) / np.where(near_one, 1.0, 1.0 - w2))
    total = numer.sum()
    # denominator in log-space against underflow
    absw = np.abs(w)
    pos = absw > _TINY
    if not np.any(pos):
        raise ParameterError("K = 0 never produces a 0 outcome")
    loga = 2.0 * n * np.log(absw[pos])
    shift = loga.max()
    denom_log = shift + np.log(np.exp(loga - shift).sum())
    return float(total * np.exp(-denom_log))


def tau_upper_bound(params, dim: int, degeneracy: int, n: int) -> float:
    """Closed-form bound Gamma^{-n} (n + (1-Delta^n)/(1-Delta) (D/N - 1))."""
    gamma, delta = params.gamma, params.delta
    if gamma <= 0:
        return float("inf")
    geom = float(n) if abs(1.0 - delta) < 1e-14 else (1.0 - delta**n) / (1.0 - delta)
    return (n + geom * (dim / degeneracy - 1.0)) / gamma**n


class _LuSolver:
    """W inverted once, with a reciprocal-condition guard and one step of
    iterative refinement per solve.

    numpy's LAPACK keeps the oracle on one BLAS runtime: scipy's dense
    linear algebra bundles its own OpenBLAS, whose thread pool contends
    with numpy's.  With the inverse at hand, ``rcond`` =
    1/(||W||_1 ||W^-1||_1) is exact, and an inverse-based solve with one
    refinement step is as accurate as an LU solve at these condition
    numbers (Du Croz & Higham, IMA J. Numer. Anal. 12, 1992).
    """

    def __init__(self, mat: np.ndarray, label: str):
        self.mat = mat
        self.label = label
        try:
            self.inv = np.linalg.inv(mat)
        except np.linalg.LinAlgError:  # exactly singular
            rcond = 0.0
        else:
            rcond = 1.0 / (np.linalg.norm(mat, 1) * np.linalg.norm(self.inv, 1))
        if not np.isfinite(rcond) or rcond < _RCOND_FLOOR:
            raise IllConditionedError(
                f"{self.label} matrix is numerically singular (rcond={rcond:.2e})",
                condition=float("inf") if rcond == 0 else 1.0 / rcond,
            )
        self.rcond = float(rcond)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        x = self.inv @ rhs
        x += self.inv @ (rhs - self.mat @ x)
        return x


def geometric_sums(t0: np.ndarray, n: int):
    """(T0^n, G_n, H_n) with G_n = sum_{j<n} T0^j, H_n = sum_{j<n} (j+1) T0^j.

    Index doubling via G_{a+b} = G_a + T^a G_b and
    H_{a+b} = H_a + T^a (H_b + a G_b), so only O(log n) products are needed.
    The first block taken is assigned, not multiplied by the identity.
    """
    eye = np.eye(t0.shape[0], dtype=np.complex128)
    p_acc, g_acc, h_acc, k_acc = None, None, None, 0
    p_cur, g_cur, h_cur, k_cur = t0.astype(np.complex128), eye.copy(), eye.copy(), 1
    bits = n
    while bits:
        if bits & 1:
            if p_acc is None:
                p_acc, g_acc, h_acc = p_cur, g_cur, h_cur
            else:
                g_acc = g_acc + p_acc @ g_cur
                h_acc = h_acc + p_acc @ (h_cur + k_acc * g_cur)
                p_acc = p_acc @ p_cur
            k_acc += k_cur
        bits >>= 1
        if bits:
            g_cur, h_cur = (
                g_cur + p_cur @ g_cur,
                h_cur + p_cur @ (h_cur + k_cur * g_cur),
            )
            p_cur = p_cur @ p_cur
            k_cur *= 2
    if p_acc is None:
        return eye, np.zeros_like(eye), np.zeros_like(eye)
    return p_acc, g_acc, h_acc


def _check_failure_recovery(t0: np.ndarray, t1: np.ndarray, v0: np.ndarray, row: np.ndarray):
    """The theorem's condition tr(E0 o R(rho)) > 0, probed on rho0."""
    p_fail = float((row @ (t1 @ v0)).real)
    if p_fail <= 1e-15:
        return
    p_recover = float((row @ (t0 @ (t1 @ v0))).real)
    if p_recover <= 1e-15:
        raise ParameterError(
            "resampler output never succeeds: tr(E0 o R(rho)) > 0 violated"
        )


class Stopped(NamedTuple):
    """Exact stopped state and stopping time at one run length n.

    ``state`` is divided by its trace; ``trace_defect`` = |tr - 1| before
    that division is an a-posteriori error estimate, since the exact trace
    is 1 whenever T0 + T1 preserves the trace.  ``rcond`` is W's exact
    reciprocal 1-norm condition number, which falls about as 1/E(tau).
    """

    n: int
    state: np.ndarray
    tau: float
    trace_defect: float
    rcond: float


def _powers_apply(t0: np.ndarray, x: np.ndarray, n: int):
    """(T0^n x, sum_{j<n} (j+1) T0^j x) by n matrix-vector products."""
    h = np.zeros_like(x)
    for j in range(n):
        h += (j + 1) * x
        x = t0 @ x
    return x, h


def expected_stopped_general(
    t0: TransferMatrix, t1: TransferMatrix, rho0: np.ndarray, ns
) -> list[Stopped]:
    """Expected stopped states and stopping times of the generally resampled
    process, one ``Stopped`` per run length in ``ns``, in the order given.

    The state is E0^n W^{-1} |rho0>> with W = 1 - E1 G_n and
    G_n = sum_{j<n} E0^j.  The time is evaluated in the attempt
    decomposition E(tau_n) = n + <<1| E0^n W^{-1} E1 H_n W^{-1} |rho0>> with
    H_n = sum_{j<n} (j+1) E0^j, which is the corollary's
    E1 (1-E0^n)(1-E0)^{-2} form with the lemma-valued resolvent tail
    already cancelled, so it stays finite at Gamma = 1.

    One walk over the sorted distinct n holds F_m = E1 E0^m and
    S_m = E1 G_m: a step of one sweep is S += F, F = F E0 (one product),
    none after the largest n, so a table entry equals the one-n call
    exactly.  Each n then takes one inversion of W = 1 - S_n; E0^n
    and H_n are applied to vectors only.

    The walk runs in real arithmetic in the transfers' basis (``sector``);
    a rho0 outside it raises ParameterError.
    """
    ns = list(ns)
    if any(n < 1 for n in ns):
        raise ParameterError("run lengths must be >= 1")
    sector, t0m, t1m = t0.sector, t0.matrix, t1.matrix
    row = sector.trace_row
    v0 = sector.vec(rho0)
    _check_failure_recovery(t0m, t1m, v0, row)
    f = t1m
    # S_0 = 0: the first += makes S a fresh array and leaves T1 untouched
    s = 0.0
    steps = sorted(set(ns))
    done, m = {}, 0
    for n in steps:
        for j in range(m, n):
            s += f
            if j + 1 < steps[-1]:
                f = f @ t0m
        m = n
        solver = _LuSolver(np.eye(t0m.shape[0]) - s, "stopped-process W")
        x = solver.solve(v0)
        t0n_x, h_x = _powers_apply(t0m, x, n)
        t0n_y, _ = _powers_apply(t0m, solver.solve(t1m @ h_x), n)
        rho = sector.unvec(t0n_x)
        rho = (rho + rho.conj().T) / 2.0
        trace = float(np.trace(rho).real)
        tau = float(n + (row @ t0n_y).real)
        done[n] = Stopped(n, rho / trace, tau, abs(trace - 1.0), solver.rcond)
    return [done[n] for n in ns]


def expected_state_general(
    t0: TransferMatrix, t1: TransferMatrix, rho0: np.ndarray, n: int
) -> np.ndarray:
    """Expected stopped state; see ``expected_stopped_general``."""
    return expected_stopped_general(t0, t1, rho0, [n])[0].state


def expected_tau_general(
    t0: TransferMatrix, t1: TransferMatrix, rho0: np.ndarray, n: int
) -> float:
    """Expected stopping time; see ``expected_stopped_general``."""
    return expected_stopped_general(t0, t1, rho0, [n])[0].tau


class BoundResult(NamedTuple):
    value: float
    vacuous: bool


def overlap_lower_bound(params, dim: int, degeneracy: int, n: int) -> BoundResult:
    """1 - eps - (D/N)(Delta/Gamma)^n clamped to [0, 1]; vacuous if Gamma <= Delta."""
    if params.gamma <= params.delta:
        return BoundResult(0.0, True)
    raw = 1.0 - params.epsilon - (dim / degeneracy) * (params.delta / params.gamma) ** n
    return BoundResult(min(max(raw, 0.0), 1.0), False)


def fixed_point_overlap_bound(params, dim: int, degeneracy: int) -> float:
    """(1-Delta)/((Gamma-Delta) + (D/N)(1-Gamma)) - eps."""
    denom = (params.gamma - params.delta) + (dim / degeneracy) * (1.0 - params.gamma)
    if denom <= 0.0:
        return 1.0 - params.epsilon
    return (1.0 - params.delta) / denom - params.epsilon
