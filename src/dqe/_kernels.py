"""Hot numeric kernels with two interchangeable backends.

The Monte Carlo trajectory loop spends nearly all its time in three
operations: applying a phase-permutation (Pauli string) to a state vector,
applying a small dense operator to a subset of qubits, and scanning outcome
streams for stopping decisions.  Each kernel exists twice: a numba
``@njit`` version and a pure-numpy version.  Setting ``DQE_DISABLE_NUMBA=1``
in the environment selects the numpy path; otherwise numba is used when
importable.  Both backends consume identical random inputs, so trajectories
are bit-reproducible across them.
"""

from __future__ import annotations

import os

import numpy as np

__all__ = [
    "USING_NUMBA",
    "axpb_pauli",
    "apply_local",
    "local_probs",
    "local_quadform",
    "project_replace",
    "secretary_scan",
    "numpy_impl",
    "numba_impl",
]


# ---------------------------------------------------------------------------
# numpy backend
# ---------------------------------------------------------------------------


def _axpb_pauli_numpy(psi, out, perm, phase, a, b):
    """out = a*psi + b*h(psi) where h permutes amplitudes with phases.

    ``h(psi)[i] = phase[perm[i]] * psi[perm[i]]`` (perm is an involution).
    Returns the squared 2-norm of ``out``.
    """
    np.multiply(phase, psi, out=out)
    out[:] = out[perm]
    out *= b
    out += a * psi
    return float(np.vdot(out, out).real)


def _apply_local_numpy(psi, out, idx, op):
    """Apply dense (d x d) ``op`` on the index groups of ``idx`` (R x d)."""
    block = psi[idx]
    out[idx] = block @ op.T
    return float(np.vdot(out, out).real)


def _local_probs_numpy(psi, idx):
    """Born weights of the d local basis assignments indexed by idx columns."""
    block = psi[idx]
    return np.einsum("rd,rd->d", block.real, block.real) + np.einsum(
        "rd,rd->d", block.imag, block.imag
    )


def _local_quadform_numpy(psi, idx, op):
    """<psi| (op on the support) |psi> for a Hermitian local operator."""
    block = psi[idx]
    return float(np.einsum("rd,de,re->", block.conj(), op, block).real)


def _project_replace_numpy(psi, out, idx, a_old, a_new, scale):
    """Keep the a_old slice of psi, move it to the a_new slice, rescale."""
    out[:] = 0.0
    out[idx[:, a_new]] = psi[idx[:, a_old]] * scale


def _secretary_scan_numpy(lengths, obs, horizon, coins):
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


class _Impl:
    def __init__(
        self, name, axpb_pauli, apply_local, local_probs, local_quadform,
        project_replace, secretary_scan,
    ):
        self.name = name
        self.axpb_pauli = axpb_pauli
        self.apply_local = apply_local
        self.local_probs = local_probs
        self.local_quadform = local_quadform
        self.project_replace = project_replace
        self.secretary_scan = secretary_scan


numpy_impl = _Impl(
    "numpy",
    _axpb_pauli_numpy,
    _apply_local_numpy,
    _local_probs_numpy,
    _local_quadform_numpy,
    _project_replace_numpy,
    _secretary_scan_numpy,
)


# ---------------------------------------------------------------------------
# numba backend
# ---------------------------------------------------------------------------

numba_impl = None

if os.environ.get("DQE_DISABLE_NUMBA", "0") not in ("1", "true", "yes"):
    try:
        from numba import njit
    except ImportError:  # pragma: no cover - numba is a declared dependency
        njit = None

    if njit is not None:

        @njit(cache=True)
        def _axpb_pauli_numba(psi, out, perm, phase, a, b):
            acc = 0.0
            for i in range(psi.shape[0]):
                j = perm[i]
                v = a * psi[i] + b * phase[j] * psi[j]
                out[i] = v
                acc += v.real * v.real + v.imag * v.imag
            return acc

        @njit(cache=True)
        def _apply_local_numba(psi, out, idx, op):
            d = op.shape[0]
            acc = 0.0
            for r in range(idx.shape[0]):
                for i in range(d):
                    v = 0.0 + 0.0j
                    for k in range(d):
                        v += op[i, k] * psi[idx[r, k]]
                    out[idx[r, i]] = v
                    acc += v.real * v.real + v.imag * v.imag
            return acc

        @njit(cache=True)
        def _local_probs_numba(psi, idx):
            d = idx.shape[1]
            p = np.zeros(d)
            for r in range(idx.shape[0]):
                for i in range(d):
                    v = psi[idx[r, i]]
                    p[i] += v.real * v.real + v.imag * v.imag
            return p

        @njit(cache=True)
        def _local_quadform_numba(psi, idx, op):
            d = op.shape[0]
            acc = 0.0
            for r in range(idx.shape[0]):
                for i in range(d):
                    v = 0.0 + 0.0j
                    for k in range(d):
                        v += op[i, k] * psi[idx[r, k]]
                    c = psi[idx[r, i]]
                    acc += c.real * v.real + c.imag * v.imag
            return acc

        @njit(cache=True)
        def _project_replace_numba(psi, out, idx, a_old, a_new, scale):
            for i in range(out.shape[0]):
                out[i] = 0.0
            for r in range(idx.shape[0]):
                out[idx[r, a_new]] = psi[idx[r, a_old]] * scale

        @njit(cache=True)
        def _secretary_scan_numba(lengths, obs, horizon, coins):
            step = 0
            best = -1
            for i in range(lengths.shape[0]):
                run = lengths[i]
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

        numba_impl = _Impl(
            "numba",
            _axpb_pauli_numba,
            _apply_local_numba,
            _local_probs_numba,
            _local_quadform_numba,
            _project_replace_numba,
            _secretary_scan_numba,
        )


_active = numba_impl if numba_impl is not None else numpy_impl

USING_NUMBA = _active.name == "numba"

axpb_pauli = _active.axpb_pauli
apply_local = _active.apply_local
local_probs = _active.local_probs
local_quadform = _active.local_quadform
project_replace = _active.project_replace
secretary_scan = _active.secretary_scan
