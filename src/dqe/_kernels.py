"""Hot numeric kernels of the Monte Carlo trajectory loop.

The loop spends nearly all its time in three operations: applying a
phase-permutation (Pauli string) to a state vector, applying a small dense
operator to a subset of qubits, and scanning outcome streams for stopping
decisions.  Each is a plain numpy function.
"""

from __future__ import annotations

import numpy as np

# No compiled backend exists; perfbench's machine block reads this flag.
USING_NUMBA = False


def axpb_pauli(psi, out, perm, phase, a, b):
    """out = a*psi + b*h(psi) where h permutes amplitudes with phases.

    ``h(psi)[i] = phase[perm[i]] * psi[perm[i]]`` (perm is an involution).
    Returns the squared 2-norm of ``out``.
    """
    np.multiply(phase, psi, out=out)
    out[:] = out[perm]
    out *= b
    out += a * psi
    return float(np.vdot(out, out).real)


def apply_local(psi, out, idx, op):
    """Apply dense (d x d) ``op`` on the index groups of ``idx`` (R x d)."""
    block = psi[idx]
    out[idx] = block @ op.T
    return float(np.vdot(out, out).real)


def local_probs(psi, idx):
    """Born weights of the d local basis assignments indexed by idx columns."""
    block = psi[idx]
    return np.einsum("rd,rd->d", block.real, block.real) + np.einsum(
        "rd,rd->d", block.imag, block.imag
    )


def local_quadform(psi, idx, op):
    """<psi| (op on the support) |psi> for a Hermitian local operator."""
    block = psi[idx]
    return float(np.vdot(block, block @ op.T).real)


def project_replace(psi, out, idx, a_old, a_new, scale):
    """Keep the a_old slice of psi, move it to the a_new slice, rescale."""
    out[:] = 0.0
    out[idx[:, a_new]] = psi[idx[:, a_old]] * scale


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
