"""Hot numeric kernels of the Monte Carlo trajectory loop.

The clean loop acts on the state with Pauli strings: ``pauli_expect``
writes h|psi> into a buffer by one multiply on an axis-flipped view of the
state and returns the two inner products that fix both branch weights, and
``axpb_pauli`` then overwrites the state with a psi + b h psi.  A
gate-error event applies a small dense operator to a subset of qubits
(``apply_local``, ``local_quadform``); the local resampler reads the
support marginals (``local_probs``) and moves one slice
(``project_replace``).  Every kernel that changes the state writes it in
place, so a trajectory's state is one buffer from start to end.  Each is a
plain numpy function.
"""

from __future__ import annotations

import numpy as np

# No compiled backend exists; perfbench's machine block reads this flag.
USING_NUMBA = False


def pauli_expect(pair, flipped, hphase, out):
    """Write h psi into ``out`` and return (<psi|h psi>, <psi|psi>).

    h psi is one multiply: ``flipped`` is psi's tensor with the string's X
    and Y axes reversed (a view, no gather), ``hphase`` its phases, and
    ``out`` a view of the h psi buffer of the same shape.  ``pair`` is the
    float64 view of the stacked rows (psi, h psi), so one matrix-vector
    product gives <psi|psi> and Re <psi|h psi>, which is all of it for a
    Hermitian h.
    """
    np.multiply(flipped, hphase, out=out)
    nn, hh = np.dot(pair, pair[0]).tolist()
    return hh, nn


def axpb_pauli(psi, hpsi, a, b):
    """psi <- a psi + b hpsi in place; ``hpsi`` is overwritten too."""
    hpsi *= b
    psi *= a
    psi += hpsi


def apply_local(psi, out, idx, op):
    """Apply dense (d x d) ``op`` on the index groups of ``idx`` (R x d)."""
    block = psi[idx]
    out[idx] = block @ op.T
    return float(np.vdot(out, out).real)


def local_probs(psi, idx):
    """Born weights of the d local basis assignments indexed by idx columns."""
    block = psi[idx]
    if block.dtype.kind != "c":
        return np.einsum("rd,rd->d", block, block)
    return np.einsum("rd,rd->d", block.real, block.real) + np.einsum(
        "rd,rd->d", block.imag, block.imag
    )


def local_quadform(psi, idx, op):
    """<psi| (op on the support) |psi> for a Hermitian local operator."""
    block = psi[idx]
    return float(np.vdot(block, block @ op.T).real)


def project_replace(psi, idx, a_old, a_new, scale):
    """In place: keep the a_old slice of psi, move it to the a_new slice,
    rescale, and zero the rest."""
    kept = psi[idx[:, a_old]]
    kept *= scale
    psi[:] = 0.0
    psi[idx[:, a_new]] = kept
