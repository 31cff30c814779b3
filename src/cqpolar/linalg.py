"""Complex Hermitian matrix toolkit for density matrices and POVMs.

Everything works on plain complex ndarrays.  All matrix functions go through
a Hermitian eigendecomposition after explicit symmetrization, and entropies
are in nats (natural logarithm) throughout.

The tolerances of the package, read by states, channels, both engines, the
decoder, plans, the checks and rate regions, are the module constants below.
HERM_TOL, PSD_TOL and TRACE_TOL (1e-9) bound the accepted Hermiticity
defect, eigenvalue negativity (relative to max(1, top eigenvalue); for a
POVM effect, also the excess over 1) and trace defect.  EQ_TOL (1e-7) is the
slack of statements that rounding can break by a few ulps: weights summing
to 1, effects summing to I, rate bounds, a plan's stored rate and bound.
RCOND (1e-12) is the share of the top eigenvalue below which an eigenvalue
counts as kernel.

Every check of the verify suite, equality or inequality, passes within
CHECK_ULPS (1024) ulps of max(1, |lhs|, |rhs|): its sides are sums, and the
forward error of a floating-point sum scales as eps times the size of what
it sums (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
4.2).  Over verify seeds 0-59 at 20 trials the worst deviation is 14 such
ulps.  The table engine builds its likelihoods from sums and products of
nonnegative numbers: entries down to -LIKELIHOOD_NEG_TOL (1e-12, no
decomposition involved) are rounding and clipped to 0, and
LIKELIHOOD_SUM_TOL (1e-8) bounds the defect of each row sum, or of a shifted
table's total mass q relative to q, as its merges sum up to millions of
entries.

STACK_ENTRIES (2^18) bounds the entries one stacked LAPACK call of the hybrid
engine takes (a fidelity SVD's factors, an entropy eigvalsh's matrices): small
matrices share a call, large ones are not all copied at once.  It bounds
memory, not results: a stacked call decomposes each matrix as a lone call would.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StructuralError

HERM_TOL = 1e-9
PSD_TOL = 1e-9
TRACE_TOL = 1e-9
EQ_TOL = 1e-7
RCOND = 1e-12
CHECK_ULPS = 1024
LIKELIHOOD_NEG_TOL = 1e-12
LIKELIHOOD_SUM_TOL = 1e-8
STACK_ENTRIES = 1 << 18


def hermitize(mat: np.ndarray) -> np.ndarray:
    """(M + M†)/2, per matrix of a stack; cheap insurance before any eigendecomposition."""
    return 0.5 * (mat + mat.conj().swapaxes(-1, -2))


def eigh_psd(mat: np.ndarray):
    """Eigendecomposition of a nominally-PSD Hermitian matrix, or of a stack of them.

    Eigenvalues in [-PSD_TOL * max(1, top), 0) are clipped to zero; anything
    more negative is a hard error rather than a silent repair.  A stack is
    decomposed in one LAPACK call per matrix, as a lone matrix would be.
    """
    vals, vecs = np.linalg.eigh(hermitize(mat))
    if vals.size and (vals[..., 0] < -PSD_TOL * np.maximum(1.0, vals[..., -1])).any():
        raise StructuralError(f"matrix is not PSD: min eigenvalue {vals.min():.3e}")
    return np.clip(vals, 0.0, None), vecs


def validate_density_matrix(mat: np.ndarray) -> np.ndarray:
    """Check finiteness/Hermiticity/PSD/trace of a density matrix and return a repaired copy.

    Repair is limited to symmetrization, clipping eigenvalues in
    [-PSD_TOL, 0) and renormalizing the trace within TRACE_TOL.
    """
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise StructuralError(f"density matrix must be square, got shape {mat.shape}")
    if not np.isfinite(mat).all():
        raise StructuralError("density matrix has non-finite entries")
    defect = np.max(np.abs(mat - mat.conj().T)) if mat.size else 0.0
    if defect > HERM_TOL:
        raise StructuralError(f"matrix is not Hermitian: defect {defect:.3e}")
    vals, vecs = eigh_psd(mat)
    tr = float(vals.sum())
    if abs(tr - 1.0) > TRACE_TOL:
        raise StructuralError(f"density matrix trace {tr!r} != 1")
    vals = vals / tr
    return (vecs * vals) @ vecs.conj().T


def psd_sqrt(mat: np.ndarray) -> np.ndarray:
    """The PSD square root of a matrix or of each matrix in a stack."""
    vals, vecs = eigh_psd(mat)
    return (vecs * np.sqrt(vals)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


def psd_inv_sqrt_support(mat: np.ndarray):
    """Inverse square root on the support of a PSD matrix, or of each matrix in a stack.

    Returns (inv_sqrt, support_projector); eigenvalues below ``RCOND`` times
    the largest are treated as kernel.
    """
    vals, vecs = eigh_psd(mat)
    if not vals.size or (vals[..., -1] <= 0.0).any():
        raise StructuralError("matrix has empty support")
    keep = vals > RCOND * vals[..., -1:]
    inv = np.zeros_like(vals)
    inv[keep] = 1.0 / np.sqrt(vals[keep])
    adjoint = vecs.conj().swapaxes(-1, -2)
    inv_sqrt = (vecs * inv[..., None, :]) @ adjoint
    proj = (vecs * keep[..., None, :].astype(float)) @ adjoint
    return inv_sqrt, proj


def _check_same_dim(rho: np.ndarray, sigma: np.ndarray) -> None:
    if rho.shape != sigma.shape:
        raise StructuralError(f"dimension mismatch: {rho.shape} vs {sigma.shape}")


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Tr sqrt(sqrt(rho) sigma sqrt(rho)), clipped to [0, 1].

    Evaluated by ``factor_fidelity`` with the square roots as factors, the
    nuclear norm of sqrt(rho) sqrt(sigma): the singular values come out
    backward-stably, unlike eigenvalues of the sandwiched product, whose
    clipping noise gets amplified by the square root.
    """
    _check_same_dim(rho, sigma)
    return float(factor_fidelity(psd_sqrt(rho), psd_sqrt(sigma)))


def factor_fidelity(va: np.ndarray, vb: np.ndarray):
    """F(A A†, B B†) = ||A† B||_1 (Uhlmann) for any factors, given as rows A^T, B^T.

    A†B is the ra x rb cross-Gram matrix, independent of the ambient dimension.
    Equal-length stacks of factors give the array of their pairwise fidelities,
    from one stacked SVD.
    """
    cross = va @ vb.conj().swapaxes(-1, -2)
    return np.minimum(1.0, np.linalg.svd(cross, compute_uv=False).sum(axis=-1))


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Half the trace norm of the difference."""
    _check_same_dim(rho, sigma)
    vals = np.linalg.eigvalsh(hermitize(rho - sigma))
    return float(0.5 * np.abs(vals).sum())


def entropy_of_probs(p: np.ndarray) -> float:
    """Shannon entropy in nats with the 0*log0 := 0 convention."""
    p = np.asarray(p, dtype=float)
    nz = p[p > 0.0]
    return float(-(nz * np.log(nz)).sum())


def von_neumann_entropy(rho: np.ndarray) -> float:
    """-Tr(rho log rho) in nats; tiny eigenvalues are clipped to zero."""
    vals, _ = eigh_psd(rho)
    return entropy_of_probs(vals)


def angle(rho: np.ndarray, sigma: np.ndarray) -> float:
    """arccos of the fidelity; a metric on density matrices."""
    return float(np.arccos(np.clip(fidelity(rho, sigma), 0.0, 1.0)))


def helstrom_error(rho0: np.ndarray, rho1: np.ndarray) -> float:
    """Optimal error between two equally likely states, (1 - ||rho0 - rho1||_1 / 2) / 2."""
    return 0.5 - trace_distance(0.5 * rho0, 0.5 * rho1)


@dataclass
class Povm:
    """A positive operator-valued measure: PSD effects summing to the identity."""

    effects: list

    @property
    def dim(self) -> int:
        return self.effects[0].shape[0]

    def validate(self) -> None:
        total = np.zeros((self.dim, self.dim), dtype=complex)
        for e in self.effects:
            vals = np.linalg.eigvalsh(hermitize(e))
            if vals[0] < -PSD_TOL:
                raise StructuralError(f"effect not PSD: min eigenvalue {vals[0]:.3e}")
            if vals[-1] > 1.0 + PSD_TOL:
                raise StructuralError(f"effect exceeds identity: max eigenvalue {vals[-1]:.3e}")
            total += e
        defect = np.max(np.abs(total - np.eye(self.dim)))
        if defect > EQ_TOL:
            raise StructuralError(f"effects do not sum to the identity: defect {defect:.3e}")


def pretty_good_measurement(states: list) -> Povm:
    """The square-root measurement for equally likely density matrices (see ``pgm_effects``)."""
    return Povm(list(pgm_effects(states)))


def pgm_effects(states) -> np.ndarray:
    """The square-root measurement's effects, for one ensemble or a stack of them.

    ``states`` is (..., n, d, d): n equally likely density matrices per
    ensemble.  Effects are S^{-1/2} rho_x S^{-1/2} / n with S the ensemble
    average; the inverse square root is taken on the support of S and the
    kernel remainder is distributed uniformly over the effects so they sum to
    the identity.  Returns the (..., n, d, d) effects.
    """
    states = np.asarray(states)
    n, dim = states.shape[-3], states.shape[-1]
    p = 1.0 / n
    avg = sum(p * states[..., x, :, :] for x in range(n))
    if np.any(np.real(np.trace(avg, axis1=-2, axis2=-1)) <= 0.0):
        raise StructuralError("ensemble average state is zero")
    inv_sqrt, proj = psd_inv_sqrt_support(avg)
    inv_sqrt = inv_sqrt[..., None, :, :]
    remainder = ((np.eye(dim) - proj) / n)[..., None, :, :]
    return hermitize(inv_sqrt @ (p * states) @ inv_sqrt) + remainder


def povm_error_probability(povm: Povm, states: list) -> float:
    """Misidentification probability of equally likely states, effect i guessing state i."""
    p = 1.0 / len(states)
    success = sum(float(p * np.real(np.trace(e @ s))) for e, s in zip(povm.effects, states))
    return float(1.0 - min(1.0, success))


def sequential_measure(effects: list, rho: np.ndarray):
    """Apply sqrt(Pi_i) . sqrt(Pi_i) for each operator in order.

    Returns (survival probability, unnormalized post-state).  Each operator
    must satisfy 0 <= Pi <= I within tolerance.
    """
    post = np.asarray(rho, dtype=complex)
    for pi in effects:
        vals = np.linalg.eigvalsh(hermitize(pi))
        if vals[0] < -PSD_TOL or vals[-1] > 1.0 + PSD_TOL:
            raise StructuralError("sequential-measurement operator is not in [0, I]")
        sq = psd_sqrt(pi)
        post = sq @ post @ sq
    return float(np.real(np.trace(post))), post


def union_bound_rhs(effects: list, rho: np.ndarray) -> float:
    """2 sqrt(r) sqrt(sum_i (1 - Tr(Pi_i rho))) for the sequential chain."""
    r = len(effects)
    missing = sum(max(0.0, 1.0 - float(np.real(np.trace(pi @ rho)))) for pi in effects)
    return float(2.0 * np.sqrt(r) * np.sqrt(missing))

