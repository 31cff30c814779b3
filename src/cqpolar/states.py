"""Branch states of hybrid channel outputs, always in factored form.

Every branch state is a :class:`PureMixture`, a weighted list of unit
vectors.  The paper's transforms only take tensor products (W^+ keeps u1 as a
classical register) and uniform mixtures (W^- averages over u2), and this form
is closed under both: products multiply weights and take Kronecker products of
the vectors, mixtures concatenate them.  Entropies come from small Gram
matrices and fidelities from cross-Gram matrices of the scaled vectors, so no
k^(2^n)-dimensional state is ever decomposed just to be read.

A mixture whose rows are orthonormal carries ``orthonormal = True``.  Its
weights are then its spectrum (the Gram matrix of its scaled rows is
diag(weights)), so its entropy is read off the weights with no decomposition.
Only the constructors that know the rows are orthonormal set the flag:
:func:`pure_state`, the eigen-factor (of a dense matrix, or of a re-factored
mixture) and :func:`tensor_states` of two flagged factors.  Every other
mixture, a mixture of several states above all, is unflagged.

A dense matrix enters only through :func:`as_mixture`, which replaces it by
its eigen-factor (an exactly diagonal matrix by one-hot rows, without an
eigendecomposition).  A mixture with more vectors than its dimension is
re-factored the same way, so the vector count never exceeds the dimension.
"""

from __future__ import annotations

import numpy as np

from .errors import StructuralError
from .linalg import PSD_TOL, STACK_ENTRIES, eigh_psd, factor_fidelity

_EPS = np.finfo(float).eps


class PureMixture:
    """sum_i w_i |v_i><v_i| with unit vectors stored as rows of ``vecs``."""

    __slots__ = ("weights", "vecs", "orthonormal", "_scaled")

    def __init__(self, weights, vecs):
        self.weights = np.asarray(weights, dtype=float)
        self.vecs = np.asarray(vecs, dtype=complex)
        self.orthonormal = False
        self._scaled = None
        if self.vecs.ndim != 2 or self.weights.shape != (self.vecs.shape[0],):
            raise StructuralError("mixture weights and vectors are inconsistent")

    @property
    def dim(self) -> int:
        return self.vecs.shape[1]

    @property
    def rank_bound(self) -> int:
        return self.vecs.shape[0]

    def scaled_components(self) -> np.ndarray:
        """Rows sqrt(w_i) v_i, so that rho = V† V for the returned V."""
        if self._scaled is None:
            self._scaled = self.vecs * np.sqrt(self.weights)[:, None]
        return self._scaled


def _orthonormal(weights, vecs) -> PureMixture:
    """A mixture whose rows are orthonormal, flagged so."""
    mix = PureMixture(weights, vecs)
    mix.orthonormal = True
    return mix


def pure_state(vec) -> PureMixture:
    v = np.asarray(vec, dtype=complex)
    if not np.isfinite(v).all():
        raise StructuralError("pure state vector must be finite")
    n = np.linalg.norm(v)
    if n <= 0:
        raise StructuralError("pure state vector must be nonzero")
    return _orthonormal(np.array([1.0]), (v / n)[None, :])


def _eigen_factor(mat: np.ndarray) -> PureMixture:
    """A dense state as the mixture of its eigenvectors.

    Eigenvalues at rounding level (at most dim * eps * the largest) are
    dropped, so a numerically rank-1 matrix becomes a pure state.  An exactly
    diagonal matrix keeps its positive diagonal as weights of one-hot rows,
    which reproduces the diagonal bit for bit.
    """
    d = mat.shape[0]
    diag = np.real(np.diag(mat))
    if not np.any(mat - np.diag(diag)):
        if diag.size and diag.min() < -PSD_TOL * max(1.0, float(diag.max())):
            raise StructuralError(f"matrix is not PSD: min eigenvalue {diag.min():.3e}")
        keep = diag > 0.0
        return _orthonormal(diag[keep], np.eye(d, dtype=complex)[keep])
    vals, vecs = eigh_psd(mat)
    keep = vals > d * _EPS * vals[-1]
    return _orthonormal(vals[keep], vecs[:, keep].T)


def as_mixture(state) -> PureMixture:
    """Any branch state (a mixture or a dense matrix) in factored form."""
    if isinstance(state, PureMixture):
        return state
    return _eigen_factor(np.asarray(state, dtype=complex))


def to_dense(state: PureMixture) -> np.ndarray:
    """rho[a, b] = sum_i w_i v_i[a] conj(v_i[b]); exact on one-hot rows."""
    return (state.vecs.T * state.weights) @ state.vecs.conj()


def tensor_states(a: PureMixture, b: PureMixture) -> PureMixture:
    """Tensor product: products of weights, Kronecker products of vectors.

    Kronecker products of two orthonormal row sets are orthonormal, so the
    product of two flagged factors is flagged.
    """
    w = np.multiply.outer(a.weights, b.weights).reshape(-1)
    v = (a.vecs[:, None, :, None] * b.vecs[None, :, None, :]).reshape(
        a.rank_bound * b.rank_bound, a.dim * b.dim
    )
    if a.orthonormal and b.orthonormal:
        return _orthonormal(w, v)
    return PureMixture(w, v)


def mix_states(weighted) -> PureMixture:
    """Convex mixture of states given as (weight, state) pairs."""
    weighted = [(w, s) for w, s in weighted if w > 0.0]
    if not weighted:
        raise StructuralError("cannot mix an empty set of states")
    mix = PureMixture(
        np.concatenate([w * s.weights for w, s in weighted]),
        np.vstack([s.vecs for _, s in weighted]),
    )
    if mix.rank_bound > mix.dim:
        return _eigen_factor(to_dense(mix))
    return mix


def batched_mixture_entropies(mats) -> np.ndarray:
    """Entropies of mixtures given as equal-shape (r, d) scaled component arrays.

    Uses whichever of the Gram (r x r) or dense (d x d) forms is smaller, in
    stacked eigvalsh calls of at most ``STACK_ENTRIES`` component entries.
    """
    r, d = mats[0].shape
    chunk = max(1, STACK_ENTRIES // (r * d))
    out = []
    for i in range(0, len(mats), chunk):
        stacked = np.stack(mats[i : i + chunk])
        if r <= d:
            small = stacked @ stacked.conj().transpose(0, 2, 1)
        else:
            small = stacked.transpose(0, 2, 1) @ stacked.conj()
        vals = np.clip(np.linalg.eigvalsh(small), 0.0, None)
        safe = np.where(vals > 0.0, vals, 1.0)
        out.append(-(vals * np.log(safe)).sum(axis=1))
    return np.concatenate(out)


def state_fidelity(a: PureMixture, b: PureMixture) -> float:
    """Fidelity between two states of equal dimension."""
    if a.dim != b.dim:
        raise StructuralError("states live in different dimensions")
    return float(factor_fidelity(a.scaled_components(), b.scaled_components()))


def state_is_diagonal(state: PureMixture) -> bool:
    m = to_dense(state)
    return not np.any(m - np.diag(np.diag(m)))
