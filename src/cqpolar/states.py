"""Internal state representations for hybrid channel outputs.

A branch state is either a dense density matrix (ndarray) or a
:class:`PureMixture`, a weighted list of pure vectors.  Mixtures keep the
synthetic-channel recursion cheap: tensor products and coset averages act on
component vectors, and spectra come from small Gram matrices instead of
k^(2^n)-dimensional eigenproblems.  A mixture silently densifies once it has
more components than the ambient dimension, at which point dense is cheaper.
"""

from __future__ import annotations

import numpy as np

from .errors import StructuralError
from .linalg import (
    DEFAULT_TOL,
    Tolerances,
    eigh_psd,
    entropy_of_probs,
    fidelity,
    hermitize,
    von_neumann_entropy,
)


class PureMixture:
    """sum_i w_i |v_i><v_i| with unit vectors stored as rows of ``vecs``."""

    __slots__ = ("weights", "vecs", "_scaled")

    def __init__(self, weights, vecs):
        self.weights = np.asarray(weights, dtype=float)
        self.vecs = np.asarray(vecs, dtype=complex)
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


def pure_state(vec) -> PureMixture:
    v = np.asarray(vec, dtype=complex)
    n = np.linalg.norm(v)
    if n <= 0:
        raise StructuralError("pure state vector must be nonzero")
    return PureMixture(np.array([1.0]), (v / n)[None, :])


def dim_of(state) -> int:
    return state.dim if isinstance(state, PureMixture) else state.shape[0]


def to_dense(state) -> np.ndarray:
    if isinstance(state, PureMixture):
        v = state.scaled_components()
        # rho[a, b] = sum_i w_i v_i[a] conj(v_i[b])
        return v.T @ v.conj()
    return np.asarray(state, dtype=complex)


def _maybe_densify(mix: PureMixture):
    return to_dense(mix) if mix.rank_bound > mix.dim else mix


def tensor_states(a, b):
    """Tensor product; stays a pure mixture when both factors are."""
    if isinstance(a, PureMixture) and isinstance(b, PureMixture):
        w = np.multiply.outer(a.weights, b.weights).reshape(-1)
        v = (a.vecs[:, None, :, None] * b.vecs[None, :, None, :]).reshape(
            a.rank_bound * b.rank_bound, a.dim * b.dim
        )
        return _maybe_densify(PureMixture(w, v))
    return np.kron(to_dense(a), to_dense(b))


def mix_states(weighted):
    """Convex mixture of states given as (weight, state) pairs."""
    weighted = [(w, s) for w, s in weighted if w > 0.0]
    if not weighted:
        raise StructuralError("cannot mix an empty set of states")
    if all(isinstance(s, PureMixture) for _, s in weighted):
        ws = np.concatenate([w * s.weights for w, s in weighted])
        vs = np.vstack([s.vecs for _, s in weighted])
        return _maybe_densify(PureMixture(ws, vs))
    dim = dim_of(weighted[0][1])
    out = np.zeros((dim, dim), dtype=complex)
    for w, s in weighted:
        out += w * to_dense(s)
    return out


def batched_mixture_entropies(mats) -> np.ndarray:
    """Entropies of mixtures given as equal-shape scaled component arrays.

    Uses whichever of the Gram (r x r) or dense (d x d) forms is smaller and
    chunks the batch to bound peak memory.
    """
    r, d = mats[0].shape
    per = max(r, d)
    chunk = max(1, (1 << 22) // (per * min(r, d) + 1))
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


def state_entropy(state, tol: Tolerances = DEFAULT_TOL) -> float:
    """von Neumann entropy in nats; Gram-matrix spectrum for mixtures."""
    if isinstance(state, PureMixture):
        v = state.scaled_components()
        gram = hermitize(v @ v.conj().T)
        vals = np.clip(np.linalg.eigvalsh(gram), 0.0, None)
        return entropy_of_probs(vals)
    return von_neumann_entropy(state, tol)


def spectral_factor(state: np.ndarray, tol: Tolerances = DEFAULT_TOL):
    """(eigenvalues, rows sqrt(lambda_i) v_i^T over lambda_i > 0) of a dense state.

    The rows factor the state as a mixture's scaled components do, so one
    eigendecomposition serves the entropy and every fidelity of the state.
    """
    vals, vecs = eigh_psd(state, tol)
    keep = vals > 0.0
    return vals, (vecs[:, keep] * np.sqrt(vals[keep])).T


def factor_fidelity(va: np.ndarray, vb: np.ndarray) -> float:
    """F(A A†, B B†) = ||A† B||_1 (Uhlmann) for any factors, given as rows A^T, B^T.

    A†B is the ra x rb cross-Gram matrix, independent of the ambient dimension.
    """
    cross = va @ vb.conj().T
    return float(min(1.0, np.linalg.svd(cross, compute_uv=False).sum()))


def state_fidelity(a, b, tol: Tolerances = DEFAULT_TOL) -> float:
    """Fidelity between two states of equal dimension, any representation."""
    if dim_of(a) != dim_of(b):
        raise StructuralError("states live in different dimensions")
    if isinstance(a, PureMixture) and isinstance(b, PureMixture):
        return factor_fidelity(a.scaled_components(), b.scaled_components())
    return fidelity(to_dense(a), to_dense(b), tol)


def state_is_diagonal(state, atol: float = 0.0) -> bool:
    m = to_dense(state)
    if not m.size:
        return True
    off = m - np.diag(np.diag(m))
    return bool(np.max(np.abs(off)) <= atol)
