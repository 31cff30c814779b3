"""Table engine for diagonal (classical) channels.

A diagonal cq channel is just a likelihood table P[x, y].  The polarization
transforms then reduce to classical probability-table operations, and output
classes with proportional likelihood columns can be merged without changing
any information or fidelity functional.  Merging is what makes deep scans of
classical channels feasible; alphabets that still explode hit the column cap
and raise a capacity error.  Merge keys are posteriors rounded to an absolute
number of decimals, so the merge is lossless only down to that grain: see
merge_columns.

The fidelity functionals are the same code as the hybrid engine's: both read
one cached pairwise-fidelity matrix, here sqrt(P) sqrt(P)^T.
"""

from __future__ import annotations

import numpy as np

from .channel import (
    CqChannel,
    _frozen,
    _label_key,
    _profile_avg_fidelity,
    _profile_f_max,
    _profile_fd,
    _profile_fd_table,
    _profile_nested_fmax,
)
from .config import ResourceCaps, default_caps
from .errors import StructuralError
from .groups import (
    Coset,
    FiniteAbelianGroup,
    GroupOps,
    PlainAlphabet,
    QuotientGroup,
    Subgroup,
    refine,
)
from .linalg import entropy_of_probs
from .states import to_dense

_MERGE_DECIMALS = 12


class DiagonalChannel:
    """A classical channel P[x, y] over a group-indexed input alphabet."""

    def __init__(self, alphabet: GroupOps, table: np.ndarray, caps: ResourceCaps = None):
        table = np.asarray(table, dtype=float)
        if table.ndim != 2 or table.shape[0] != alphabet.order:
            raise StructuralError("likelihood table must have one row per input")
        if np.any(table < -1e-12):
            raise StructuralError("likelihoods must be nonnegative")
        rows = table.sum(axis=1)
        if np.max(np.abs(rows - 1.0)) > 1e-8:
            raise StructuralError("likelihood rows must sum to 1")
        self.alphabet = alphabet
        self.table = np.clip(table, 0.0, None)
        self.caps = caps or default_caps()
        self._fidelity_matrix = None

    # -- conveniences ---------------------------------------------------------
    @property
    def group(self) -> GroupOps:
        return self.alphabet

    @property
    def q(self) -> int:
        return self.alphabet.order

    @property
    def alphabet_size(self) -> int:
        return self.table.shape[1]

    def _index(self, x) -> int:
        idx = getattr(x, "index", None)
        return int(idx if idx is not None else x)

    # -- functionals -----------------------------------------------------------
    def holevo_information(self) -> float:
        """Mutual information with uniform input, in nats."""
        avg = self.table.mean(axis=0)
        return max(
            0.0,
            entropy_of_probs(avg)
            - float(np.mean([entropy_of_probs(row) for row in self.table])),
        )

    def pairwise_fidelity(self, x, y) -> float:
        return float(self.pairwise_fidelity_matrix()[self._index(x), self._index(y)])

    def pairwise_fidelity_matrix(self) -> np.ndarray:
        """Bhattacharyya coefficients sqrt(P) sqrt(P)^T, clipped to 1; cached."""
        if self._fidelity_matrix is None:
            root = np.sqrt(self.table)
            self._fidelity_matrix = _frozen(np.minimum(root @ root.T, 1.0))
        return self._fidelity_matrix

    fd = _profile_fd
    fd_table = _profile_fd_table
    avg_fidelity = _profile_avg_fidelity
    f_max = _profile_f_max

    # -- transforms --------------------------------------------------------------
    def minus_transform(self) -> "DiagonalChannel":
        """P-(u1; y1 y2) = (1/q) sum_u2 P(u1+u2; y1) P(u2; y2), merged."""
        q, m = self.q, self.alphabet_size
        self.caps.check_columns(m * m, "minus transform joint alphabet")
        tab = self.alphabet.add_table
        # A[u1, u2, y1] = P[u1+u2, y1]
        A = self.table[tab]
        joint = np.einsum("uvy,vz->uyz", A, self.table) / q
        return DiagonalChannel(
            self.alphabet, merge_columns(joint.reshape(q, m * m)), self.caps
        )

    def plus_transform(self) -> "DiagonalChannel":
        """P+(u2; y1 y2 u1) = (1/q) P(u1+u2; y1) P(u2; y2), merged."""
        q, m = self.q, self.alphabet_size
        self.caps.check_columns(q * m * m, "plus transform joint alphabet")
        tab = self.alphabet.add_table
        out = np.empty((q, q, m, m))
        for u1 in range(q):
            # rows tab[u1, u2] give P[u1+u2, y1]
            out[:, u1, :, :] = np.einsum(
                "uy,uz->uyz", self.table[tab[u1]], self.table
            )
        return DiagonalChannel(
            self.alphabet, merge_columns(out.reshape(q, q * m * m) / q), self.caps
        )

    # -- quotients ------------------------------------------------------------------
    def quotient(self, H: Subgroup) -> "DiagonalChannel":
        g = self.alphabet
        if not isinstance(g, FiniteAbelianGroup):
            raise StructuralError("quotient requires a product-group alphabet")
        quot = QuotientGroup(g, H)
        rows = np.stack(
            [self.table[c.member_indices()].mean(axis=0) for c in quot.cosets]
        )
        return DiagonalChannel(quot, merge_columns(rows), self.caps)

    def restricted_quotient(self, M: Subgroup, D: Coset) -> "DiagonalChannel":
        if not M.is_subset_of(D.subgroup):
            raise StructuralError("M must be contained in the subgroup defining D")
        cells = refine(D, M)
        rows = np.stack([self.table[c.member_indices()].mean(axis=0) for c in cells])
        return DiagonalChannel(PlainAlphabet(cells), merge_columns(rows), self.caps)

    nested_fmax = _profile_nested_fmax


def merge_columns(table: np.ndarray) -> np.ndarray:
    """Merge output classes with proportional likelihood columns.

    Proportional columns carry identical posteriors, so pooling them leaves
    every mutual-information and fidelity functional unchanged.  Keys are
    posteriors rounded to _MERGE_DECIMALS (12) decimals, an absolute grain:
    posteriors below 5e-13 round to 0, so columns whose likelihood ratios
    differ can merge.  Merging degrades the channel, so small F_d come out too
    large: along the all-plus path F_1 of BSC(0.11) at depth 6 is 7.8e-11
    against the exact 9.4e-14, and at depth 4 the smallest F_d is 1.6e-2 too
    large (relative) for the q=3 symmetric channel at p=0.1 and 8.2e-2 for
    q=4.  Information moves only by ~4e-14.  A relative key is ROADMAP item 2.
    """
    table = np.asarray(table, dtype=float)
    sums = table.sum(axis=0)
    keep = sums > 0.0
    table, sums = table[:, keep], sums[keep]
    if table.shape[1] == 0:
        raise StructuralError("channel has no outputs with positive probability")
    posteriors = np.round(table / sums, _MERGE_DECIMALS)
    # Stable lexicographic sort by row 0, then row 1, ...: groups come out in
    # the order np.unique(axis=1) gives, and np.add.at sums each group in
    # column order, so merged tables are bit-identical to that formulation.
    # np.add.reduceat would sum pairwise and move the last ulp.
    order = np.lexsort(posteriors[::-1])
    keys = posteriors[:, order]
    starts = np.concatenate(([False], np.any(keys[:, 1:] != keys[:, :-1], axis=0)))
    group = np.cumsum(starts)
    inverse = np.empty_like(order)
    inverse[order] = group
    merged = np.zeros((table.shape[0], int(group[-1]) + 1))
    np.add.at(merged.T, inverse, table.T)
    return merged


def from_cq_channel(W, caps: ResourceCaps = None) -> DiagonalChannel:
    """Flatten a diagonal hybrid channel into a likelihood table."""
    if not isinstance(W, CqChannel) or not W.is_diagonal():
        raise StructuralError("channel is not diagonal")
    labels = W.label_union()
    cols = []
    for lab in labels:
        key = _label_key(lab)
        block = np.zeros((W.q, W.k))
        for x in range(W.q):
            hit = W.outputs[x].as_dict().get(key)
            if hit is not None:
                w, st = hit
                block[x] = w * np.real(np.diag(to_dense(st)))
        cols.append(block)
    table = np.concatenate(cols, axis=1)
    return DiagonalChannel(W.alphabet, merge_columns(table), caps)
