"""Table engine for diagonal (classical) channels.

A diagonal cq channel is just a likelihood table P[x, y].  The polarization
transforms then reduce to classical probability-table operations, and output
classes with proportional likelihood columns can be merged without changing
any information or fidelity functional.  Merging is what makes deep scans of
classical channels feasible; alphabets that still explode hit the column cap
and raise a capacity error.

Columns are also merged when they agree up to a group shift.  Inputs are
uniform over an Abelian group, so permuting one column's rows by x -> x + g_y
changes no functional the engine reports, and both transforms commute with
such shifts: the minus transform of columns y1, y2 shifted by g1, g2 is
column (y1, y2) of W^- shifted by g1 - g2, and the plus transform's is column
(y1, y2, u1 + g1 - g2) of W^+ shifted by g2.  So each transform rotates every
joint column so that its first argmax row comes first, and merge_columns then
pools columns proportional after rotation.  The base table, from
from_cq_channel, is never rotated; the decoder reads only that one.

Contract: a synthetic table is therefore a likelihood table *up to per-column
group shifts*.  Its rows need not sum to 1 (the total mass is still q), and
the entries of pairwise_fidelity(x, y) are not the channel's.  Only
shift-invariant functionals are: I, every F_d, the average fidelity F,
f_max, nested_fmax and quotient (a shift permutes the cosets of H, so the
quotient is the true quotient up to a shift of its own columns).

merge_columns groups columns by an exact key, the posteriors rounded to an
absolute number of decimals.  It sorts the columns by a 64-bit hash of their
keys, so equal keys sit next to each other, and sorts only one column per run
lexicographically to number the groups.  Equal keys in different runs meet
in that second sort, so the hash decides only how fast the merge is, never
which columns merge.  The absolute grain makes the merge lossless only down
to 5e-13 in posterior: see merge_columns.

The fidelity functionals and the quotients are the same code as the hybrid
engine's: the functionals read one cached pairwise-fidelity matrix, here
sqrt(P) sqrt(P)^T, and the quotients average rows over coset cells.  A
channel holds no resource caps: the transforms check the caps passed to
each call, as the hybrid transforms do.
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
    _profile_index,
    _profile_nested_fmax,
    _profile_quotient,
)
from .config import ResourceCaps, default_caps
from .errors import StructuralError
from .groups import GroupOps
from .linalg import LIKELIHOOD_NEG_TOL, LIKELIHOOD_SUM_TOL, entropy_of_probs
from .states import to_dense

_MERGE_DECIMALS = 12
# Odd 64-bit multiplier (2^64 / golden ratio) for _column_hash.
_HASH_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)


class DiagonalChannel:
    """A classical channel P[x, y] over a group-indexed input alphabet.

    A table passed in must be row-stochastic.  The transforms and quotients
    build theirs with ``shifted=True``: such a table is a likelihood table up
    to a group shift of each column's rows (see the module docstring), so only
    its total mass, q, is checked, and only shift-invariant functionals belong
    to the channel.
    """

    def __init__(self, alphabet: GroupOps, table: np.ndarray, *, shifted: bool = False):
        table = np.asarray(table, dtype=float)
        if table.ndim != 2 or table.shape[0] != alphabet.order:
            raise StructuralError("likelihood table must have one row per input")
        if np.any(table < -LIKELIHOOD_NEG_TOL):
            raise StructuralError("likelihoods must be nonnegative")
        if shifted:
            if abs(table.sum() - alphabet.order) > LIKELIHOOD_SUM_TOL * alphabet.order:
                raise StructuralError("likelihood table must hold total mass q (one per input)")
        elif np.max(np.abs(table.sum(axis=1) - 1.0)) > LIKELIHOOD_SUM_TOL:
            at = int(np.argmax(np.abs(table.sum(axis=1) - 1.0)))
            raise StructuralError(f"likelihood rows must sum to 1: input {alphabet.label_of(at)} "
                                  f"sums to {float(table[at].sum())!r}")
        self.alphabet = alphabet
        self.table = np.clip(table, 0.0, None)
        self._fidelity_matrix = None

    # -- conveniences ---------------------------------------------------------
    @property
    def q(self) -> int:
        return self.alphabet.order

    @property
    def alphabet_size(self) -> int:
        return self.table.shape[1]

    _index = _profile_index

    # -- functionals -----------------------------------------------------------
    def holevo_information(self) -> float:
        """Mutual information with uniform input, in nats.

        Shift-invariant: the output distribution is the column sums, and the
        row entropies enter only through their sum, which is a sum over all
        entries, unchanged by permuting the entries within a column.
        """
        avg = self.table.mean(axis=0)
        return max(
            0.0,
            entropy_of_probs(avg)
            - float(np.mean([entropy_of_probs(row) for row in self.table])),
        )

    def pairwise_fidelity(self, x, y) -> float:
        return float(self.pairwise_fidelity_matrix()[self._index(x), self._index(y)])

    def pairwise_fidelity_matrix(self) -> np.ndarray:
        """Bhattacharyya coefficients sqrt(P) sqrt(P)^T, with diagonal 1; cached.

        Of a shifted table only the shift-invariant sums of entries are the
        channel's (F_d sums the d-th diagonal).  Single entries can exceed 1,
        so they are not clipped: clipping would change those sums.
        """
        if self._fidelity_matrix is None:
            root = np.sqrt(self.table)
            self._fidelity_matrix = _frozen(root @ root.T)
        return self._fidelity_matrix

    fd = _profile_fd
    fd_table = _profile_fd_table
    avg_fidelity = _profile_avg_fidelity
    f_max = _profile_f_max

    # -- transforms --------------------------------------------------------------
    def minus_transform(self, caps: ResourceCaps = None) -> "DiagonalChannel":
        """P-(u1; y1 y2) = (1/q) sum_u2 P(u1+u2; y1) P(u2; y2), rotated, merged."""
        return self._transform("minus", self.alphabet_size**2, "uvy,vz->uyz", caps)

    def plus_transform(self, caps: ResourceCaps = None) -> "DiagonalChannel":
        """P+(u2; y1 y2 u1) = (1/q) P(u1+u2; y1) P(u2; y2), rotated, merged."""
        return self._transform("plus", self.q * self.alphabet_size**2, "uvy,uz->uvyz", caps)

    def _transform(self, name: str, columns: int, spec: str, caps) -> "DiagonalChannel":
        """(1/q) einsum(spec, A, P) with A[u, v, y] = P[u+v, y], rotated and merged."""
        (caps or default_caps()).check_columns(columns, f"{name} transform joint alphabet")
        joint = np.einsum(spec, self.table[self.alphabet.add_table], self.table)
        joint /= self.q
        joint = self._shift_canonical(joint.reshape(self.q, columns))
        return DiagonalChannel(self.alphabet, merge_columns(joint), shifted=True)

    def _shift_canonical(self, table: np.ndarray) -> np.ndarray:
        """Rotate each column by a group shift so its first argmax row comes first."""
        shifts = self.alphabet.add_table[:, np.argmax(table, axis=0)]
        return np.take_along_axis(table, shifts, axis=0)

    # -- quotients ------------------------------------------------------------------
    def _average_cells(self, alphabet: GroupOps, cells) -> "DiagonalChannel":
        """The channel over ``alphabet`` whose row i averages the rows in cells[i]."""
        rows = self.table[np.array(cells)].mean(axis=1)
        return DiagonalChannel(alphabet, merge_columns(rows), shifted=True)

    quotient = _profile_quotient
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

    Grouping: one argsort of _column_hash brings columns with bit-equal keys
    together, and a run of equal keys ends wherever a key differs from the
    one before.  A lexicographic sort of one representative per run numbers
    the groups in np.unique(axis=1) order, and adjacent representatives with
    equal keys share a group.  A hash collision, or keys equal but not
    bit-equal (-0.0 and 0.0), can only split a run, and the second sort joins
    the pieces again, so the hash affects speed alone.  np.bincount sums each
    group in column order, so merged tables are bit-identical to np.unique
    grouping with np.add.at; np.add.reduceat would sum pairwise and move the
    last ulp.
    """
    table = np.asarray(table, dtype=float)
    sums = table.sum(axis=0)
    keep = sums > 0.0
    # Copy only when some column has no mass.  np.compress and np.take gather
    # columns several times faster than boolean or fancy indexing on axis 1.
    if not keep.all():
        table, sums = np.compress(keep, table, axis=1), sums[keep]
    if table.shape[1] == 0:
        raise StructuralError("channel has no outputs with positive probability")
    keys = table / sums
    np.round(keys, _MERGE_DECIMALS, out=keys)
    order = np.argsort(_column_hash(keys))
    keys = np.take(keys, order, axis=1)  # rebinding frees the unsorted keys
    starts = _run_starts(keys)
    reps = np.compress(starts, keys, axis=1)
    rep_order = np.lexsort(reps[::-1])
    group = np.empty_like(rep_order)
    group[rep_order] = np.cumsum(_run_starts(np.take(reps, rep_order, axis=1))) - 1
    inverse = np.empty_like(order)
    inverse[order] = group[np.cumsum(starts) - 1]
    groups = int(group.max()) + 1
    return np.stack([np.bincount(inverse, weights=row, minlength=groups) for row in table])


def _column_hash(keys: np.ndarray) -> np.ndarray:
    """One uint64 per column of a (q, M) float64 array, from its bits (wrapping)."""
    bits = keys.view(np.uint64)
    h = bits[0] * _HASH_MULTIPLIER
    for row in bits[1:]:
        h ^= row
        h *= _HASH_MULTIPLIER
    return h


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """True at column 0 and wherever a column differs from the one before it."""
    starts = np.empty(keys.shape[1], dtype=bool)
    starts[0] = True
    np.any(keys[:, 1:] != keys[:, :-1], axis=0, out=starts[1:])
    return starts


def from_cq_channel(W) -> DiagonalChannel:
    """Flatten a diagonal hybrid channel into a likelihood table."""
    if not isinstance(W, CqChannel) or not W.is_diagonal():
        raise StructuralError("channel is not diagonal")
    pos, k = W.label_positions(), W.k
    table = np.zeros((W.q, len(pos) * k))
    for x, h in enumerate(W.outputs):
        for w, lab, st in h.branches:
            j = pos[_label_key(lab)]
            table[x, j * k : (j + 1) * k] = w * np.real(np.diag(to_dense(st)))
    return DiagonalChannel(W.alphabet, merge_columns(table))
