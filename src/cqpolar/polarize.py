"""Arıkan-style +/- transforms, synthetic channels and polarization scans.

Branch labels are tuples over {"-", "+"}; the first coordinate is the first
transform applied.  The decode order sorts labels with the *last* coordinate
most significant, so the decode position of a label is the integer whose
bit i is the sign at coordinate i.

Two engines build synthetic channels: the hybrid engine (CqChannel) and the
table engine (DiagonalChannel, for classical channels).  One routing rule
joins them: the scans, the synthetic-channel iterator and process_sample
send a diagonal CqChannel to the table engine once, at the start.  The
transforms and synthesize stay in the engine of the channel they are given.
Both engines check the caps passed to each transform.

A hybrid child carries rules that read its values off a relative (see
:class:`~.channel.CqChannel`), as entropy adds and fidelity multiplies over
tensor products: H(avg W^-) = 2 H(avg W); W^+(x) being a uniform u1 register
times rho_{u1+x} ⊗ rho_x, H(W^+|X) = log q + 2 H(W|X) and F_{W^+}(x, y) =
F_W(x, y) F_{y-x}(W); and, a full quotient's average output being W's,
H(avg W[H]) = H(avg W).  The table engine has no rules, as its shifted
tables' matrix entries are not the channel's (see :mod:`.diagonal`).

The scans and process_sample build both children of a parent by
:func:`children`: W^- groups the q^2 pair products rho_{u1+u2} ⊗ rho_{u2} by
u1 and W^+ relabels them by u2, so it builds them once for both.  It adds one
rule: the block of avg W^+ under register u1 is W^-(u1)/q, so
H(avg W^+) = log q + H(W^-|X) is read off the minus sibling.  The decoder
and the checks build one child at a time.
"""

from __future__ import annotations

import itertools
import numbers
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .channel import (
    CqChannel,
    HybridState,
    _label_groups,
    _mixed_hybrids,
    _require_product_group,
)
from .config import ResourceCaps, default_caps
from .diagonal import DiagonalChannel, from_cq_channel
from .errors import CapacityError, StructuralError
from .groups import Subgroup, enumerate_subgroups
from .states import tensor_states

MINUS, PLUS = "-", "+"

BranchLabel = tuple


def label_from_index(i: int, n: int) -> BranchLabel:
    """Label of the i-th branch in decode order (bit j of i = coordinate j)."""
    return tuple(PLUS if (i >> j) & 1 else MINUS for j in range(n))


def decode_index(label: BranchLabel) -> int:
    """Position in the decode order: last coordinate most significant."""
    return sum(1 << j for j, s in enumerate(label) if s == PLUS)


def _depth(n) -> int:
    """``n`` if it is a depth, an integer >= 0; a StructuralError names any other value."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise StructuralError(f"depth n must be an integer, got {n!r}")
    if n < 0:
        raise StructuralError(f"depth n must be >= 0, got {n}")
    return int(n)


def branch_order(n: int) -> list:
    """All 2^n labels sorted ascending in the decode order."""
    n = _depth(n)
    return [label_from_index(i, n) for i in range(1 << n)]


def reverse_label(label: BranchLabel) -> BranchLabel:
    return tuple(reversed(label))


def format_label(label: BranchLabel) -> str:
    return "".join(label) if label else "~"


def parse_label(text: str) -> BranchLabel:
    if text == "~":
        return ()
    if any(c not in (MINUS, PLUS) for c in text):
        raise StructuralError(f"bad branch label {text!r}")
    return tuple(text)


# -- transforms -------------------------------------------------------------------


def _pair_branches(W, u1: int, u2: int, pos: dict):
    """The branches (weight, (i1, i2), rho_{u1+u2} ⊗ rho_{u2}) of one input pair.

    Labels are recompressed to positions in the parent's label union, which
    keeps label size constant under repeated transforms.
    """
    q, left = W.q, W.outputs[W.alphabet.add_index(u1, u2)]
    right = [(w2, pos[l2], s2) for w2, l2, s2 in W.outputs[u2].branches]
    for w1, l1, s1 in left.branches:
        i1 = pos[l1]
        for w2, i2, s2 in right:
            w = w1 * w2 / q
            if w > 0.0:
                yield w, (i1, i2), tensor_states(s1, s2)


def _pair_products(W):
    """The rows u1 of pairs[u1][u2], the branches of input pair (u1, u2), built
    one at a time."""
    pos = W.label_positions()
    return ([list(_pair_branches(W, u1, u2, pos)) for u2 in range(W.q)] for u1 in range(W.q))


def minus_transform(W, caps: ResourceCaps = None, pairs: list = None):
    """The worse channel of the pair: u1 -> average over u2 of
    rho_{u1+u2} ⊗ rho_{u2}.  ``pairs`` are the rows of pair products that
    :func:`children` built for both siblings; without them each row is built
    and mixed in turn.  A row's label count is checked before it mixes."""
    if isinstance(W, DiagonalChannel):
        return W.minus_transform(caps)
    caps = caps or default_caps()
    caps.check_dim(W.k * W.k, "minus transform")

    def grouped(row):
        groups = _label_groups(itertools.chain.from_iterable(row))
        caps.check_branches(len(groups), "minus transform")
        return groups

    outputs = _mixed_hybrids(map(grouped, pairs or _pair_products(W)))
    return CqChannel(W.alphabet, outputs, rules={
        "avg_entropy": lambda: 2.0 * W.average_output_entropy(),
    })


def plus_transform(W, caps: ResourceCaps = None, pairs: list = None):
    """The better channel: u2 -> rho_{u1+u2} ⊗ rho_{u2} with u1 revealed as a
    classical register (a new label coordinate of weight 1/q).  ``pairs`` as
    for :func:`minus_transform`."""
    if isinstance(W, DiagonalChannel):
        return W.plus_transform(caps)
    caps = caps or default_caps()
    caps.check_dim(W.k * W.k, "plus transform")
    pairs = pairs or list(_pair_products(W))
    outputs = []
    for u2 in range(W.q):
        branches = [(w, lab + (u1,), st) for u1, row in enumerate(pairs) for w, lab, st in row[u2]]
        caps.check_branches(len(branches), "plus transform")
        outputs.append(HybridState(branches))
    log_q = float(np.log(W.q))
    return CqChannel(W.alphabet, outputs, rules={
        "cond_entropy": lambda: log_q + 2.0 * W.conditional_output_entropy(),
        "fidelity_matrix": lambda: _plus_fidelity_matrix(W),
    })


def _plus_fidelity_matrix(W) -> np.ndarray:
    """F_{W^+}(x, y) = F_W(x, y) F_{y-x}(W) on the upper triangle, mirrored."""
    fd = np.array([W.fd(d) for d in range(W.q)])
    diff = W.alphabet.add_table[W.alphabet.neg_table]  # diff[x, y] = y - x
    upper = np.triu(W.pairwise_fidelity_matrix() * fd[diff], 1)
    return upper + upper.T


@contextmanager
def _naming(signs: BranchLabel):
    """A capacity error raised inside names the branch W^signs and its depth."""
    try:
        yield
    except CapacityError as exc:
        raise CapacityError(
            f"branch {format_label(signs)} at depth {len(signs)}: {exc}"
        ) from exc


def _child(W, signs: BranchLabel, caps: ResourceCaps, pairs: list = None):
    """W^signs from its parent W; a capacity error names the branch and its depth."""
    transform = minus_transform if signs[-1] == MINUS else plus_transform
    with _naming(signs):
        return transform(W, caps, pairs)


def children(W, caps: ResourceCaps = None, signs: BranchLabel = ()):
    """(W^-, W^+) of W = W^signs; a capacity error names the child and its depth.

    In the hybrid engine both siblings are built from one set of pair
    products, and W^+ reads H(avg W^+) = log q + H(W^-|X) off its minus
    sibling.  W^+ is built first.  It mixes nothing, and its largest branch
    count bounds every label count of W^-, so both caps are checked before
    W^- mixes.  The dimension, the same for both, is checked once first, for
    W^-.  The table engine builds the two children with its own transforms.
    """
    caps = caps or default_caps()
    minus_signs, plus_signs = signs + (MINUS,), signs + (PLUS,)
    if isinstance(W, DiagonalChannel):
        return _child(W, minus_signs, caps), _child(W, plus_signs, caps)
    with _naming(minus_signs):
        caps.check_dim(W.k * W.k, "minus transform")
    pairs = list(_pair_products(W))
    plus = _child(W, plus_signs, caps, pairs)
    minus = _child(W, minus_signs, caps, pairs)
    log_q = float(np.log(W.q))
    plus._rules["avg_entropy"] = lambda: log_q + minus.conditional_output_entropy()
    return minus, plus


def synthesize(W, signs: BranchLabel, caps: ResourceCaps = None):
    """W^s: apply the sign transforms left to right; empty signs returns W."""
    for sign in signs:
        if sign not in (MINUS, PLUS):
            raise StructuralError(f"bad sign {sign!r} in {signs!r}: want {MINUS!r} or {PLUS!r}")
    caps = caps or default_caps()
    out = W
    for depth in range(1, len(signs) + 1):
        out = _child(out, tuple(signs[:depth]), caps)
    return out


# -- scan records -----------------------------------------------------------------


@dataclass
class PolarizationRecord:
    """Evidence record for one synthetic channel W^s.

    The quotients by the trivial subgroups are exact by definition, so no
    quotient channel is built for them: W^s[{0}] is W^s itself (its I and F),
    and W^s[G] has a single input, so its I and F are 0.
    """

    branch: BranchLabel
    I: float
    fd: dict  # element index -> F_d
    f: float
    fmax: float
    quot_I: dict = field(default_factory=dict)  # Subgroup -> I(W^s[H])
    quot_F: dict = field(default_factory=dict)  # Subgroup -> F(W^s[H])
    best_H: Subgroup = None

    def objective(self, H: Subgroup, log_quot: float) -> float:
        return abs(self.I - log_quot) + abs(self.quot_I[H] - log_quot)

    def best_subgroup(self, candidates, q: int) -> Subgroup:
        """The candidate of least objective, ties to larger |H|, then to the
        lexicographically smaller element set; None if there are none."""
        return min(
            candidates,
            key=lambda H: (self.objective(H, np.log(q / H.order)), -H.order, H.indices),
            default=None,
        )


def make_record(channel, branch: BranchLabel, subgroups) -> PolarizationRecord:
    rec = PolarizationRecord(
        branch=branch,
        I=channel.holevo_information(),
        fd=channel.fd_table(),
        f=channel.avg_fidelity(),
        fmax=channel.f_max(),
    )
    for H in subgroups:
        if H.order == 1:
            rec.quot_I[H], rec.quot_F[H] = rec.I, rec.f
        elif H.order == channel.q:
            rec.quot_I[H], rec.quot_F[H] = 0.0, 0.0
        else:
            quot = channel.quotient(H)
            rec.quot_I[H] = quot.holevo_information()
            rec.quot_F[H] = quot.avg_fidelity()
    rec.best_H = rec.best_subgroup(rec.quot_I, channel.q)
    return rec


def iter_synthetic_channels(W, n: int, caps: ResourceCaps = None):
    """Depth-first generator of (signs, W^signs) over all depth-n branches.

    A bad depth is refused here, when it is called, before any transform.
    """
    n = _depth(n)
    caps = caps or default_caps()

    def rec(channel, signs):
        if len(signs) == n:
            yield signs, channel
            return
        siblings = list(children(channel, caps, signs))
        for sign in (MINUS, PLUS):  # each sibling is held only while its subtree runs
            yield from rec(siblings.pop(0), signs + (sign,))

    return rec(_routed(W), ())


def polarization_scan(W, n: int, caps: ResourceCaps = None):
    """Records for all 2^n synthetic channels, in decode order."""
    subgroups = enumerate_subgroups(_require_product_group(W))
    records = {
        signs: make_record(channel, signs, subgroups)
        for signs, channel in iter_synthetic_channels(W, n, caps)
    }
    return [records[s] for s in branch_order(n)]


def _routed(W):
    """The table engine for a diagonal CqChannel; any other channel as it is."""
    if isinstance(W, CqChannel) and W.is_diagonal():
        return from_cq_channel(W)
    return W


# -- random polarization process ----------------------------------------------------


@dataclass
class PathRecord:
    """One uniformly random sign path with both children recorded per step."""

    signs: BranchLabel
    I: list  # I at depth 0..n
    fmax: list
    child_I: list  # per step: (I minus child, I plus child)
    child_fmax: list
    quot_child_I: list  # per step: {Subgroup: (parent, minus, plus)}


def process_sample(
    W, n: int, trials: int, seed: int, caps: ResourceCaps = None, subgroups=()
):
    """Sample uniformly random polarization paths.

    Each step synthesizes both children, so the per-step martingale and
    sub-martingale quantities are exact; only the path is random.
    """
    n = _depth(n)
    caps = caps or default_caps()
    base = _routed(W)
    base_quot_I = {H: base.quotient(H).holevo_information() for H in subgroups}
    paths = []
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        channel, quot_I = base, base_quot_I
        record = PathRecord(
            signs=(),
            I=[channel.holevo_information()],
            fmax=[channel.f_max()],
            child_I=[],
            child_fmax=[],
            quot_child_I=[],
        )
        for _ in range(n):
            pair = children(channel, caps, record.signs)
            record.child_I.append(tuple(c.holevo_information() for c in pair))
            record.child_fmax.append(tuple(c.f_max() for c in pair))
            kids_I = {H: tuple(c.quotient(H).holevo_information() for c in pair) for H in subgroups}
            if subgroups:
                record.quot_child_I.append({H: (quot_I[H],) + kids_I[H] for H in subgroups})
            side = int(rng.integers(2))  # 1: the plus child
            channel = pair[side]
            quot_I = {H: kids_I[H][side] for H in subgroups}  # the chosen child's, reused
            record.signs = record.signs + ((MINUS, PLUS)[side],)
            record.I.append(record.child_I[-1][side])
            record.fmax.append(record.child_fmax[-1][side])
        paths.append(record)
    return paths
