"""Multiple-access channels as product-group cq channels.

An m-user MAC is a cq channel whose input group is the direct product of the
user groups; every polarization/code/decoder facility applies verbatim.  The
per-subset rates come from the quotient identity
I[S] = I(W) - I(W[G_S]) with G_S the subgroup filling the S coordinates; the
test oracles cross-check it by the direct conditional-information evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations

import numpy as np

from .channel import CqChannel, random_cq_channel
from .config import ResourceCaps, default_caps
from .errors import StructuralError
from .groups import FiniteAbelianGroup, Subgroup
from .linalg import EQ_TOL


def _subset_rate(channel, info: float, gs: Subgroup) -> float:
    """I(W) - I(W[G_S]) given info = I(W); I(W[G]) = 0, so W[G] is never built."""
    if gs.order == channel.q:
        return max(0.0, info)
    return max(0.0, info - channel.quotient(gs).holevo_information())


@dataclass
class MacChannel:
    """A cq-MAC: per-user cyclic factorizations plus the product channel."""

    user_orders: list  # list of per-user cyclic order lists
    channel: CqChannel

    def __post_init__(self):
        flat = [n for orders in self.user_orders for n in orders]
        g = self.channel.alphabet
        if not isinstance(g, FiniteAbelianGroup) or list(g.cyclic_orders) != flat:
            raise StructuralError("channel group is not the product of the user groups")
        self._slices = []
        at = 0
        for orders in self.user_orders:
            self._slices.append(slice(at, at + len(orders)))
            at += len(orders)

    @property
    def num_users(self) -> int:
        return len(self.user_orders)

    @property
    def group(self) -> FiniteAbelianGroup:
        return self.channel.alphabet

    def user_subgroup(self, users) -> Subgroup:
        """G_S: all elements with zero coordinates outside the users in S."""
        users = set(users)
        g = self.group
        idx = []
        for i in range(g.order):
            res = g.label_of(i)
            ok = True
            for u in range(self.num_users):
                if u not in users and any(r != 0 for r in res[self._slices[u]]):
                    ok = False
                    break
            if ok:
                idx.append(i)
        return Subgroup(g, tuple(idx))

    # -- rate quantities ----------------------------------------------------------
    def sum_rate(self) -> float:
        return self.channel.holevo_information()

    def subset_information(self, users, channel: CqChannel = None) -> float:
        """I[S] = I(W) - I(W[G_S]) for the (possibly synthetic) channel."""
        ch = self.channel if channel is None else channel
        if not set(users) <= set(range(self.num_users)):
            raise StructuralError("invalid user subset")
        if not users:
            return 0.0
        return _subset_rate(ch, ch.holevo_information(), self.user_subgroup(users))


@dataclass
class RateRegion:
    """Per-subset upper bounds {S: I[S]} over all subsets of users."""

    num_users: int
    constraints: dict  # frozenset -> float

    def validate(self) -> None:
        if self.constraints.get(frozenset(), 0.0) > EQ_TOL:
            raise StructuralError("the empty subset must have zero rate")
        subsets = list(self.constraints)
        for s in subsets:
            if self.constraints[s] < -EQ_TOL:
                raise StructuralError("rate bounds must be nonnegative")
            for t in subsets:
                if s < t and self.constraints[s] > self.constraints[t] + EQ_TOL:
                    raise StructuralError("rate bounds must be monotone in the subset")

    def bound(self, users) -> float:
        return self.constraints[frozenset(users)]

    def as_json(self) -> dict:
        return {
            "num_users": self.num_users,
            "constraints": {
                ",".join(str(u) for u in sorted(s)) or "~": v
                for s, v in self.constraints.items()
            },
        }


def _subsets(m: int):
    return chain.from_iterable(combinations(range(m), r) for r in range(m + 1))


def region(mac: MacChannel) -> RateRegion:
    """The symmetric (uniform-input) rate region of the MAC."""
    out = {frozenset(s): mac.subset_information(s) for s in _subsets(mac.num_users)}
    reg = RateRegion(mac.num_users, out)
    reg.validate()
    return reg


def polarized_region_estimate(
    mac: MacChannel, n: int, caps: ResourceCaps = None
) -> RateRegion:
    """Finite-n average of the per-subset informations over all branches.

    The sequence of estimates is nonincreasing in n for every subset and is
    reported as such, never as the limit.  Only the G_S quotients the region
    actually needs are computed.
    """
    caps = caps or default_caps()
    from .polarize import iter_synthetic_channels

    subsets = [s for s in _subsets(mac.num_users) if s]
    needed = {frozenset(s): mac.user_subgroup(s) for s in subsets}
    sums = {frozenset(s): 0.0 for s in subsets}
    count = 0
    for _, channel in iter_synthetic_channels(mac.channel, n, caps):
        count += 1
        info = channel.holevo_information()
        for key, gs in needed.items():
            sums[key] += _subset_rate(channel, info, gs)
    out = {frozenset(): 0.0}
    for key, total in sums.items():
        out[key] = total / count
    reg = RateRegion(mac.num_users, out)
    reg.validate()
    return reg


def random_mac(user_orders, k: int, seed, mixed: bool = False) -> MacChannel:
    """A random MAC: product group inputs, Haar-like pure or Wishart outputs."""
    g = FiniteAbelianGroup([n for orders in user_orders for n in orders])
    return MacChannel(user_orders, random_cq_channel(g, k, mixed, np.random.default_rng(seed)))
