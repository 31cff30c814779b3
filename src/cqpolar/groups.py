"""Finite Abelian groups, subgroups, quotients, cosets and section mappings.

Groups are direct products of cyclic groups ``Z_{n1} x ... x Z_{nk}``; by the
structure theorem this covers every finite Abelian group, with the caller
supplying the factorization.  Elements are canonical residue vectors, indexed
lexicographically so that everything downstream (channels, codes) can work
with plain integer indices and small tables.  Each group's addition and
negation tables and each subgroup's coset partition are built once per value
here, and every other layer reads them: quotients, refinements and section
mappings are index tables over the partition, with no invariant factors.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cache, cached_property
from types import MappingProxyType
from typing import Iterable, Sequence

import numpy as np

from .errors import CapacityError, StructuralError

#: Largest group order for which exhaustive subgroup enumeration is allowed.
DEFAULT_ORDER_CAP = 64


class GroupOps:
    """Minimal index-level interface shared by product groups and quotients.

    Elements are the indices ``0..order-1``; index ``0`` is the identity.  The
    operations read the read-only ``add_table`` (q x q Cayley table) and
    ``neg_table`` (q,) that each group supplies.
    """

    order: int
    add_table: np.ndarray
    neg_table: np.ndarray

    def add_index(self, i: int, j: int) -> int:
        return int(self.add_table[i, j])

    def neg_index(self, i: int) -> int:
        return int(self.neg_table[i])

    def label_of(self, i: int):
        """Human-readable label of element ``i`` (residue tuple or coset)."""
        raise NotImplementedError


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


# Group tables and coset partitions are cached by value, not per object: the
# checks build thousands of equal groups and subgroups.
@cache
def _residue_index(orders: tuple) -> tuple:
    """Residue tuples in lexicographic index order, their index map and (q, k) array."""
    residues = list(itertools.product(*(range(n) for n in orders)))
    array = np.array(residues, dtype=np.int64).reshape(-1, len(orders))
    return residues, {r: i for i, r in enumerate(residues)}, _read_only(array)


def _indices_of(orders: tuple, res: np.ndarray) -> np.ndarray:
    """Element indices of integer residue vectors (last axis), reduced mod the orders."""
    strides = [math.prod(orders[k + 1 :]) for k in range(len(orders))]
    return (res % np.array(orders)) @ np.array(strides)


def _sums(orders: tuple, cols) -> np.ndarray:
    """The (q, len(cols)) table of x + y for every element x and y in ``cols``."""
    res = _residue_index(orders)[2]
    return _indices_of(orders, res[:, None, :] + res[None, cols, :])


@cache
def _operation_tables(orders: tuple) -> tuple:
    """The q x q addition and the (q,) negation table."""
    neg = _indices_of(orders, -_residue_index(orders)[2])
    return _read_only(_sums(orders, slice(None))), _read_only(neg)


@cache
def _coset_partition(orders: tuple, indices: tuple) -> tuple:
    # row x is the coset x + H, so no q x q table is needed
    shifted = _sums(orders, list(indices))
    reps, coset_of = np.unique(shifted.min(axis=1), return_inverse=True)
    members = np.sort(shifted[reps], axis=1)
    return tuple(map(tuple, members.tolist())), tuple(coset_of.tolist())


@dataclass(frozen=True)
class GroupElement:
    """An element of a :class:`FiniteAbelianGroup`, as a canonical residue vector."""

    group: "FiniteAbelianGroup"
    residues: tuple[int, ...]

    def __post_init__(self):
        if len(self.residues) != len(self.group.cyclic_orders):
            raise StructuralError("residue vector length does not match the group")
        for r, n in zip(self.residues, self.group.cyclic_orders):
            if not 0 <= r < n:
                raise StructuralError(f"residue {r} out of range for Z_{n}")

    @property
    def index(self) -> int:
        return self.group.index_of_residues(self.residues)

    def __add__(self, other: "GroupElement") -> "GroupElement":
        return add(self, other)

    def __neg__(self) -> "GroupElement":
        return self.group.element_by_index(self.group.neg_index(self.index))

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        return add(self, -other)

    def __lt__(self, other: "GroupElement") -> bool:
        return self.residues < other.residues

    def __repr__(self) -> str:
        return "(" + ",".join(str(r) for r in self.residues) + ")"


class FiniteAbelianGroup(GroupOps):
    """``Z_{n1} x ... x Z_{nk}`` with componentwise modular addition.

    Parameters
    ----------
    cyclic_orders : sequence of int
        Orders of the cyclic factors, each >= 1.
    """

    def __init__(self, cyclic_orders: Sequence[int]):
        orders = tuple(int(n) for n in cyclic_orders)
        if not orders:
            orders = (1,)
        if any(n < 1 for n in orders):
            raise StructuralError("cyclic factor orders must be >= 1")
        self.cyclic_orders = orders
        self.order = math.prod(orders)
        self._residues, self._index, _ = _residue_index(orders)

    # built on first use: a group read from a file is validated before any q x q table
    @cached_property
    def add_table(self) -> np.ndarray:
        return _operation_tables(self.cyclic_orders)[0]

    @cached_property
    def neg_table(self) -> np.ndarray:
        return _operation_tables(self.cyclic_orders)[1]

    # -- identity / equality -------------------------------------------------
    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteAbelianGroup) and other.cyclic_orders == self.cyclic_orders

    def __hash__(self) -> int:
        return hash(("FiniteAbelianGroup", self.cyclic_orders))

    def __repr__(self) -> str:
        return "x".join(f"Z{n}" for n in self.cyclic_orders)

    # -- element construction --------------------------------------------------
    def element(self, residues: Iterable[int]) -> GroupElement:
        residues = tuple(residues)
        if len(residues) != len(self.cyclic_orders):
            raise StructuralError("residue vector length does not match the group")
        return GroupElement(self, tuple(int(r) % n for r, n in zip(residues, self.cyclic_orders)))

    def zero(self) -> GroupElement:
        return GroupElement(self, (0,) * len(self.cyclic_orders))

    def element_by_index(self, i: int) -> GroupElement:
        return GroupElement(self, self._residues[i])

    def index_of_residues(self, residues: tuple[int, ...]) -> int:
        return self._index[residues]

    def label_of(self, i: int):
        return self._residues[i]


@dataclass(frozen=True)
class Subgroup:
    """A subgroup stored as an explicit, canonically sorted element-index set."""

    parent: FiniteAbelianGroup
    indices: tuple[int, ...]  # sorted

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(sorted(set(self.indices))))
        if 0 not in self.indices:
            raise StructuralError("a subgroup must contain the identity")
        if self.indices[0] < 0 or self.indices[-1] >= self.parent.order:
            raise StructuralError("subgroup element index out of range")
        if self.parent.order % len(self.indices) != 0:
            raise StructuralError("subgroup size does not divide the group order")

    @property
    def order(self) -> int:
        return len(self.indices)

    def contains_index(self, i: int) -> bool:
        return i in self._index_set

    @cached_property
    def _index_set(self) -> frozenset:
        return frozenset(self.indices)

    @cached_property
    def partition(self) -> tuple:
        """The parent's cosets of this subgroup as ``(members, coset_of)``.

        ``members[c]`` is the sorted tuple of the element indices of coset c,
        cosets in order of their smallest member (the representative), and
        ``coset_of[i]`` is the coset holding element i.  This is the one place
        a group is partitioned; it is built once per subgroup value.
        """
        return _coset_partition(self.parent.cyclic_orders, self.indices)

    @cached_property
    def cosets(self) -> tuple:
        """The cosets of this subgroup in its parent, in ``partition`` order; cached."""
        return tuple(Coset(self, row[0]) for row in self.partition[0])

    def is_subset_of(self, other: "Subgroup") -> bool:
        return self._index_set <= other._index_set

    def validate_closure(self) -> None:
        # one member at a time over the residues: memory O(|H|) for any parent
        orders = self.parent.cyclic_orders
        res = _residue_index(orders)[2][list(self.indices)]
        if not self._index_set.issuperset(_indices_of(orders, -res).tolist()):
            raise StructuralError("subgroup not closed under negation")
        for r in res:
            if not self._index_set.issuperset(_indices_of(orders, r + res).tolist()):
                raise StructuralError("subgroup not closed under addition")

    def __repr__(self) -> str:
        return "{" + ",".join(repr(self.parent.element_by_index(i)) for i in self.indices) + "}"


def add(a: GroupElement, b: GroupElement) -> GroupElement:
    """Componentwise modular sum of two elements of the same group."""
    if a.group != b.group:
        raise StructuralError("elements belong to different groups")
    return a.group.element_by_index(a.group.add_index(a.index, b.index))


def generated_subgroup(d: GroupElement) -> Subgroup:
    """The cyclic subgroup {0, d, 2d, ...} generated by ``d``."""
    g = d.group
    idx, members = d.index, [0]
    cur = idx
    while cur != 0:
        members.append(cur)
        cur = g.add_index(cur, idx)
    return Subgroup(g, tuple(members))


def enumerate_subgroups(G: FiniteAbelianGroup) -> list[Subgroup]:
    """All subgroups of ``G``, sorted by order then lexicographic element set.

    Exhaustive closure enumeration; refuses groups larger than ``DEFAULT_ORDER_CAP``.
    """
    return subgroups_of(Subgroup(G, tuple(range(G.order))))


def _extend_subgroup(G: GroupOps, sub: frozenset, g: int) -> frozenset:
    # closure of sub ∪ {g}: union of the cosets sub + k*g
    members = set(sub)
    shift = g
    while shift not in members:
        members.update(G.add_index(h, shift) for h in sub)
        shift = G.add_index(shift, g)
    return frozenset(members)


def subgroups_of(H: Subgroup) -> list[Subgroup]:
    """All subgroups of ``G`` contained in ``H`` (as subgroups of the parent)."""
    if H.order > DEFAULT_ORDER_CAP:
        raise CapacityError(
            f"subgroup enumeration capped at order {DEFAULT_ORDER_CAP}, got {H.order}"
        )
    G = H.parent
    found = {frozenset({0})}
    frontier = [frozenset({0})]
    allowed = H._index_set
    while frontier:
        nxt = []
        for sub in frontier:
            for g in allowed - sub:
                new = _extend_subgroup(G, sub, g)
                if new not in found:
                    found.add(new)
                    nxt.append(new)
        frontier = nxt
    subs = [Subgroup(G, tuple(s)) for s in found]
    subs.sort(key=lambda h: (h.order, h.indices))
    return subs


def maximal_subgroups(H: Subgroup) -> list[Subgroup]:
    """All subgroups M of H with prime index |H|/|M| (empty for trivial H)."""
    if H.order == 1:
        return []
    return [M for M in subgroups_of(H) if _is_prime(H.order // M.order)]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % p for p in range(2, int(n**0.5) + 1))


@dataclass(frozen=True)
class Coset:
    """A coset of a subgroup, identified by its minimal (canonical) representative."""

    subgroup: Subgroup
    rep_index: int

    @staticmethod
    def of(x: GroupElement, H: Subgroup) -> "Coset":
        members, coset_of = H.partition
        return Coset(H, members[coset_of[x.index]][0])

    @property
    def position(self) -> int:
        """This coset's place in ``subgroup.cosets`` (and ``subgroup.partition``)."""
        return self.subgroup.partition[1][self.rep_index]

    @property
    def representative(self) -> GroupElement:
        return self.subgroup.parent.element_by_index(self.rep_index)

    def member_indices(self) -> list[int]:
        return list(self.subgroup.partition[0][self.position])

    def contains_index(self, i: int) -> bool:
        return self.subgroup.partition[1][i] == self.position

    def __repr__(self) -> str:
        return f"{self.representative!r}+{self.subgroup!r}"


def quotient_cosets(G: FiniteAbelianGroup, H: Subgroup) -> list[Coset]:
    """The partition of ``G`` into cosets of ``H``, sorted by representative index."""
    if H.parent != G:
        raise StructuralError("subgroup does not belong to this group")
    return list(H.cosets)


def refine(D: Coset, M: Subgroup) -> list[Coset]:
    """Cosets of ``M`` lying inside the coset ``D`` of a larger subgroup."""
    H = D.subgroup
    if not M.is_subset_of(H):
        raise StructuralError("refining subgroup is not contained in the coset's subgroup")
    return [c for c in M.cosets if D.contains_index(c.rep_index)]


class QuotientGroup(GroupOps):
    """The quotient ``G/H`` as an index group over the sorted list of cosets.

    Its tables map representative sums and negations through the partition's
    element-to-coset map; no invariant-factor decomposition is attempted.
    """

    def __init__(self, G: FiniteAbelianGroup, H: Subgroup):
        self.base = G
        self.subgroup = H
        self.cosets = quotient_cosets(G, H)
        self.order = len(self.cosets)

    @cached_property
    def add_table(self) -> np.ndarray:
        reps = [c.rep_index for c in self.cosets]
        coset_of = np.array(self.subgroup.partition[1])
        return _read_only(coset_of[self.base.add_table[np.ix_(reps, reps)]])

    @cached_property
    def neg_table(self) -> np.ndarray:
        reps = [c.rep_index for c in self.cosets]
        coset_of = np.array(self.subgroup.partition[1])
        return _read_only(coset_of[self.base.neg_table[reps]])

    def label_of(self, i: int):
        return self.cosets[i]

    def __repr__(self) -> str:
        return f"{self.base!r}/{self.subgroup!r}"


class PlainAlphabet(GroupOps):
    """An input alphabet without group structure (restricted quotient inputs D/M)."""

    def __init__(self, labels: Sequence):
        self.labels = list(labels)
        self.order = len(self.labels)

    def _no_operation(self):
        raise StructuralError("this channel's input alphabet carries no group operation")

    add_table = neg_table = property(_no_operation)

    def label_of(self, i: int):
        return self.labels[i]

    def __repr__(self) -> str:
        return f"Alphabet({self.labels!r})"


@dataclass(frozen=True)
class SectionMap:
    """A choice of representative in each coset of ``H``: f(a) mod H = a.

    ``values[c]`` is the element index chosen in coset c of ``subgroup.cosets``.
    """

    subgroup: Subgroup
    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        coset_of = self.subgroup.partition[1]
        if len(self.values) != len(self.subgroup.cosets):
            raise StructuralError(f"a section takes one value per coset, got {self.values}")
        for c, v in enumerate(self.values):
            if not (0 <= v < len(coset_of) and coset_of[v] == c):
                raise StructuralError(f"section value {v} does not lie in coset {c}")

    @property
    def table(self) -> MappingProxyType:
        """The section as a read-only Coset -> GroupElement mapping."""
        g = self.subgroup.parent
        return MappingProxyType(
            {c: g.element_by_index(v) for c, v in zip(self.subgroup.cosets, self.values)}
        )

    def __call__(self, coset: Coset) -> GroupElement:
        if coset.subgroup != self.subgroup:
            raise StructuralError("coset is not one of this section's subgroup")
        return self.subgroup.parent.element_by_index(self.values[coset.position])


def random_section_map(H: Subgroup, rng) -> SectionMap:
    """Draw a section mapping uniformly: an independent uniform member per coset.

    The members are drawn in one ``rng.integers`` call with one bound per coset.
    """
    members = H.partition[0]
    picks = rng.integers(np.full(len(members), H.order)).tolist()
    return SectionMap(H, tuple(row[p] for row, p in zip(members, picks)))


def zero_section_map(H: Subgroup) -> SectionMap:
    """The deterministic section picking each coset's canonical representative."""
    return SectionMap(H, tuple(row[0] for row in H.partition[0]))
