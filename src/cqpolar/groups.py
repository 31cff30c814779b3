"""Finite Abelian groups, subgroups, quotients, cosets and section mappings.

Groups are direct products of cyclic groups ``Z_{n1} x ... x Z_{nk}``; by the
structure theorem this covers every finite Abelian group, with the caller
supplying the factorization.  Elements are canonical residue vectors, indexed
lexicographically so that everything downstream (channels, codes) can work
with plain integer indices and small tables.  Quotients are realized as
explicit coset-index tables rather than by recomputing invariant factors.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import CapacityError, StructuralError

#: Largest group order for which exhaustive subgroup enumeration is allowed.
DEFAULT_ORDER_CAP = 64


class GroupOps:
    """Minimal index-level interface shared by product groups and quotients.

    Elements are the indices ``0..order-1``; index ``0`` is the identity.
    """

    order: int

    def add_index(self, i: int, j: int) -> int:
        raise NotImplementedError

    def neg_index(self, i: int) -> int:
        raise NotImplementedError

    def label_of(self, i: int):
        """Human-readable label of element ``i`` (residue tuple or coset)."""
        raise NotImplementedError

    @property
    def add_table(self) -> np.ndarray:
        """Dense Cayley table, built lazily; used by vectorized encoders."""
        tab = getattr(self, "_add_table", None)
        if tab is None:
            q = self.order
            tab = np.empty((q, q), dtype=np.int64)
            for i in range(q):
                for j in range(q):
                    tab[i, j] = self.add_index(i, j)
            self._add_table = tab
        return tab


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
        return self.group.element(
            tuple((-r) % n for r, n in zip(self.residues, self.group.cyclic_orders))
        )

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
        self.order = int(np.prod(orders))
        # lexicographic enumeration of residue vectors; first factor most significant
        self._residues = list(itertools.product(*(range(n) for n in orders)))
        self._index = {r: i for i, r in enumerate(self._residues)}

    # -- identity / equality -------------------------------------------------
    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteAbelianGroup) and other.cyclic_orders == self.cyclic_orders

    def __hash__(self) -> int:
        return hash(("FiniteAbelianGroup", self.cyclic_orders))

    def __repr__(self) -> str:
        return "x".join(f"Z{n}" for n in self.cyclic_orders)

    # -- element construction --------------------------------------------------
    def element(self, residues: Iterable[int]) -> GroupElement:
        res = tuple(int(r) % n for r, n in zip(residues, self.cyclic_orders))
        if len(res) != len(self.cyclic_orders):
            raise StructuralError("residue vector length does not match the group")
        return GroupElement(self, res)

    def zero(self) -> GroupElement:
        return GroupElement(self, (0,) * len(self.cyclic_orders))

    def elements(self) -> list[GroupElement]:
        return [GroupElement(self, r) for r in self._residues]

    def element_by_index(self, i: int) -> GroupElement:
        return GroupElement(self, self._residues[i])

    def index_of_residues(self, residues: tuple[int, ...]) -> int:
        return self._index[residues]

    # -- index-level ops -------------------------------------------------------
    def add_index(self, i: int, j: int) -> int:
        a, b = self._residues[i], self._residues[j]
        return self._index[tuple((x + y) % n for x, y, n in zip(a, b, self.cyclic_orders))]

    def neg_index(self, i: int) -> int:
        return self._index[tuple((-x) % n for x, n in zip(self._residues[i], self.cyclic_orders))]

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
        if self.parent.order % len(self.indices) != 0:
            raise StructuralError("subgroup size does not divide the group order")

    @property
    def order(self) -> int:
        return len(self.indices)

    def contains_index(self, i: int) -> bool:
        return i in self._index_set

    @property
    def _index_set(self) -> frozenset:
        s = self.__dict__.get("_cached_set")
        if s is None:
            s = frozenset(self.indices)
            self.__dict__["_cached_set"] = s
        return s

    @property
    def cosets(self) -> tuple:
        """The cosets of this subgroup in its parent, sorted by representative; cached."""
        cells = self.__dict__.get("_cached_cosets")
        if cells is None:
            g = self.parent
            seen, found = set(), []
            for i in range(g.order):
                if i in seen:
                    continue
                c = Coset.of(g.element_by_index(i), self)
                seen.update(c.member_indices())
                found.append(c)
            cells = tuple(sorted(found, key=lambda c: c.rep_index))
            self.__dict__["_cached_cosets"] = cells
        return cells

    def elements(self) -> list[GroupElement]:
        return [self.parent.element_by_index(i) for i in self.indices]

    def is_subset_of(self, other: "Subgroup") -> bool:
        return self._index_set <= other._index_set

    def validate_closure(self) -> None:
        g = self.parent
        for i in self.indices:
            if not self.contains_index(g.neg_index(i)):
                raise StructuralError("subgroup not closed under negation")
            for j in self.indices:
                if not self.contains_index(g.add_index(i, j)):
                    raise StructuralError("subgroup not closed under addition")

    def __repr__(self) -> str:
        return "{" + ",".join(repr(self.parent.element_by_index(i)) for i in self.indices) + "}"


def add(a: GroupElement, b: GroupElement) -> GroupElement:
    """Componentwise modular sum of two elements of the same group."""
    if a.group != b.group:
        raise StructuralError("elements belong to different groups")
    return a.group.element(
        tuple((x + y) % n for x, y, n in zip(a.residues, b.residues, a.group.cyclic_orders))
    )


def generated_subgroup(d: GroupElement) -> Subgroup:
    """The cyclic subgroup {0, d, 2d, ...} generated by ``d``."""
    g = d.group
    idx, members = d.index, [0]
    cur = idx
    while cur != 0:
        members.append(cur)
        cur = g.add_index(cur, idx)
    return Subgroup(g, tuple(members))


def enumerate_subgroups(G: FiniteAbelianGroup, order_cap: int = DEFAULT_ORDER_CAP) -> list[Subgroup]:
    """All subgroups of ``G``, sorted by order then lexicographic element set.

    Exhaustive closure enumeration; refuses groups larger than ``order_cap``.
    """
    return subgroups_of(Subgroup(G, tuple(range(G.order))), order_cap)


def _extend_subgroup(G: GroupOps, sub: frozenset, g: int) -> frozenset:
    # closure of sub ∪ {g}: union of the cosets sub + k*g
    members = set(sub)
    shift = g
    while shift not in members:
        members.update(G.add_index(h, shift) for h in sub)
        shift = G.add_index(shift, g)
    return frozenset(members)


def subgroups_of(H: Subgroup, order_cap: int = DEFAULT_ORDER_CAP) -> list[Subgroup]:
    """All subgroups of ``G`` contained in ``H`` (as subgroups of the parent)."""
    if H.order > order_cap:
        raise CapacityError(f"subgroup enumeration capped at order {order_cap}, got {H.order}")
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
        g = H.parent
        i = x.index
        rep = min(g.add_index(i, h) for h in H.indices)
        return Coset(H, rep)

    @property
    def representative(self) -> GroupElement:
        return self.subgroup.parent.element_by_index(self.rep_index)

    def member_indices(self) -> list[int]:
        g = self.subgroup.parent
        return sorted(g.add_index(self.rep_index, h) for h in self.subgroup.indices)

    def members(self) -> list[GroupElement]:
        return [self.subgroup.parent.element_by_index(i) for i in self.member_indices()]

    def contains_index(self, i: int) -> bool:
        g = self.subgroup.parent
        return self.subgroup.contains_index(g.add_index(i, g.neg_index(self.rep_index)))

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
    seen, out = set(), []
    for i in D.member_indices():
        if i in seen:
            continue
        c = Coset.of(H.parent.element_by_index(i), M)
        seen.update(c.member_indices())
        out.append(c)
    out.sort(key=lambda c: c.rep_index)
    return out


class QuotientGroup(GroupOps):
    """The quotient ``G/H`` as an index group over the sorted list of cosets.

    The group operation is realized through representative addition and a
    coset-index table; no invariant-factor decomposition is attempted.
    """

    def __init__(self, G: FiniteAbelianGroup, H: Subgroup):
        if H.parent != G:
            raise StructuralError("subgroup does not belong to this group")
        self.base = G
        self.subgroup = H
        self.cosets = quotient_cosets(G, H)
        self.order = len(self.cosets)
        self._coset_index_of_element = np.empty(G.order, dtype=np.int64)
        for ci, c in enumerate(self.cosets):
            for i in c.member_indices():
                self._coset_index_of_element[i] = ci

    def coset_index(self, element_index: int) -> int:
        return int(self._coset_index_of_element[element_index])

    def add_index(self, i: int, j: int) -> int:
        s = self.base.add_index(self.cosets[i].rep_index, self.cosets[j].rep_index)
        return self.coset_index(s)

    def neg_index(self, i: int) -> int:
        return self.coset_index(self.base.neg_index(self.cosets[i].rep_index))

    def label_of(self, i: int):
        return self.cosets[i]

    def __repr__(self) -> str:
        return f"{self.base!r}/{self.subgroup!r}"


class PlainAlphabet(GroupOps):
    """An input alphabet without group structure (restricted quotient inputs D/M)."""

    def __init__(self, labels: Sequence):
        self.labels = list(labels)
        self.order = len(self.labels)

    def add_index(self, i: int, j: int) -> int:
        raise StructuralError("this channel's input alphabet carries no group operation")

    def neg_index(self, i: int) -> int:
        raise StructuralError("this channel's input alphabet carries no group operation")

    def label_of(self, i: int):
        return self.labels[i]

    def __repr__(self) -> str:
        return f"Alphabet({self.labels!r})"


@dataclass(frozen=True)
class SectionMap:
    """A choice of representative in each coset of ``H``: f(a) mod H = a."""

    subgroup: Subgroup
    table: dict = field(compare=False)  # Coset -> GroupElement

    def __post_init__(self):
        for coset, el in self.table.items():
            if not coset.contains_index(el.index):
                raise StructuralError("section value does not lie in its coset")

    def __call__(self, coset: Coset) -> GroupElement:
        return self.table[coset]


def random_section_map(H: Subgroup, rng) -> SectionMap:
    """Draw a section mapping uniformly: an independent uniform member per coset."""
    G = H.parent
    table = {}
    for coset in H.cosets:
        members = coset.member_indices()
        table[coset] = G.element_by_index(members[int(rng.integers(len(members)))])
    return SectionMap(H, table)


def zero_section_map(H: Subgroup) -> SectionMap:
    """The deterministic section picking each coset's canonical representative."""
    G = H.parent
    return SectionMap(
        H, {c: G.element_by_index(c.rep_index) for c in H.cosets}
    )
