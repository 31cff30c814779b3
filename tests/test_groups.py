import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import coset_partition, residue_add, residue_vectors

from cqpolar.errors import CapacityError, StructuralError
from cqpolar.groups import (
    Coset,
    FiniteAbelianGroup,
    QuotientGroup,
    SectionMap,
    Subgroup,
    add,
    enumerate_subgroups,
    generated_subgroup,
    maximal_subgroups,
    quotient_cosets,
    random_section_map,
    refine,
    subgroups_of,
    zero_section_map,
)

Z4 = FiniteAbelianGroup([4])
Z22 = FiniteAbelianGroup([2, 2])

#: Every finite Abelian group of order <= 16, as products of cyclic factors.
SMALL_GROUPS = [
    [1], [2], [3], [4], [2, 2], [5], [6], [7], [8], [2, 4], [2, 2, 2], [9], [3, 3],
    [10], [11], [12], [2, 6], [13], [14], [15], [16], [2, 8], [4, 4], [2, 2, 4],
    [2, 2, 2, 2],
]


def test_add_examples():
    assert add(Z4.element([3]), Z4.element([2])).residues == (1,)
    assert add(Z22.element([1, 0]), Z22.element([1, 1])).residues == (0, 1)
    a = Z4.element([3])
    assert (a + Z4.zero()).residues == a.residues


def test_add_mismatched_groups():
    with pytest.raises(StructuralError):
        add(Z4.element([1]), Z22.element([1, 0]))


@pytest.mark.parametrize("residues", [(1,), (1, 2, 5), ()], ids=["short", "long", "empty"])
def test_element_refuses_a_wrong_residue_count(residues):
    z2z3 = FiniteAbelianGroup([2, 3])
    assert z2z3.element((1, 5)).residues == (1, 2)
    with pytest.raises(StructuralError, match="residue vector length"):
        z2z3.element(residues)


def test_negation_and_subtraction():
    a = Z4.element([3])
    assert (-a).residues == (1,)
    assert (a - a).residues == (0,)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([[2], [3], [4], [2, 2], [6], [2, 4], [3, 3]]), st.data())
def test_group_laws(orders, data):
    g = FiniteAbelianGroup(orders)
    idx = st.integers(0, g.order - 1)
    a = g.element_by_index(data.draw(idx))
    b = g.element_by_index(data.draw(idx))
    c = g.element_by_index(data.draw(idx))
    assert ((a + b) + c).residues == (a + (b + c)).residues
    assert (a + b).residues == (b + a).residues
    assert (a + g.zero()).residues == a.residues
    assert (a + (-a)).residues == g.zero().residues


def test_enumerate_subgroups_counts():
    assert len(enumerate_subgroups(Z4)) == 3
    assert len(enumerate_subgroups(Z22)) == 5
    z5 = FiniteAbelianGroup([5])
    subs = enumerate_subgroups(z5)
    assert [h.order for h in subs] == [1, 5]


def test_enumerate_subgroups_closure_and_sorting():
    for g in (Z4, Z22, FiniteAbelianGroup([2, 4]), FiniteAbelianGroup([8])):
        subs = enumerate_subgroups(g)
        orders = [h.order for h in subs]
        assert orders == sorted(orders)
        for h in subs:
            h.validate_closure()
            assert g.order % h.order == 0


def test_enumerate_subgroups_cap():
    with pytest.raises(CapacityError):
        enumerate_subgroups(FiniteAbelianGroup([128]))


def test_lattice_euler_reconstruction():
    # every element generates exactly one cyclic subgroup, so the totients
    # of the cyclic subgroup orders partition the group
    for orders in SMALL_GROUPS[1:]:
        g = FiniteAbelianGroup(orders)
        total = 0
        for h in enumerate_subgroups(g):
            if any(
                generated_subgroup(g.element_by_index(i)).indices == h.indices
                for i in h.indices
            ):
                total += _totient(h.order)
        assert total == g.order, orders


def _totient(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def test_maximal_subgroups_examples():
    subs4 = enumerate_subgroups(Z4)
    assert [m.indices for m in maximal_subgroups(subs4[2])] == [(0, 2)]
    full22 = Subgroup(Z22, (0, 1, 2, 3))
    assert sorted(m.indices for m in maximal_subgroups(full22)) == [
        (0, 1),
        (0, 2),
        (0, 3),
    ]
    z2 = FiniteAbelianGroup([2])
    assert [m.indices for m in maximal_subgroups(Subgroup(z2, (0, 1)))] == [(0,)]
    assert maximal_subgroups(Subgroup(Z4, (0,))) == []


def test_maximal_subgroups_bruteforce_equivalence():
    for g in (Z4, Z22, FiniteAbelianGroup([2, 4]), FiniteAbelianGroup([9])):
        for h in enumerate_subgroups(g):
            if h.order == 1:
                continue
            expected = [
                m
                for m in enumerate_subgroups(g)
                if m.is_subset_of(h) and _is_prime(h.order // m.order)
            ]
            got = maximal_subgroups(h)
            assert {m.indices for m in got} == {m.indices for m in expected}


def _is_prime(n):
    return n >= 2 and all(n % p for p in range(2, int(n**0.5) + 1))


def test_generated_subgroup_examples():
    assert generated_subgroup(Z4.element([2])).indices == (0, 2)
    assert generated_subgroup(Z22.element([1, 1])).indices == (
        0,
        Z22.element([1, 1]).index,
    )
    assert generated_subgroup(Z4.zero()).indices == (0,)


def test_quotient_cosets_examples():
    h = Subgroup(Z4, (0, 2))
    cells = quotient_cosets(Z4, h)
    assert [c.member_indices() for c in cells] == [[0, 2], [1, 3]]
    # built once per subgroup and shared; callers get a fresh list
    assert isinstance(h.cosets, tuple) and h.cosets is h.cosets
    assert list(h.cosets) == cells and quotient_cosets(Z4, h) is not cells
    trivial = Subgroup(Z4, (0,))
    d13 = cells[1]
    assert [c.member_indices() for c in refine(d13, trivial)] == [[1], [3]]
    full = Subgroup(Z4, (0, 1, 2, 3))
    assert [c.member_indices() for c in quotient_cosets(Z4, full)] == [[0, 1, 2, 3]]


def test_refine_requires_nesting():
    h = Subgroup(Z4, (0, 2))
    other = Subgroup(Z22, (0, 1))
    with pytest.raises(StructuralError):
        refine(quotient_cosets(Z4, h)[0], other)


def test_coset_canonical_representative():
    h = Subgroup(Z4, (0, 2))
    assert Coset.of(Z4.element([3]), h).rep_index == 1
    assert Coset.of(Z4.element([2]), h).rep_index == 0
    assert Coset.of(Z4.element([1]), h) == Coset.of(Z4.element([3]), h)


def test_quotient_group_operation():
    quot = QuotientGroup(Z4, Subgroup(Z4, (0, 2)))
    assert quot.order == 2
    assert quot.add_index(1, 1) == 0
    assert quot.neg_index(1) == 1
    assert quot.add_index(0, 1) == 1


def test_section_maps_lie_in_their_cosets():
    rng = np.random.default_rng(0)
    for g, hidx in [(Z4, (0, 2)), (Z22, (0, 1)), (Z4, (0,)), (Z4, (0, 1, 2, 3))]:
        h = Subgroup(g, hidx)
        for seed in range(20):
            f = random_section_map(h, np.random.default_rng(seed))
            for coset, el in f.table.items():
                assert coset.contains_index(el.index)


def test_trivial_subgroup_section_is_identity():
    h = Subgroup(Z4, (0,))
    f = random_section_map(h, np.random.default_rng(3))
    for coset, el in f.table.items():
        assert el.index == coset.rep_index


def test_section_count_z4():
    # |H|^{|G/H|} = 2^2 = 4 possible sections for H = {0,2} in Z4
    h = Subgroup(Z4, (0, 2))
    seen = set()
    for seed in range(200):
        f = random_section_map(h, np.random.default_rng(seed))
        seen.add(tuple(sorted((c.rep_index, e.index) for c, e in f.table.items())))
    assert len(seen) == 4


def test_full_subgroup_section_uniformity_chisquare():
    # H = G: one coset, uniform choice among q elements across seeds
    full = Subgroup(Z4, (0, 1, 2, 3))
    counts = np.zeros(4)
    trials = 10_000
    for seed in range(trials):
        f = random_section_map(full, np.random.default_rng(seed))
        counts[next(iter(f.table.values())).index] += 1
    expected = trials / 4
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < 16.27  # chi-square(3 dof) at the 0.1% level


def test_zero_section_map():
    h = Subgroup(Z4, (0, 2))
    f = zero_section_map(h)
    assert {c.rep_index: e.index for c, e in f.table.items()} == {0: 0, 1: 1}


def test_subgroups_of_restricts_to_parent_subgroup():
    h = Subgroup(Z22, (0, 1, 2, 3))
    inner = subgroups_of(h)
    assert len(inner) == 5
    small = Subgroup(Z22, (0, 1))
    assert [s.indices for s in subgroups_of(small)] == [(0,), (0, 1)]


def test_subgroup_invariants():
    with pytest.raises(StructuralError):
        Subgroup(Z4, (1, 2))  # no identity
    with pytest.raises(StructuralError):
        Subgroup(Z4, (0, 1, 2))  # Lagrange violation


@pytest.mark.parametrize("orders", SMALL_GROUPS, ids=str)
def test_tables_match_residue_arithmetic(orders):
    g = FiniteAbelianGroup(orders)
    residues = residue_vectors(orders)
    index = {r: i for i, r in enumerate(residues)}
    for i, a in enumerate(residues):
        neg = index[tuple((-x) % n for x, n in zip(a, orders))]
        assert g.neg_table[i] == g.neg_index(i) == neg
        for j, b in enumerate(residues):
            assert g.add_table[i, j] == g.add_index(i, j) == index[residue_add(orders, a, b)]
    assert not g.add_table.flags.writeable and not g.neg_table.flags.writeable


@pytest.mark.parametrize("orders", SMALL_GROUPS, ids=str)
def test_partition_matches_seen_set_oracle(orders):
    g = FiniteAbelianGroup(orders)
    residues = residue_vectors(orders)
    index = {r: i for i, r in enumerate(residues)}
    subs = enumerate_subgroups(g)
    cells = {h.indices: coset_partition(orders, h.indices) for h in subs}
    for h in subs:
        expected = cells[h.indices]
        cell_of = {i: k for k, cell in enumerate(expected) for i in cell}
        members, coset_of = h.partition
        assert [list(row) for row in members] == expected
        assert list(coset_of) == [cell_of[i] for i in range(g.order)]
        assert [c.member_indices() for c in h.cosets] == expected
        for i in range(g.order):
            assert Coset.of(g.element_by_index(i), h).rep_index == expected[cell_of[i]][0]
        quot = QuotientGroup(g, h)
        for a, ca in enumerate(expected):
            for b, cb in enumerate(expected):
                total = index[residue_add(orders, residues[ca[0]], residues[cb[0]])]
                assert quot.add_table[a, b] == cell_of[total]
        for m in subs:
            if m.is_subset_of(h):
                for d, cell in zip(h.cosets, expected):
                    inside = [c for c in cells[m.indices] if set(c) <= set(cell)]
                    assert [c.member_indices() for c in refine(d, m)] == inside


def test_different_sections_compare_unequal():
    h = Subgroup(Z4, (0, 2))
    assert zero_section_map(h) == SectionMap(h, (0, 1))
    assert zero_section_map(h) != SectionMap(h, (2, 1))
    assert zero_section_map(h) != SectionMap(h, (0, 3))
    with pytest.raises(StructuralError):
        SectionMap(h, (1, 0))  # each value must lie in its own coset
    with pytest.raises(StructuralError):
        SectionMap(h, (0,))  # one value per coset
