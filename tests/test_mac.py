import json
from pathlib import Path

import numpy as np
import pytest

from oracles import subset_information_direct

from cqpolar.channel import CqChannel, HybridState, preset_channel
from cqpolar.errors import StructuralError
from cqpolar.groups import FiniteAbelianGroup
from cqpolar.mac import (
    MacChannel,
    RateRegion,
    _subsets,
    polarized_region_estimate,
    random_mac,
    region,
)
from cqpolar.polarize import iter_synthetic_channels, minus_transform, plus_transform

FIXTURE = json.loads((Path(__file__).parent / "data" / "region_loss_fixture.json").read_text())


def adder_like_mac():
    """Two binary users; the output is a pure state determined by x1 + x2."""
    g = FiniteAbelianGroup([2, 2])
    kets = {
        0: np.array([1.0, 0.0, 0.0]),
        1: np.array([0.0, 1.0, 0.0]),
        2: np.array([0.0, 0.0, 1.0]),
    }
    outs = []
    for i in range(4):
        s = sum(g.label_of(i))
        v = kets[s]
        outs.append(HybridState([(1.0, (), np.outer(v, v).astype(complex))]))
    return MacChannel([[2], [2]], CqChannel(g, outs))


def test_mac_constructor_validates_group():
    w = preset_channel("classical-symmetric", q=4, p=0.1)
    with pytest.raises(StructuralError):
        MacChannel([[2], [2]], w)  # Z4 is not Z2 x Z2


def test_user_subgroup():
    mac = random_mac([[2], [2]], 2, seed=0)
    g = mac.group
    g1 = mac.user_subgroup({0})
    assert sorted(g.label_of(i) for i in g1.indices) == [(0, 0), (1, 0)]
    g2 = mac.user_subgroup({1})
    assert sorted(g.label_of(i) for i in g2.indices) == [(0, 0), (0, 1)]
    assert mac.user_subgroup({0, 1}).order == 4
    assert mac.user_subgroup(set()).order == 1


@pytest.mark.parametrize("user_orders", [[[2], [2]], [[2, 2], [4]], [[3], [2], [2]], [[4], [2, 2]]],
                         ids=str)
def test_user_subgroup_keeps_the_elements_zero_outside_the_subset(user_orders):
    mac = random_mac(user_orders, 1, seed=0)
    g = mac.group
    owner = [u for u, orders in enumerate(user_orders) for _ in orders]
    for users in _subsets(len(user_orders)):
        want = tuple(i for i in range(g.order)
                     if all(r == 0 for r, u in zip(g.label_of(i), owner) if u not in users))
        assert mac.user_subgroup(users).indices == want


def test_subset_information_basic():
    mac = random_mac([[2], [2]], 2, seed=2)
    assert mac.subset_information(()) == 0.0
    assert mac.subset_information({0, 1}) == pytest.approx(mac.sum_rate(), abs=1e-10)


def test_subset_information_two_evaluations_agree():
    for seed in range(4):
        mac = random_mac([[2], [2]], 2, seed=seed, mixed=bool(seed % 2))
        for users in [{0}, {1}, {0, 1}]:
            a = mac.subset_information(users)
            b = subset_information_direct(mac, users)
            assert a == pytest.approx(b, abs=1e-9)
    mac = adder_like_mac()
    assert mac.subset_information({0}) == pytest.approx(
        subset_information_direct(mac, {0}), abs=1e-9
    )


def test_region_monotone_and_single_user():
    mac = random_mac([[2], [2]], 2, seed=3)
    reg = region(mac)
    reg.validate()
    assert reg.bound(()) == 0.0
    assert reg.bound({0}) <= reg.bound({0, 1}) + 1e-12
    single = random_mac([[2]], 2, seed=4)
    r1 = region(single)
    assert r1.bound({0}) == pytest.approx(single.sum_rate(), abs=1e-12)


def test_rate_region_validation():
    bad = RateRegion(1, {frozenset(): 0.5, frozenset({0}): 0.1})
    with pytest.raises(StructuralError):
        bad.validate()
    non_monotone = RateRegion(
        2,
        {
            frozenset(): 0.0,
            frozenset({0}): 0.8,
            frozenset({1}): 0.2,
            frozenset({0, 1}): 0.5,
        },
    )
    with pytest.raises(StructuralError):
        non_monotone.validate()


def test_two_branch_subset_inequality():
    # per-subset rate sum can only shrink under one polarization step
    for seed in range(6):
        mac = random_mac([[2], [2]], 2, seed=seed, mixed=bool(seed % 2))
        minus = minus_transform(mac.channel)
        plus = plus_transform(mac.channel)
        for users in [{0}, {1}, {0, 1}]:
            lhs = mac.subset_information(users, minus) + mac.subset_information(users, plus)
            rhs = 2 * mac.subset_information(users)
            assert lhs <= rhs + 1e-8


def test_sum_rate_conserved_by_estimates():
    # depth 3 is exercised by the acceptance suite; keep the unit test quick
    mac = random_mac([[2], [2]], 2, seed=5)
    for n in (1, 2):
        est = polarized_region_estimate(mac, n)
        assert est.bound({0, 1}) == pytest.approx(mac.sum_rate(), abs=1e-8)


def test_estimates_nonincreasing_in_depth():
    mac = random_mac([[2], [2]], 2, seed=6)
    prev = region(mac)
    for n in (1, 2):
        est = polarized_region_estimate(mac, n)
        est.validate()
        for s in prev.constraints:
            assert est.constraints[s] <= prev.constraints[s] + 1e-8
        prev = est


def test_region_loss_fixture_regression():
    mac = random_mac(
        FIXTURE["user_orders"], FIXTURE["k"], FIXTURE["seed"], mixed=FIXTURE["mixed"]
    )
    base = region(mac)
    est = polarized_region_estimate(mac, FIXTURE["depth"])
    worst = max(
        base.constraints[s] - est.constraints[s]
        for s in base.constraints
        if 0 < len(s) < mac.num_users
    )
    assert worst > FIXTURE["min_single_user_loss_nats"]
    assert worst == pytest.approx(FIXTURE["observed_loss_nats"], abs=1e-9)
    # sum rate is conserved even while individual rates shrink
    assert est.bound({0, 1}) == pytest.approx(base.bound({0, 1}), abs=1e-8)


def test_region_json_shape():
    mac = random_mac([[2], [2]], 2, seed=7)
    blob = region(mac).as_json()
    assert blob["num_users"] == 2
    assert set(blob["constraints"]) == {"~", "0", "1", "0,1"}


def test_whole_group_quotient_is_never_built(monkeypatch):
    # G_S = G for the all-users subset: I(W[G]) = 0 is used, not computed
    macs = [random_mac([[2], [2]], 2, seed=8), random_mac([[2], [3]], 2, seed=9, mixed=True)]
    explicit = []
    for mac in macs:
        subsets = [s for s in _subsets(mac.num_users) if s]

        def rates(ch):
            info = ch.holevo_information()
            quotient_info = [ch.quotient(mac.user_subgroup(s)).holevo_information() for s in subsets]
            return {frozenset(s): max(0.0, info - r) for s, r in zip(subsets, quotient_info)}

        levels = [[rates(mac.channel)]]
        for n in (1, 2):
            levels.append([rates(ch) for _, ch in iter_synthetic_channels(mac.channel, n)])
        explicit.append(
            [{s: float(np.mean([r[s] for r in level])) for s in level[0]} for level in levels]
        )

    built = []
    original = CqChannel.quotient

    def recording_quotient(self, H):
        built.append((H.order, self.q))
        return original(self, H)

    monkeypatch.setattr(CqChannel, "quotient", recording_quotient)
    for mac, expected in zip(macs, explicit):
        got = [region(mac)] + [polarized_region_estimate(mac, n) for n in (1, 2)]
        for reg, exp in zip(got, expected):
            for s, v in exp.items():
                assert reg.bound(s) == pytest.approx(v, abs=1e-12)
    assert built
    assert all(order < q for order, q in built)
