import itertools
import json
import re

import numpy as np
import pytest

from conftest import pure_overlap_channel, random_mixed_channel
from oracles import codeword_elements, polar_encode_recursive

from cqpolar.channel import CqChannel, HybridState, preset_channel
from cqpolar.codes import (
    CodeParams,
    build_plan,
    encode,
    lift_message,
    message_from_positions,
    plan_from_json,
    plan_channel,
    plan_to_json,
    polar_encode_indices,
    random_message,
    rate_gap,
)
from cqpolar.errors import LoadError, StructuralError
from cqpolar.groups import FiniteAbelianGroup, Subgroup
from cqpolar.polarize import polarization_scan, reverse_label


def test_code_params_validation():
    with pytest.raises(StructuralError):
        CodeParams(n=0)
    with pytest.raises(StructuralError):
        CodeParams(n=2, delta=0.0)
    with pytest.raises(StructuralError):
        CodeParams(n=2, beta=0.4, beta_prime=0.3)
    with pytest.raises(StructuralError):
        CodeParams(n=2, mode="imaginary")


def test_encoder_hand_example():
    g = FiniteAbelianGroup([2])
    codeword, adds = polar_encode_indices(g, np.array([1, 1]))
    assert codeword.tolist() == [0, 1]
    assert adds == 2  # N log2 N for N = 2


def test_encoder_addition_count_exact():
    g = FiniteAbelianGroup([3])
    for n in range(1, 5):
        N = 1 << n
        _, adds = polar_encode_indices(g, np.zeros(N, dtype=int))
        assert adds == N * n


def test_encoder_zero_message_zero_codeword():
    w = pure_overlap_channel(0.5)
    plan = build_plan(w, CodeParams(n=2, tau=1.0, sections="zero"))
    msg = message_from_positions(plan, [0] * 4)
    assert encode(plan, msg).tolist() == [0, 0, 0, 0]


def test_encoder_linearity_on_information_plans():
    # with H_s = {0} everywhere the (forced) sections are group-linear
    w = pure_overlap_channel(0.3)
    plan = build_plan(w, CodeParams(n=2, tau=1.0))
    if any(d.subgroup.order != 1 for d in plan.decisions):
        pytest.skip("plan is not all-information at this overlap")
    g = plan.group
    rng = np.random.default_rng(0)
    for _ in range(10):
        p1 = [int(rng.integers(2)) for _ in range(4)]
        p2 = [int(rng.integers(2)) for _ in range(4)]
        m1 = message_from_positions(plan, p1)
        m2 = message_from_positions(plan, p2)
        m12 = message_from_positions(plan, [(a + b) % 2 for a, b in zip(p1, p2)])
        x1, x2, x12 = encode(plan, m1), encode(plan, m2), encode(plan, m12)
        summed = [g.add_index(int(a), int(b)) for a, b in zip(x1, x2)]
        assert summed == x12.tolist()


@pytest.mark.parametrize("orders", [[2], [3], [4], [2, 2]], ids=str)
def test_encoder_matches_recursive_oracle(orders):
    g = FiniteAbelianGroup(orders)
    rng = np.random.default_rng(sum(orders))
    for n in range(11):
        N = 1 << n
        for _ in range(3):
            u = rng.integers(g.order, size=N)
            x, adds = polar_encode_indices(g, u)
            ref, ref_adds = polar_encode_recursive(g.add_table, u)
            assert x.tolist() == ref.tolist() and adds == ref_adds == N * n


@pytest.mark.parametrize("orders", [[4], [2, 2]], ids=str)
def test_batched_encoder_matches_recursive_oracle_row_by_row(orders):
    g = FiniteAbelianGroup(orders)
    rng = np.random.default_rng(5)
    for n in range(7):
        N = 1 << n
        u = rng.integers(g.order, size=(9, N))
        x, adds = polar_encode_indices(g, u)
        assert x.shape == u.shape and adds == len(u) * N * n
        for row, word in zip(u, x):
            ref, _ = polar_encode_recursive(g.add_table, row)
            assert word.tolist() == ref.tolist()


@pytest.mark.parametrize("orders,n", [([2], 3), ([4], 3), ([3], 2), ([2, 2], 2)])
def test_encoder_bijectivity_exhaustive(orders, n):
    g = FiniteAbelianGroup(orders)
    N = 1 << n
    seen = set()
    for u in itertools.product(range(g.order), repeat=N):
        x, _ = polar_encode_indices(g, np.array(u))
        seen.add(tuple(x.tolist()))
    assert len(seen) == g.order**N


def test_encoder_injective_over_coset_messages():
    w = pure_overlap_channel(0.5)
    plan = build_plan(w, CodeParams(n=2, tau=0.5, seed=4))
    sizes = plan.message_space_sizes()
    seen = set()
    total = 1
    for s in sizes:
        total *= s
    for positions in itertools.product(*(range(s) for s in sizes)):
        msg = message_from_positions(plan, positions)
        seen.add(tuple(encode(plan, msg).tolist()))
    assert len(seen) == total


def test_build_plan_useless_and_perfect():
    half = np.eye(2, dtype=complex) / 2
    useless = CqChannel(FiniteAbelianGroup([2]), [HybridState([(1.0, (), half)])] * 2)
    plan = build_plan(useless, CodeParams(n=2))
    assert all(d.subgroup.order == 2 for d in plan.decisions)
    assert plan.rate == pytest.approx(0.0, abs=1e-12)
    assert rate_gap(plan) == pytest.approx(0.0, abs=1e-9)

    perfect = preset_channel("pure-states", angles=[0.0, np.pi / 2])
    plan = build_plan(perfect, CodeParams(n=2))
    assert all(d.subgroup.order == 1 for d in plan.decisions)
    assert plan.rate == pytest.approx(np.log(2), abs=1e-9)
    assert rate_gap(plan) == pytest.approx(0.0, abs=1e-8)


def test_build_plan_fixture_selects_quotient(z4_homomorphism_channel):
    plan = build_plan(z4_homomorphism_channel, CodeParams(n=2))
    for d in plan.decisions:
        assert d.subgroup.indices == (0, 2)
    assert plan.rate == pytest.approx(np.log(2), abs=1e-9)


def test_plan_uses_faced_record():
    w = pure_overlap_channel(0.5)
    plan = build_plan(w, CodeParams(n=2, tau=1.0))
    records = {r.branch: r for r in polarization_scan(w, 2)}
    for d in plan.decisions:
        assert d.faced == reverse_label(d.branch)
        assert d.I == pytest.approx(records[d.faced].I, abs=0.0)


def test_paper_strict_mode_is_internally_consistent():
    w = pure_overlap_channel(0.5)
    params = CodeParams(n=2, mode="paper-strict", delta=0.25, beta=0.2, beta_prime=0.4)
    plan = build_plan(w, params)
    thresh = 2.0 ** (-(2.0 ** (params.beta_prime * params.n)))
    records = {r.branch: r for r in polarization_scan(w, 2)}
    for d in plan.decisions:
        rec = records[d.faced]
        if d.subgroup.order != w.q or d.in_selected_set:
            log_quot = np.log(w.q / d.subgroup.order)
            assert d.quot_F < thresh
            assert abs(rec.I - log_quot) < params.delta / 2
            assert abs(d.quot_I - log_quot) < params.delta / 2
        else:
            # frozen because nothing met the literal selection test
            for H, f in rec.quot_F.items():
                log_quot = np.log(w.q / H.order)
                ok = (
                    f < thresh
                    and abs(rec.I - log_quot) < params.delta / 2
                    and abs(rec.quot_I[H] - log_quot) < params.delta / 2
                )
                assert not ok
    # a tight delta freezes every branch that is not already near-perfect
    tight = build_plan(w, CodeParams(n=2, mode="paper-strict", delta=0.1))
    frozen = [d for d in tight.decisions if d.subgroup.order == w.q]
    assert len(frozen) == 3
    assert not frozen[0].in_selected_set


def test_rate_gap_decreases_with_depth_bsc():
    w = preset_channel("classical-symmetric", q=2, p=0.11)
    gaps = []
    for n in range(3, 7):
        plan = build_plan(w, CodeParams(n=n, tau=0.1))
        gaps.append(rate_gap(plan))
    assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < gaps[0]


def test_bound_nonnegative_and_rate_accounting():
    rng = np.random.default_rng(5)
    w = random_mixed_channel(rng, 2, 2)
    plan = build_plan(w, CodeParams(n=2, tau=0.3))
    assert plan.bound >= 0.0
    manual = sum(np.log(plan.group.order / d.subgroup.order) for d in plan.decisions)
    assert plan.rate == pytest.approx(manual / plan.block_length, abs=1e-12)


def test_plan_json_roundtrip():
    w = pure_overlap_channel(0.5)
    plan = build_plan(w, CodeParams(n=2, tau=0.5, seed=9))
    blob = json.dumps(plan_to_json(plan))
    back = plan_from_json(json.loads(blob))
    assert back.rate == pytest.approx(plan.rate, abs=0.0)
    assert back.bound == pytest.approx(plan.bound, abs=0.0)
    for a, b in zip(plan.decisions, back.decisions):
        assert a.branch == b.branch
        assert a.subgroup.indices == b.subgroup.indices
        assert {c.rep_index: e.index for c, e in a.section.table.items()} == {
            c.rep_index: e.index for c, e in b.section.table.items()
        }
    ch = plan_channel(back)
    assert ch.holevo_information() == pytest.approx(w.holevo_information(), abs=1e-9)
    # same messages encode identically through the round trip
    rng = np.random.default_rng(3)
    msg = random_message(plan, rng)
    np.testing.assert_array_equal(encode(plan, msg), encode(back, msg))


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda p: p["decisions"][0].pop("section"), "plan decision 0: missing section"),
        (lambda p: p["decisions"][0].update(subgroup=5), "plan decision 0: subgroup must be an array"),
        (lambda p: p["decisions"][0].pop("branch"), "plan decision 0: missing branch"),
        (lambda p: p.update(decisions={"0": {}}), "plan: decisions must be an array"),
        (lambda p: p["params"].pop("n"), "plan: params: "),
        (lambda p: p["decisions"][0].update(branch=5), "plan decision 0: branch must be a string"),
        (lambda p: p["decisions"][0].update(branch="x"), "plan decision 0: bad branch label"),
        (lambda p: p["decisions"][0].update(I="x"), "plan decision 0: I must be a number"),
        (lambda p: p["decisions"][0].update(quot_F=True), "plan decision 0: quot_F must be a number"),
        (
            lambda p: p["decisions"][0].update(in_selected_set=1),
            "plan decision 0: in_selected_set must be a boolean",
        ),
        (lambda p: p.update(rate=[1]), "plan: rate must be a number"),
        (lambda p: p["params"].update(n=2.5), "plan: params: n must be an integer"),
        (lambda p: p["params"].update(mode=5), "plan: params: unknown mode"),
        (lambda p: p["params"].update(n=3), "plan: 2 decisions, but n=3 needs 2**3"),
        (lambda p: p["params"].update(n=10**9), "plan: 2 decisions, but n=1000000000"),
        (
            lambda p: p["decisions"][0].update(faced="+"),
            "plan decision 0: branch - and faced + are not decode position 0's - and -",
        ),
        (
            lambda p: p["decisions"].reverse(),
            "plan decision 0: branch + and faced + are not decode position 0's - and -",
        ),
    ],
    ids=[
        "no-section", "int-subgroup", "no-branch", "object-decisions", "params-without-n",
        "int-branch", "bad-branch-label", "string-I", "bool-quot-F", "int-selected",
        "array-rate", "float-n", "int-mode", "n-too-large", "n-huge", "faced-not-reversed",
        "decisions-out-of-order",
    ],
)
def test_plan_from_json_rejects_malformed_structure(edit, message):
    plan = plan_to_json(build_plan(pure_overlap_channel(0.5), CodeParams(n=1, tau=1.0)))
    plan = json.loads(json.dumps(plan))
    edit(plan)
    with pytest.raises(LoadError, match="^" + re.escape(message)):
        plan_from_json(plan)


def test_lift_message_validation():
    w = pure_overlap_channel(0.5)
    plan = build_plan(w, CodeParams(n=1, tau=1.0))
    other = Subgroup(plan.group, (0, 1))
    from cqpolar.groups import quotient_cosets
    from cqpolar.codes import MessageVector

    bad = MessageVector([quotient_cosets(plan.group, other)[0]] * 2)
    if plan.decisions[0].subgroup.indices == other.indices:
        pytest.skip("plan froze every branch; nothing to validate")
    with pytest.raises(StructuralError):
        lift_message(plan, bad)


def test_codeword_elements_helper():
    w = pure_overlap_channel(0.5)
    plan = build_plan(w, CodeParams(n=1, tau=1.0, sections="zero"))
    msg = message_from_positions(plan, [1, 1])
    els = codeword_elements(plan, encode(plan, msg))
    assert [e.residues for e in els] == [(0,), (1,)]


@pytest.mark.parametrize("tau", [-1e-3, float("nan"), float("inf")])
def test_code_params_refuse_a_negative_or_non_finite_tau(tau):
    with pytest.raises(StructuralError, match="tau must be finite and >= 0"):
        CodeParams(n=2, tau=tau)
    plan = plan_to_json(build_plan(pure_overlap_channel(0.5), CodeParams(n=1, tau=1.0)))
    plan["params"]["tau"] = tau
    with pytest.raises(LoadError, match="^plan: params: tau must be finite and >= 0"):
        plan_from_json(plan)


def test_plan_from_json_names_an_unreadable_file(tmp_path):
    (tmp_path / "bad.json").write_text("[1,")
    for name in ("missing.json", "bad.json"):
        path = tmp_path / name
        with pytest.raises(LoadError, match="^" + re.escape(f"cannot read plan JSON {path}: ")):
            plan_from_json(str(path))
