import copy
import dataclasses
import hashlib
import itertools
import json

import numpy as np
import pytest

from conftest import pure_overlap_channel, random_mixed_channel
from oracles import (
    conditional_states_bruteforce,
    experiment_one_trial_at_a_time,
    sc_pick_distribution,
    sc_posteriors_bruteforce,
)

from cqpolar.channel import (
    CqChannel,
    HybridState,
    channel_to_json,
    load_channel,
    preset_channel,
)
from cqpolar.codes import (
    CodeParams,
    build_plan,
    polar_encode_indices,
    random_message,
)
from cqpolar import decoder
from cqpolar.decoder import (
    JointOutputState,
    SCDecoder,
    _Likelihoods,
    decode,
    error_experiment,
    step_povm,
)
from cqpolar.config import ResourceCaps
from cqpolar.errors import CapacityError, StructuralError
from cqpolar.groups import FiniteAbelianGroup, random_section_map
from cqpolar.linalg import pgm_effects
from cqpolar.polarize import decode_index, synthesize, reverse_label
from cqpolar.states import pure_state, to_dense


def test_noiseless_exact_recovery():
    w = preset_channel("pure-states", angles=[0.0, np.pi / 2])
    plan = build_plan(w, CodeParams(n=2, seed=0))
    eng = SCDecoder(plan, w)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        msg = random_message(plan, rng)
        est, trace = eng.decode(eng.transmit(msg, rng), rng)
        assert trace.success
        assert all(s.p_step == pytest.approx(1.0, abs=1e-9) for s in trace.steps)


def test_fully_frozen_plan_always_succeeds():
    half = np.eye(2, dtype=complex) / 2
    useless = CqChannel(FiniteAbelianGroup([2]), [HybridState([(1.0, (), half)])] * 2)
    plan = build_plan(useless, CodeParams(n=2, seed=1))
    assert plan.rate == 0.0
    eng = SCDecoder(plan, useless)
    rng = np.random.default_rng(0)
    msg = random_message(plan, rng)
    est, trace = eng.decode(eng.transmit(msg, rng), rng)
    assert trace.success  # the only message is the frozen one


def test_step_povm_trivial_for_frozen_branch():
    half = np.eye(2, dtype=complex) / 2
    useless = CqChannel(FiniteAbelianGroup([2]), [HybridState([(1.0, (), half)])] * 2)
    plan = build_plan(useless, CodeParams(n=1))
    povm = step_povm(plan, 0, (), useless)
    assert len(povm.effects) == 1
    np.testing.assert_allclose(povm.effects[0], np.eye(4), atol=1e-12)


def test_step_povm_validity_and_projectivity():
    w = preset_channel("pure-states", angles=[0.0, np.pi / 2])
    plan = build_plan(w, CodeParams(n=1, seed=0))
    povm = step_povm(plan, 0, (), w)
    povm.validate()
    # orthogonal conditional states: the PGM is projective and errorless
    eng = SCDecoder(plan, w)
    sig = [to_dense(s) for s in eng.conditional_states(0, ())]
    err = 1.0 - sum(
        float(np.real(np.trace(e @ s))) for e, s in zip(povm.effects, sig)
    ) / len(sig)
    assert err == pytest.approx(0.0, abs=1e-9)


def test_step_povm_error_bounded_by_quotient_fidelity():
    # average step error <= (|G/H|-1) F(W^faced[H]) on every step and prefix
    w = pure_overlap_channel(0.5)
    plan = build_plan(w, CodeParams(n=2, seed=2, tau=1.0))
    eng = SCDecoder(plan, w)
    for i, d in enumerate(plan.decisions):
        faced = synthesize(w, d.faced)
        bound = (len(eng._cells[i]) - 1) * faced.quotient(d.subgroup).avg_fidelity()
        for prefix in itertools.product(range(2), repeat=i):
            povm = step_povm(plan, i, prefix, w)
            povm.validate()
            sig = [to_dense(s) for s in eng.conditional_states(i, tuple(prefix))]
            err = 1.0 - sum(
                float(np.real(np.trace(e @ s))) for e, s in zip(povm.effects, sig)
            ) / len(sig)
            assert err <= bound + 1e-9


_ORACLE_CHANNELS = {
    "pure-qubit-0.9": lambda: preset_channel("pure-states", angles=[0.0, 0.9]),
    "mixed-z2": lambda: preset_channel("random", q=2, k=2, mixed=True, seed=4),
    "pure-z4": lambda: preset_channel("random", q=4, k=2, seed=5),
    "pure-z2xz2": lambda: preset_channel("random", q=4, k=2, group=[2, 2], seed=6),
}


def _leaf_densities(w):
    return [to_dense(h.branches[0][2]) for h in w.outputs]


# n=3 cases: the channel whose plan gives the cells (any plan's will do, and
# these scans are cheap), the steps and the prefixes per step checked
_DEEP_CASES = {
    "pure-qubit-0.9": (_ORACLE_CHANNELS["pure-qubit-0.9"], range(8), 16),
    "mixed-z2": (_ORACLE_CHANNELS["pure-qubit-0.9"], range(8), 16),
    # the parents W^{s[:-1]} of steps 5-7 hold 64 labels: positions reach 10
    "pure-z4": (lambda: preset_channel("classical-symmetric", q=4, p=0.1), range(5, 8), 4),
}


@pytest.mark.parametrize("n, key", [(2, key) for key in _ORACLE_CHANNELS]
                         + [(3, key) for key in _DEEP_CASES])
def test_conditional_states_match_the_enumerated_kron_chains(n, key):
    # at n=2 every prefix of every step.  At n=3 a step-i prefix of a q=4
    # chain enumerates 4^(7-i) later words of a 256-dimensional state, so
    # pure-z4 checks only the first prefixes of its last steps
    w = _ORACLE_CHANNELS[key]()
    default = (_ORACLE_CHANNELS[key], range(4), None)
    plan_channel, steps, count = _DEEP_CASES[key] if n == 3 else default
    plan = build_plan(plan_channel(), CodeParams(n=n, tau=1.0))
    eng = SCDecoder(plan, w)
    leaves = _leaf_densities(w)
    for i in steps:
        d = plan.decisions[i]
        prefixes = itertools.product(range(w.q), repeat=i)
        for prefix in itertools.islice(prefixes, count):
            got = [to_dense(s) for s in eng.conditional_states(i, prefix)]
            want = conditional_states_bruteforce(
                leaves, w.alphabet.add_table, n, prefix, d.subgroup.partition[0]
            )
            assert np.max(np.abs(np.array(got) - np.array(want))) <= 1e-12


def test_induced_channel_equals_reversed_synthetic_exactly():
    # the conditional channel at decode step s, with uniform prefixes kept as
    # classical registers, is the synthetic channel of the reversed label
    for w in [pure_overlap_channel(0.5), random_mixed_channel(np.random.default_rng(7), 2, 2)]:
        plan = build_plan(w, CodeParams(n=2, tau=1.0))
        q, leaves = w.q, _leaf_densities(w)
        for i, d in enumerate(plan.decisions):
            outs = []
            for v in range(q):
                branches = [
                    (1.0 / q**i, prefix, conditional_states_bruteforce(
                        leaves, w.alphabet.add_table, 2, prefix, [[v]])[0])
                    for prefix in itertools.product(range(q), repeat=i)
                ]
                outs.append(HybridState(branches))
            induced = CqChannel(w.alphabet, outs)
            faced = synthesize(w, reverse_label(d.branch))
            assert _hybrid_channels_equal(induced, faced, q)


def _hybrid_channels_equal(a, b, q, atol=1e-10):
    """Exact equality as hybrid channels up to one label bijection."""
    mapping = {}
    used = set()
    for w_a, lab_a, st_a in a.outputs[0].branches:
        hit = None
        for w_b, lab_b, st_b in b.outputs[0].branches:
            if repr(lab_b) in used:
                continue
            if abs(w_a - w_b) < 1e-12 and np.max(
                np.abs(to_dense(st_a) - to_dense(st_b))
            ) < atol:
                hit = lab_b
                break
        if hit is None:
            return False
        mapping[repr(lab_a)] = repr(hit)
        used.add(repr(hit))
    for x in range(q):
        lut = {repr(l): (wb, to_dense(s)) for wb, l, s in b.outputs[x].branches}
        for w_a, lab_a, st_a in a.outputs[x].branches:
            wb, sb = lut[mapping[repr(lab_a)]]
            if abs(w_a - wb) > 1e-12 or np.max(np.abs(to_dense(st_a) - sb)) > atol:
                return False
    return True


def test_trace_survival_union_bound():
    # 1 - survival <= 2 sqrt(N) sqrt(sum_i (1 - p_step_i)) on every trace
    w = pure_overlap_channel(0.5)
    plan = build_plan(w, CodeParams(n=2, seed=3, tau=1.0))
    eng = SCDecoder(plan, w)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        msg = random_message(plan, rng)
        _, trace = eng.decode(eng.transmit(msg, rng), rng)
        missing = sum(1.0 - s.p_step for s in trace.steps)
        n_steps = len(trace.steps)
        assert 1.0 - trace.steps[-1].survival <= 2 * np.sqrt(n_steps) * np.sqrt(
            max(0.0, missing)
        ) + 1e-9


def test_diagonal_path_matches_dense_quantum_path():
    w = preset_channel("classical-symmetric", q=2, p=0.2)
    plan = build_plan(w, CodeParams(n=2, seed=5, tau=0.9))
    diag = SCDecoder(plan, w)
    assert diag.kind == "diagonal"
    # dense twin built from the engine's own (merged, column-ordered) table so
    # that an output column maps to the matching basis state
    dense_channel = CqChannel(
        w.alphabet,
        [HybridState([(1.0, (), np.diag(row.astype(complex)))]) for row in diag.table],
    )
    dense_channel._diag_flag = False  # force the quantum path
    dense = SCDecoder(plan, dense_channel)
    assert dense.kind == "mixed"
    k = int(diag.table.shape[1])
    for seed in range(10):
        rng = np.random.default_rng([1, seed])
        msg = random_message(plan, rng)
        rcv = diag.transmit(msg, rng)
        # feed the quantum decoder the post-measurement basis state |y>
        ket = np.array([1.0 + 0j])
        for col in rcv.data:
            ket = np.kron(ket, np.eye(k, dtype=complex)[col])
        dense_rcv = JointOutputState("mixed", ket, rcv.codeword, msg)
        est1, tr1 = diag.decode(rcv, np.random.default_rng([2, seed]))
        est2, tr2 = dense.decode(dense_rcv, np.random.default_rng([2, seed]))
        assert [c.rep_index for c in est1.cosets] == [c.rep_index for c in est2.cosets]
        for a, b in zip(tr1.steps, tr2.steps):
            assert a.p_step == pytest.approx(b.p_step, abs=1e-9)


def test_diagonal_decoder_matches_bruteforce_posteriors():
    # BSC, Z3, and symmetric q=4 with steps that decide cosets of {0, 2}
    for q, p, n in [(2, 0.25, 3), (3, 0.15, 3), (4, 0.1, 2)]:
        w = preset_channel("classical-symmetric", q=q, p=p)
        plan = build_plan(w, CodeParams(n=n, seed=6, tau=0.5))
        if q == 4:
            assert any(d.subgroup.indices == (0, 2) for d in plan.decisions)
        _replay_against_bruteforce(plan, w, np.random.default_rng(9))


def _replay_against_bruteforce(plan, w, rng):
    """Replay the butterfly along decoded paths; compare each step with brute force."""
    eng = SCDecoder(plan, w)
    g, q, N = plan.group, plan.group.order, plan.block_length

    def encode_list(u):
        x, _ = polar_encode_indices(g, np.array(u))
        return x.tolist()

    for _ in range(5):
        msg = random_message(plan, rng)
        rcv = eng.transmit(msg, rng)
        est, trace = eng.decode(rcv, rng)
        lik = _Likelihoods(g, eng.table, rcv.data[None], eng._coset_sums)
        prefix = []
        for i, (d, cells, step) in enumerate(zip(plan.decisions, eng._cells, trace.steps)):
            pick = next(k for k, c in enumerate(cells) if c.rep_index == step.decoded_rep)
            if len(cells) > 1:
                ours = lik.probabilities(i)[0]
                ours = ours / ours.sum()
                ref = sc_posteriors_bruteforce(
                    eng.table, None, encode_list, N, q, rcv.data, prefix, eng._members[i]
                )
                np.testing.assert_allclose(ours, ref, atol=1e-10)
                assert step.p_step == pytest.approx(ref[pick], abs=1e-10)
            prefix.append(d.section(cells[pick]).index)
            lik.fix(i, np.array(prefix[-1:]))


def test_diagonal_decode_draws_one_double_per_multi_coset_step():
    plan = build_plan(_BSC, CodeParams(n=4, tau=1e-3))
    eng = SCDecoder(plan, _BSC)
    draws = sum(len(cells) > 1 for cells in eng._cells)
    assert 0 < draws < plan.block_length
    for seed in range(3):
        rng = np.random.default_rng([3, seed])
        rcv = eng.transmit(random_message(plan, rng), rng)
        twin = copy.deepcopy(rng)
        eng.decode(rcv, rng)
        twin.random(draws)
        assert rng.bit_generator.state == twin.bit_generator.state


def test_failed_diagonal_decode_draws_only_for_the_steps_reached():
    # a Z-channel: output column 0 rules input 0 out, so some words are impossible
    z = CqChannel(
        FiniteAbelianGroup([2]),
        [HybridState([(1.0, (), np.diag(r).astype(complex))]) for r in ([1.0, 0.0], [0.4, 0.6])],
    )
    plan = build_plan(z, CodeParams(n=3, tau=0.05))
    eng = SCDecoder(plan, z)
    failures = 0
    for y in itertools.product(range(eng.table.shape[1]), repeat=plan.block_length):
        rng = np.random.default_rng(list(y))
        twin = copy.deepcopy(rng)
        _, trace = eng.decode(JointOutputState("diagonal", y, None), rng)
        twin.random(sum(len(cells) > 1 for cells in eng._cells[: len(trace.steps)]))
        assert rng.bit_generator.state == twin.bit_generator.state
        failures += trace.failed
    assert 0 < failures < 2**plan.block_length


def test_error_experiment_perfect_and_frozen():
    perfect = preset_channel("pure-states", angles=[0.0, np.pi / 2])
    plan = build_plan(perfect, CodeParams(n=2, seed=0))
    rep = error_experiment(perfect, plan, trials=50, seed=1)
    assert rep["block_error"] == 0.0

    half = np.eye(2, dtype=complex) / 2
    useless = CqChannel(FiniteAbelianGroup([2]), [HybridState([(1.0, (), half)])] * 2)
    plan0 = build_plan(useless, CodeParams(n=2, seed=0))
    rep0 = error_experiment(useless, plan0, trials=50, seed=1)
    assert rep0["block_error"] == 0.0
    assert rep0["rate_nats"] == 0.0


def test_error_experiment_is_deterministic():
    w = pure_overlap_channel(0.5)
    plan = build_plan(w, CodeParams(n=2, seed=2, tau=0.5))
    r1 = error_experiment(w, plan, trials=40, seed=11)
    r2 = error_experiment(w, plan, trials=40, seed=11)
    assert r1 == r2


def test_decode_failure_flag_on_impossible_evidence():
    w = preset_channel("pure-states", angles=[0.0, np.pi / 2])
    plan = build_plan(w, CodeParams(n=1, seed=0))
    eng = SCDecoder(plan, w)
    bogus = JointOutputState("pure", np.zeros(4, dtype=complex), np.array([0, 0]))
    _, trace = eng.decode(bogus, np.random.default_rng(0))
    assert trace.failed


def test_mixed_state_channel_roundtrip_small():
    rng = np.random.default_rng(13)
    w = random_mixed_channel(rng, 2, 2)
    plan = build_plan(w, CodeParams(n=1, seed=1, tau=1.0))
    eng = SCDecoder(plan, w)
    assert eng.kind == "mixed"
    rep = error_experiment(w, plan, trials=30, seed=2)
    assert 0.0 <= rep["block_error"] <= 1.0
    assert rep["bound_holds_within_3sigma"]


def test_group_q4_decoding(z4_homomorphism_channel):
    plan = build_plan(z4_homomorphism_channel, CodeParams(n=1, seed=0))
    assert all(d.subgroup.indices == (0, 2) for d in plan.decisions)
    rep = error_experiment(z4_homomorphism_channel, plan, trials=60, seed=3)
    assert rep["block_error"] == 0.0  # the quotient symbol is noiseless


def _via_file(w):
    return load_channel(channel_to_json(w))


_BSC = preset_channel("classical-symmetric", q=2, p=0.05)
_PURE_QUBIT = preset_channel("pure-states", angles=[0.0, 0.9])
_Z4 = preset_channel("random", q=4, k=2, seed=3)


@pytest.mark.parametrize(
    "built_on, decoded_with, n, tau, trials, kind, errors, first_error, mismatch",
    [
        (_BSC, _BSC, 4, 1e-3, 200, "diagonal", 0, [0.0] * 16, [0.0] * 16),
        (_BSC, _BSC, 6, 1e-3, 40, "diagonal", 0, [0.0] * 64, [0.0] * 64),
        (_PURE_QUBIT, _PURE_QUBIT, 3, 0.05, 60, "pure", 0, [0.0] * 8, [0.0] * 8),
        (_PURE_QUBIT, _via_file(_PURE_QUBIT), 3, 0.05, 30, "pure", 0, [0.0] * 8, [0.0] * 8),
        (_Z4, _via_file(_Z4), 2, 0.3, 200, "pure", 15,
         [0.0, 0.0, 0.065, 0.01], [0.0, 0.0, 0.065, 0.055]),
    ],
    ids=["bsc-n4", "bsc-n6", "pure-qubit-n3", "pure-qubit-n3-file", "z4-n2-file"],
)
def test_mixed_plan_with_fixed_sections(
    built_on, decoded_with, n, tau, trials, kind, errors, first_error, mismatch
):
    # plans that mix frozen and info slots, one per decoder kind; errors and
    # profiles are pinned so that any change to the SC loop's output shows
    plan = build_plan(built_on, CodeParams(n=n, tau=tau))
    frozen = [d.subgroup.order == plan.group.order for d in plan.decisions]
    assert any(frozen) and not all(frozen)
    assert SCDecoder(plan, decoded_with).kind == kind
    rep = error_experiment(decoded_with, plan, trials, seed=1, randomize_sections=False)
    assert rep["errors"] == errors
    assert rep["first_error_profile"] == first_error
    assert rep["step_mismatch_profile"] == mismatch
    assert rep["bound_holds_within_3sigma"]


@pytest.mark.parametrize(
    "W, n, tau, trials",
    [(_BSC, 4, 1e-3, 200), (_BSC, 6, 1e-3, 60), (_PURE_QUBIT, 3, 0.05, 60)],
    ids=["bsc-n4", "bsc-n6", "pure-qubit-n3"],
)
def test_decoder_lifts_with_the_encoders_sections(W, n, tau, trials):
    # per-trial random sections reach the decoder with the received state, so
    # the block error agrees with fixed sections and with the plan's bound
    plan = build_plan(W, CodeParams(n=n, tau=tau))
    rand = error_experiment(W, plan, trials, seed=1)
    fixed = error_experiment(W, plan, trials, seed=1, randomize_sections=False)
    assert rand["bound_holds_within_3sigma"]
    (lo_r, hi_r), (lo_f, hi_f) = rand["wilson_3sigma"], fixed["wilson_3sigma"]
    assert lo_r <= hi_f and lo_f <= hi_r


@pytest.mark.parametrize("W", [_BSC, _PURE_QUBIT], ids=["diagonal", "pure"])
def test_sections_of_another_subgroup_are_rejected(W):
    # a section is read by coset position, so one over another step's
    # subgroup must be refused rather than lift to a value outside the coset
    plan = build_plan(W, CodeParams(n=2, tau=0.5))
    eng = SCDecoder(plan, W)
    rng = np.random.default_rng(0)
    own = [random_section_map(d.subgroup, rng) for d in plan.decisions]
    pairs = itertools.combinations(range(len(own)), 2)
    i, j = next((a, b) for a, b in pairs if own[a].subgroup != own[b].subgroup)
    swapped = list(own)
    swapped[i], swapped[j] = own[j], own[i]
    message = random_message(plan, rng)
    received = eng.transmit(message, rng, own)
    eng.decode(received, rng)
    for bad in (swapped, own[:-1]):
        with pytest.raises(StructuralError, match="section"):
            eng.transmit(message, rng, bad)
        with pytest.raises(StructuralError, match="section"):
            eng.decode(dataclasses.replace(received, sections=bad), rng)


def _pure_qubit_plan(n, tau):
    w = _ORACLE_CHANNELS["pure-qubit-0.9"]()
    return w, build_plan(w, CodeParams(n=n, tau=tau))


@pytest.mark.parametrize("bad", [[5], [0.5], [-1]])
def test_step_povm_refuses_a_prefix_entry_that_is_no_element_index(bad):
    # 5 is out of range, 0.5 is not an integer and -1 would index from the end
    w, plan = _pure_qubit_plan(2, 0.5)
    with pytest.raises(StructuralError, match=r"step 1: decided prefix \(.*\) is not 1 element"):
        step_povm(plan, 1, bad, w)


def test_step_povm_takes_group_elements_and_numpy_integers():
    w, plan = _pure_qubit_plan(2, 0.5)
    want = step_povm(plan, 1, [1], w).effects
    for prefix in ([np.int64(1)], [plan.group.element_by_index(1)]):
        assert np.array_equal(step_povm(plan, 1, prefix, w).effects, want)


@pytest.mark.parametrize("prefix", [(0, 0), (), (2,), (True,)])
def test_conditional_states_refuse_a_prefix_of_another_length_or_element(prefix):
    # a prefix of another length would name the states of another step
    w, plan = _pure_qubit_plan(2, 0.5)
    with pytest.raises(StructuralError, match=r"step 1: decided prefix"):
        SCDecoder(plan, w).conditional_states(1, prefix)


@pytest.mark.parametrize("step", [8, -1])
def test_step_queries_refuse_a_step_outside_the_block(step):
    # 8 is one past the last step of N=8, and -1 would index the last step
    w, plan, _, _ = _noisy_plan("pure-0.6-n3")
    prefix = (0,) * max(step, 0)
    match = rf"step {step} is outside \[0, 8\)"
    with pytest.raises(StructuralError, match=match):
        SCDecoder(plan, w).conditional_states(step, prefix)
    with pytest.raises(StructuralError, match=match):
        step_povm(plan, step, list(prefix), w)


def test_step_povm_refuses_a_label_with_another_sign():
    # decode_index reads every entry other than "+" as "-": this would name step 0
    w, plan, _, _ = _noisy_plan("pure-0.6-n3")
    with pytest.raises(StructuralError, match=r"branch label \('x', 'y', 'z'\) is not 3 signs"):
        step_povm(plan, ("x", "y", "z"), [], w)


def test_step_povm_refuses_a_label_of_another_length():
    # ("+",) would name step 1 of the n=3 block
    w, plan, _, _ = _noisy_plan("pure-0.6-n3")
    with pytest.raises(StructuralError, match=r"branch label \('\+',\) is not 3 signs"):
        step_povm(plan, ("+",), [], w)


def test_a_decoding_capacity_error_names_the_branch_and_its_depth():
    # only step 7 has two cosets; it faces W^{+++}, whose outputs have 128 branches
    w, plan = _pure_qubit_plan(3, 0.05)
    match = r"branch \+\+\+ at depth 3: plus transform: classical branch count 128 exceeds cap 64"
    with pytest.raises(CapacityError, match=match):
        error_experiment(w, plan, 20, 0, caps=ResourceCaps(branch_cap=64))


def test_quantum_step_queries_reject_a_diagonal_plan():
    plan = build_plan(_BSC, CodeParams(n=2, tau=0.5))
    eng = SCDecoder(plan, _BSC)
    assert eng.kind == "diagonal"
    i = next(j for j, cells in enumerate(eng._cells) if len(cells) > 1)
    prefix = (0,) * i
    for query in (
        lambda: eng.conditional_states(i, prefix),
        lambda: eng.step_povm_rep(i, prefix),
        lambda: step_povm(plan, i, prefix, _BSC),
    ):
        with pytest.raises(StructuralError, match="diagonal plan"):
            query()


_NOISY = {
    "bsc-0.2-n6": ("classical-symmetric", dict(q=2, p=0.2), 6, 0.5, 60),
    "z3-0.15-n4": ("classical-symmetric", dict(q=3, p=0.15), 4, 0.5, 150),
    "symmetric-q4-0.15-n3": ("classical-symmetric", dict(q=4, p=0.15), 3, 0.5, 200),
    "depolarized-q4-0.4-n3": ("depolarized-orthogonal", dict(q=4, lam=0.4), 3, 0.5, 200),
    "symmetric-q4-0.25-n3": ("classical-symmetric", dict(q=4, p=0.25), 3, 0.9, 200),
}

# (errors, sha256 prefix of the sorted-key JSON report) for experiment seeds
# 0-2, each with random then fixed sections, as the per-trial recursive
# decoder reported them; the z3-0.15, symmetric-q4-0.15 and depolarized
# digests are re-pinned for the shift-canonical table engine, under which
# only the plan's ``bound`` moved, in its last ulps
_NOISY_PINNED = {
    "bsc-0.2-n6": [(21, "74a674a86d09"), (22, "6b91109f5c9c"), (22, "98c21e32272e"),
                   (24, "d028c01f1839"), (24, "46ff85f647a0"), (25, "4c210a001e30")],
    "z3-0.15-n4": [(31, "b3fbb1264eca"), (27, "5188eb6cfaee"), (31, "145f08e36cc9"),
                   (30, "128cb2a96a97"), (29, "ed16adffc496"), (34, "70df194521aa")],
    "symmetric-q4-0.15-n3": [(49, "096234e73945"), (34, "1ac1fdc92f7d"), (36, "370a665686fb"),
                             (44, "00b0cdc484d7"), (41, "2cfdd22693b6"), (39, "8e0230ee054e")],
    "depolarized-q4-0.4-n3": [(8, "6d04d49a395a"), (11, "a13639a5fd95"), (6, "2a41c6114106"),
                              (6, "2a41c6114106"), (8, "6d04d49a395a"), (9, "79f31534ef93")],
    "symmetric-q4-0.25-n3": [(75, "b718e9d04e75"), (69, "758ad8f68a72"), (71, "6da1e44cd0f4"),
                             (75, "ee48eaf27a2a"), (82, "d25096abdf62"), (77, "f4693bb059d3")],
}


def _pinned_reports(w, plan, trials):
    """(errors, digest prefix) of the reports at seeds 0-2, random then fixed sections."""
    got = []
    for seed in range(3):
        for randomize in (True, False):
            rep = error_experiment(w, plan, trials, seed, randomize_sections=randomize)
            digest = hashlib.sha256(json.dumps(rep, sort_keys=True).encode()).hexdigest()
            got.append((rep["errors"], digest[:12]))
    return got


@pytest.mark.parametrize("key", list(_NOISY))
def test_noisy_classical_experiments_are_pinned(key):
    # whole reports of noisy plans (errors on most seeds, {0, 2} steps on the
    # last), so any change to the classical SC path's picks shows
    preset, kwargs, n, tau, trials = _NOISY[key]
    w = preset_channel(preset, **kwargs)
    plan = build_plan(w, CodeParams(n=n, tau=tau))
    assert SCDecoder(plan, w).kind == "diagonal"
    assert _pinned_reports(w, plan, trials) == _NOISY_PINNED[key]


_PURE_NOISY = preset_channel("pure-states", angles=[0.0, 0.6])
_QUANTUM_NOISY = {
    "pure-0.6-n3": (_PURE_NOISY, 3, 0.5, 80),
    "pure-0.6-n3-file": (_via_file(_PURE_NOISY), 3, 0.5, 80),
    "dense-q2-n2": (random_mixed_channel(np.random.default_rng(13), 2, 2), 2, 0.9, 60),
    "dense-q3-n2": (random_mixed_channel(np.random.default_rng(4), 3, 2), 2, 0.9, 60),
}

# as _NOISY_PINNED, reported by the per-trial quantum loop that drew its picks
# with Generator.choice; the dense entries, whose outputs are mixed, as reported
# once each use sent a drawn output component
_QUANTUM_PINNED = {
    "pure-0.6-n3": [(12, "533d18c6c34a"), (14, "331221ff6bb8"), (12, "02af598861fd"),
                    (13, "15810be6982d"), (12, "b848dba65884"), (12, "66f61f689af6")],
    "pure-0.6-n3-file": [(12, "5032343d70a9"), (14, "35392a172671"), (12, "6f34f883b20f"),
                         (13, "90e0119f7bdc"), (12, "f45251a34aa4"), (12, "36d14890a6b0")],
    "dense-q2-n2": [(2, "46f035c544c9"), (5, "f2edfe5d8894"), (2, "46f035c544c9"),
                    (2, "46f035c544c9"), (1, "1217bf53cc9c"), (3, "31bc75dcb988")],
    "dense-q3-n2": [(11, "fa369658c403"), (4, "d2665f280da1"), (5, "b29ba05b639d"),
                    (6, "feeef21e537a"), (7, "f83779904fcf"), (5, "b29ba05b639d")],
}


def _quantum_kind(key):
    """The decoder kind of a _QUANTUM_NOISY plan: the dense channels' outputs are mixed."""
    return "pure" if key.startswith("pure") else "mixed"


@pytest.mark.parametrize("key", list(_QUANTUM_NOISY))
def test_noisy_quantum_experiments_are_pinned(key):
    # whole reports of noisy pure and mixed plans, so any change to the
    # quantum SC path's picks shows
    w, n, tau, trials = _QUANTUM_NOISY[key]
    plan = build_plan(w, CodeParams(n=n, tau=tau))
    assert SCDecoder(plan, w).kind == _quantum_kind(key)
    assert _pinned_reports(w, plan, trials) == _QUANTUM_PINNED[key]


def test_quantum_decode_draws_one_double_per_multi_coset_step_reached():
    # amplitudes scaled to a squared norm just above the survival floor: the
    # first measurement picks, and the state then collapses unless the pick
    # had probability near 1; a zero state fails before its first pick
    w = pure_overlap_channel(0.5)
    plan = build_plan(w, CodeParams(n=2, tau=1.0))
    eng = SCDecoder(plan, w)
    multi = [len(cells) > 1 for cells in eng._cells]
    assert eng.kind == "pure" and sum(multi) > 1
    outcomes = set()
    for t in range(20):
        rng = np.random.default_rng([7, t])
        rcv = eng.transmit(random_message(plan, rng), rng)
        scale = (1.0, 1.004e-150, 0.0)[t % 3]
        rcv = dataclasses.replace(rcv, data=rcv.data * scale)
        twin = copy.deepcopy(rng)
        _, trace = eng.decode(rcv, rng)
        reached = len(trace.steps)
        if trace.failed and scale > 0.0:  # the collapsing step drew its pick
            reached += 1
        twin.random(sum(multi[:reached]))
        assert rng.bit_generator.state == twin.bit_generator.state
        outcomes.add((scale, trace.failed))
    assert {(1.0, False), (1.004e-150, True), (0.0, True)} <= outcomes


def _noisy_plan(key):
    """(channel, plan, trials, pinned reports) of a _NOISY or _QUANTUM_NOISY entry."""
    if key in _NOISY:
        preset, kwargs, n, tau, trials = _NOISY[key]
        w, pinned = preset_channel(preset, **kwargs), _NOISY_PINNED[key]
    else:
        (w, n, tau, trials), pinned = _QUANTUM_NOISY[key], _QUANTUM_PINNED[key]
    return w, build_plan(w, CodeParams(n=n, tau=tau)), trials, pinned


@pytest.mark.parametrize("key", ["bsc-0.2-n6", "pure-0.6-n3", "dense-q2-n2"])
def test_results_do_not_depend_on_the_batch_bound(key, monkeypatch):
    # batches of 1, of 7 and of every trial
    w, plan, trials, pinned = _noisy_plan(key)
    rng = np.random.default_rng(0)
    nbytes = SCDecoder(plan, w).transmit(random_message(plan, rng), rng).data.nbytes
    for bound in (nbytes, 7 * nbytes, float("inf")):
        monkeypatch.setattr(decoder, "_BATCH_BYTES", bound)
        assert _pinned_reports(w, plan, trials) == pinned


@pytest.mark.parametrize("key", ["symmetric-q4-0.25-n3", "pure-0.6-n3", "dense-q2-n2"])
def test_experiment_matches_the_one_trial_at_a_time_oracle(key):
    w, plan, trials, _ = _noisy_plan(key)
    assert SCDecoder(plan, w).kind == ("diagonal" if key in _NOISY else _quantum_kind(key))
    for seed in range(3):
        for randomize in (True, False):
            assert error_experiment(w, plan, trials, seed, randomize_sections=randomize) == (
                experiment_one_trial_at_a_time(w, plan, trials, seed, randomize)
            )


def _two_label_pure_channel():
    """A Z2 channel whose outputs carry two labels, each with a pure state."""
    ket = lambda a: pure_state([np.cos(a), np.sin(a)])  # noqa: E731
    return CqChannel(FiniteAbelianGroup([2]), [
        HybridState([(0.7, "a", ket(0.0)), (0.3, "b", ket(0.3))]),
        HybridState([(0.7, "a", ket(0.9)), (0.3, "b", ket(1.6))]),
    ])


def test_a_channel_with_several_labels_decodes_as_its_flattened_channel():
    # the decoder flattens such a channel into one block-diagonal mixed state
    w = _two_label_pure_channel()
    plan = build_plan(w, CodeParams(n=1, tau=0.5))
    assert any(d.subgroup.order == 1 for d in plan.decisions)  # an information slot
    assert SCDecoder(plan, w).kind == "mixed"
    for seed in range(3):
        report = error_experiment(w, plan, 200, seed)
        assert report == error_experiment(w.flatten_dense(), plan, 200, seed)
        assert report == experiment_one_trial_at_a_time(w, plan, 200, seed)


def test_step_povm_takes_a_branch_label_for_its_decode_position():
    w, plan, _, _ = _noisy_plan("pure-0.6-n3")
    i = next(j for j, d in enumerate(plan.decisions) if len(d.subgroup.cosets) > 1 and j > 0)
    label, prefix = plan.decisions[i].branch, [1] * i
    assert decode_index(label) == i
    want = step_povm(plan, i, prefix, w).effects
    assert np.array_equal(step_povm(plan, label, prefix, w).effects, want)


def test_one_shot_decode_is_the_decoders_decode():
    w, plan, _, _ = _noisy_plan("pure-0.6-n3")
    eng = SCDecoder(plan)
    rng = np.random.default_rng(3)
    received = eng.transmit(random_message(plan, rng), rng)
    (message, trace), (want_message, want_trace) = (
        decode(plan, received, 5), eng.decode(received, 5)
    )
    assert [c.rep_index for c in message.cosets] == [c.rep_index for c in want_message.cosets]
    assert trace == want_trace


@pytest.mark.parametrize("key", ["symmetric-q4-0.25-n3", "bsc-0.2-n6"])
def test_a_trials_four_draws_match_the_scalar_sequence(key):
    # frozen steps and a trivial subgroup give bounds of 1, which draw nothing
    w, plan, _, _ = _noisy_plan(key)
    eng = SCDecoder(plan, w)
    assert 1 in eng._coset_counts and eng._coset_counts.max() > 1
    for t in range(10):
        vec, scalar = np.random.default_rng([4, t]), np.random.default_rng([4, t])
        drawn = [vec.integers(eng._coset_counts), vec.integers(eng._section_highs),
                 vec.random(eng.N), vec.random(eng._draws)]
        expected = [
            [scalar.integers(len(d.subgroup.cosets)) for d in plan.decisions],
            [scalar.integers(d.subgroup.order) for d in plan.decisions for _ in d.subgroup.cosets],
            scalar.random(eng.N),
            scalar.random(eng._draws),
        ]
        for got, want in zip(drawn, expected):
            assert np.array_equal(got, want)
        assert vec.bit_generator.state == scalar.bit_generator.state


def test_concatenated_draws_are_the_separate_draws():
    # the generator keeps its leftover 32 random bits in the bit generator, so
    # one call over concatenated bounds or lengths draws what separate calls
    # draw; bounds of 1, empty bound sets, no noise and no decoder doubles included
    meta = np.random.default_rng(11)
    for t in range(300):
        counts, highs = (meta.integers(1, 5, size=meta.integers(0, 9)) for _ in range(2))
        uses, draws = (int(v) for v in meta.integers(0, 7, size=2))
        apart, joint = np.random.default_rng([3, t]), np.random.default_rng([3, t])
        want = [apart.integers(counts), apart.integers(highs), apart.random(uses),
                apart.random(draws)]
        ints, doubles = joint.integers(np.concatenate([counts, highs])), joint.random(uses + draws)
        got = [ints[: counts.size], ints[counts.size :], doubles[:uses], doubles[uses:]]
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
        assert joint.bit_generator.state == apart.bit_generator.state


@pytest.mark.parametrize(
    "key", ["bsc-0.2-n6", "symmetric-q4-0.25-n3", "pure-0.6-n3", "dense-q2-n2"]
)
def test_trial_batch_draws_what_the_separate_calls_draw(key):
    w, plan, _, _ = _noisy_plan(key)
    eng = SCDecoder(plan, w)
    steps = np.arange(eng.N)
    for randomize in (True, False):
        truth, lifts, data, uniforms = eng._trial_batch(5, range(4), randomize)
        for t in range(4):
            rng = np.random.default_rng([5, t])
            positions = rng.integers(eng._coset_counts)
            if randomize:
                members = rng.integers(eng._section_highs)
                want = eng._lookup[steps[:, None], np.arange(w.q), members[eng._section_at]]
                assert np.array_equal(lifts[t], want)
            noise = rng.random(eng.N)[None] if eng.kind != "pure" else None
            codeword, _ = polar_encode_indices(plan.group, lifts[t, steps, positions][None])
            assert np.array_equal(data[t], eng._received(codeword, noise)[0])
            assert np.array_equal(truth[t], eng._lookup[steps, positions, 0])
            assert np.array_equal(uniforms[t], rng.random(eng._draws))


@pytest.mark.parametrize("key", ["pure-0.6-n3", "dense-q2-n2"])
def test_a_prefix_group_with_mixed_fates_decodes_as_its_rows_alone(key):
    # every row sends under the plan's sections, so all share the prefix at the
    # first multi-coset step; row 0 is zero and fails there, row 1 is scaled to
    # just above the survival floor and collapses after its pick, the rest decode
    w, plan, _, _ = _noisy_plan(key)
    eng = SCDecoder(plan, w)
    first = next(i for i, cells in enumerate(eng._cells) if len(cells) > 1)
    rng = np.random.default_rng(2)
    data = np.array([eng.transmit(random_message(plan, rng), rng).data for _ in range(6)])
    data[0] = 0.0
    data[1] *= 1.002e-150
    lifts = np.broadcast_to(eng._lifts(None), (6, eng.N, plan.group.order))
    uniforms = rng.random((6, eng._draws))
    batch = eng._decode_batch(data, lifts, uniforms)
    _, _, fail_at, used = batch
    assert fail_at[0] == fail_at[1] == first and (used[0], used[1]) == (0, 1)
    assert np.all(fail_at[2:] == eng.N) and np.all(used[2:] == eng._draws)
    for row in range(6):
        one = slice(row, row + 1)
        alone = eng._decode_batch(data[one], lifts[one], uniforms[one])
        for got, want in zip(batch, alone):
            assert np.array_equal(got[row], want[0])


@pytest.mark.parametrize("key", ["pure-0.6-n3", "dense-q2-n2", "dense-q3-n2"])
def test_step_povms_built_together_are_those_built_alone(key):
    # one builder call over every 7th prefix of every multi-coset step: the
    # stacked LAPACK calls decompose each matrix as a lone call would
    w, plan, _, _ = _noisy_plan(key)
    eng = SCDecoder(plan, w)
    build = decoder._subspace_pgm if eng.kind == "pure" else decoder._dense_pgm
    lists = [
        eng.conditional_states(i, prefix)
        for i, cells in enumerate(eng._cells) if len(cells) > 1
        for prefix in itertools.islice(itertools.product(range(w.q), repeat=i), 0, None, 7)
    ]
    together = build(lists)
    if eng.kind == "pure":  # several shapes and span ranks in one call
        assert len({tuple(s.rank_bound for s in sigmas) for sigmas in lists}) > 1
        assert len({povm.basis.shape[1] for povm in together}) > 1
    for sigmas, povm in zip(lists, together):
        (alone,) = build([sigmas])
        for got, want in zip(povm.to_povm().effects, alone.to_povm().effects):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("key", ["pure-0.6-n3", "dense-q2-n2"])
def test_step_povms_are_the_pgm_of_the_densified_candidates(key):
    # the linalg PGM on full density matrices is the oracle for both builders
    w, plan, _, _ = _noisy_plan(key)
    eng = SCDecoder(plan, w)
    build = decoder._subspace_pgm if eng.kind == "pure" else decoder._dense_pgm
    lists = [
        eng.conditional_states(i, prefix)
        for i, cells in enumerate(eng._cells) if len(cells) > 1
        for prefix in itertools.product(range(w.q), repeat=i)
    ]
    assert lists
    for sigmas, povm in zip(lists, build(lists)):
        want = pgm_effects(np.array([to_dense(s) for s in sigmas]))
        assert np.max(np.abs(np.array(povm.to_povm().effects) - want)) <= 1e-12


@pytest.mark.parametrize("key", ["pure-0.6-n3", "dense-q2-n2"])
def test_transmitted_states_are_the_kron_chain(key):
    w, plan, _, _ = _noisy_plan(key)
    # a mixed channel sends, per use, the component whose cdf cell holds that
    # use's double, as Generator.choice(p=weights) picks
    eng = SCDecoder(plan, w)
    rng = np.random.default_rng(1)
    codewords = rng.integers(plan.group.order, size=(5, eng.N))
    noise = rng.random(codewords.shape) if eng.kind == "mixed" else None
    received = eng._received(codewords, noise)
    for t, (x, got) in enumerate(zip(codewords, received)):
        want = np.array([1.0 + 0j])
        for j, v in enumerate(x):
            leaf = eng.leaf[int(v)]
            cdf = np.cumsum(leaf.weights / leaf.weights.sum())
            c = 0 if noise is None else int(np.searchsorted(cdf / cdf[-1], noise[t, j], "right"))
            want = np.kron(want, leaf.vecs[c])
        assert np.array_equal(got, want)
    if eng.kind == "mixed":
        assert len({tuple(np.round(r, 12)) for r in received}) > 1


def test_a_diagonal_channel_whose_row_misses_one_is_refused():
    # branch weights off by 5e-8 make a HybridState (it allows 1e-7), but the
    # decoder's likelihood table refuses the row
    good = preset_channel("classical-symmetric", q=2, p=0.1)
    plan = build_plan(good, CodeParams(n=2, tau=0.5))
    kets = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
    off = CqChannel(good.alphabet, [
        HybridState([(0.9 + 5e-8 * (x == 0), "a", kets[x]), (0.1, "b", kets[1 - x])])
        for x in range(2)
    ])
    with pytest.raises(StructuralError, match=r"input \(0,\) sums to 1\.00000005"):
        SCDecoder(plan, off)


def _unravelled_pick_distribution(eng, codeword):
    """Pick-sequence probabilities of decoding the drawn component vectors.

    Sums, over every tuple of output components, the tuple's weight times the
    exact pick distribution of the vector that ``_received`` builds from
    doubles inside the tuple's cdf cells, measured with the decoder's own
    step POVMs and state updates.
    """
    lifts, out = eng._lifts(None), {}

    def walk(i, psi, prefix, picks, prob):
        if i == eng.N:
            out[picks] = out.get(picks, 0.0) + prob
            return
        if len(eng._cells[i]) == 1:
            walk(i + 1, psi, prefix + (int(lifts[i][0]),), picks + (0,), prob)
            return
        povm = eng.step_povm_rep(i, prefix)
        p = povm.probabilities(psi[None])[0]
        for c in range(len(p)):
            post, kept = povm.post_measurement(psi[None], np.array([c]))
            if kept[0]:
                walk(i + 1, post[0], prefix + (int(lifts[i][c]),), picks + (c,),
                     prob * p[c] / p.sum())

    leaves = [eng.leaf[int(x)] for x in codeword]
    for comps in itertools.product(*(range(s.rank_bound) for s in leaves)):
        cells = [eng._cdf[int(x), c - 1 : c + 1] if c else [0.0, eng._cdf[int(x), 0]]
                 for x, c in zip(codeword, comps)]
        noise = np.array([[(lo + hi) / 2.0 for lo, hi in cells]])
        weight = np.prod([hi - lo for lo, hi in cells])
        walk(0, eng._received(codeword[None], noise)[0], (), (), weight)
    return out


@pytest.mark.parametrize("key", ["dense-q2-n2", "dense-q3-n2"])
def test_drawn_components_decode_as_the_density_matrix_does(key):
    # for every message, sent under the plan's sections: averaging the
    # component vectors' decodes gives the exact SC pick distribution of the
    # kron-chain density matrix, measured with the densified step POVMs
    w, plan, _, _ = _noisy_plan(key)
    eng = SCDecoder(plan, w)
    assert eng.kind == "mixed" and max(s.rank_bound for s in eng.leaf) > 1
    lifts, dim = eng._lifts(None), w.k**eng.N

    def step_effects(i, prefix):
        if len(eng._cells[i]) == 1:
            return [np.eye(dim, dtype=complex)]
        return eng.step_povm_rep(i, prefix).to_povm().effects

    steps = np.arange(eng.N)
    messages = list(itertools.product(*(range(len(cells)) for cells in eng._cells)))
    assert len(messages) > 1
    for positions in messages:
        codeword, _ = polar_encode_indices(plan.group, lifts[steps, positions][None])
        rho = np.ones((1, 1), dtype=complex)
        for x in codeword[0]:
            rho = np.kron(rho, to_dense(eng.leaf[int(x)]))
        exact = sc_pick_distribution(rho, step_effects, lifts)
        got = _unravelled_pick_distribution(eng, codeword[0])
        assert sum(exact.values()) == pytest.approx(1.0, abs=1e-12)
        for picks in set(exact) | set(got):
            assert abs(exact.get(picks, 0.0) - got.get(picks, 0.0)) <= 1e-12
