import re

import numpy as np
import pytest

from conftest import pure_overlap_channel, random_mixed_channel, random_pure_channel
from oracles import (
    classical_fd,
    classical_minus,
    classical_plus,
    intermediate_fraction,
    mutual_information_table,
    scan_conservation_defect,
)

import cqpolar.channel as channel_mod
from cqpolar.channel import CqChannel, HybridState, preset_channel
from cqpolar.checks import _direct
from cqpolar.config import ResourceCaps
from cqpolar.diagonal import from_cq_channel
from cqpolar.errors import CapacityError, StructuralError
from cqpolar.groups import FiniteAbelianGroup, Subgroup, enumerate_subgroups
import cqpolar.polarize as polarize_mod
from cqpolar.polarize import (
    MINUS,
    PLUS,
    PathRecord,
    branch_order,
    children,
    decode_index,
    format_label,
    iter_synthetic_channels,
    label_from_index,
    make_record,
    minus_transform,
    parse_label,
    plus_transform,
    polarization_scan,
    process_sample,
    reverse_label,
    synthesize,
)
from cqpolar.states import to_dense


def test_branch_order_examples():
    assert branch_order(1) == [("-",), ("+",)]
    assert branch_order(2) == [
        ("-", "-"),
        ("+", "-"),
        ("-", "+"),
        ("+", "+"),
    ]
    assert branch_order(3)[-1] == ("+", "+", "+")


def test_label_round_trips():
    for n in (1, 2, 3):
        for i, s in enumerate(branch_order(n)):
            assert decode_index(s) == i
            assert label_from_index(i, n) == s
            assert parse_label(format_label(s)) == s
    assert reverse_label(("+", "-")) == ("-", "+")


def test_conservation_and_ordering():
    rng = np.random.default_rng(20)
    for seed in range(6):
        q, k = [2, 3, 4][seed % 3], [2, 3][seed % 2]
        w = (random_mixed_channel if seed % 2 else random_pure_channel)(rng, q, k)
        minus, plus = minus_transform(w), plus_transform(w)
        Im, I, Ip = (
            minus.holevo_information(),
            w.holevo_information(),
            plus.holevo_information(),
        )
        assert Im + Ip == pytest.approx(2 * I, abs=1e-8)
        assert Im <= I + 1e-9 <= Ip + 2e-9


def test_useless_and_perfect_transforms():
    half = np.eye(2, dtype=complex) / 2
    useless = CqChannel(FiniteAbelianGroup([2]), [HybridState([(1.0, (), half)])] * 2)
    assert minus_transform(useless).holevo_information() == pytest.approx(0.0, abs=1e-10)
    assert plus_transform(useless).holevo_information() == pytest.approx(0.0, abs=1e-10)
    perfect = preset_channel("classical-symmetric", q=2, p=0.0)
    assert minus_transform(perfect).holevo_information() == pytest.approx(
        np.log(2), abs=1e-10
    )
    assert plus_transform(perfect).holevo_information() == pytest.approx(
        np.log(2), abs=1e-10
    )


def test_fd_plus_square_identity():
    rng = np.random.default_rng(21)
    for seed in range(5):
        q, k = [2, 3, 4][seed % 3], [2, 3][seed % 2]
        w = random_mixed_channel(rng, q, k)
        plus = plus_transform(w)
        for d in range(q):
            assert plus.fd(d) == pytest.approx(w.fd(d) ** 2, abs=1e-9)


def test_classical_transform_equivalence_through_hybrid_path():
    # the hybrid machinery on a diagonal channel must match the classical
    # polar transform of the probability tables exactly
    for q, p in [(2, 0.11), (3, 0.3)]:
        w = preset_channel("classical-symmetric", q=q, p=p)
        table = from_cq_channel(w).table
        add = lambda a, b: (a + b) % q
        minus = minus_transform(w)
        plus = plus_transform(w)
        minus_ref, plus_ref = (
            classical_minus(table, add, q),
            classical_plus(table, add, q),
        )
        assert minus.holevo_information() == pytest.approx(
            mutual_information_table(minus_ref), abs=1e-10
        )
        assert plus.holevo_information() == pytest.approx(
            mutual_information_table(plus_ref), abs=1e-10
        )
        for d in range(q):
            assert minus.fd(d) == pytest.approx(classical_fd(minus_ref, add, q, d), abs=1e-10)
            assert plus.fd(d) == pytest.approx(classical_fd(plus_ref, add, q, d), abs=1e-10)


def test_synthesize_examples():
    w = pure_overlap_channel(0.5)
    assert synthesize(w, ()).holevo_information() == pytest.approx(
        w.holevo_information(), abs=1e-12
    )
    wpp = synthesize(w, parse_label("++"))
    assert wpp.fd(1) == pytest.approx(w.fd(1) ** 4, abs=1e-9)
    minus, plus = minus_transform(w), plus_transform(w)
    assert minus.holevo_information() + plus.holevo_information() == pytest.approx(
        2 * w.holevo_information(), abs=1e-9
    )


def test_synthesize_capacity_error():
    w = pure_overlap_channel(0.5)
    with pytest.raises(CapacityError):
        synthesize(w, parse_label("-----"), ResourceCaps(dim_cap=8))


@pytest.fixture
def no_transform(monkeypatch):
    """A transform that runs fails the test."""
    def refuse(*args):
        raise AssertionError("a transform ran")

    monkeypatch.setattr(polarize_mod, "_child", refuse)


@pytest.mark.parametrize(
    "W",
    [preset_channel("classical-symmetric", q=2, p=0.1), pure_overlap_channel(0.5)],
    ids=["bsc", "pure"],
)
def test_negative_depth_is_refused_before_any_transform(no_transform, W):
    with pytest.raises(StructuralError, match="depth n must be >= 0"):
        iter_synthetic_channels(W, -1)
    with pytest.raises(StructuralError, match="depth n must be >= 0"):
        polarization_scan(W, -3)


@pytest.mark.parametrize("n", [-2, 1.0, 1.5, "2", True], ids=["negative", "float", "fraction",
                                                           "string", "bool"])
def test_a_bad_depth_is_refused_before_any_transform(no_transform, n):
    # polarization_scan(BSC, 1.0) once ran the whole scan and then failed in
    # branch_order; with a dimension cap a 1.5 scan failed at depth 3; and a
    # negative depth gave process_sample paths with no steps
    message = "depth n must be >= 0, got -2" if n == -2 else f"depth n must be an integer, got {n!r}"
    bsc = preset_channel("classical-symmetric", q=2, p=0.1)
    calls = [lambda: polarization_scan(bsc, n),
             lambda: polarization_scan(pure_overlap_channel(0.5), n, ResourceCaps(dim_cap=64)),
             lambda: iter_synthetic_channels(bsc, n),
             lambda: process_sample(bsc, n, 1, 0),
             lambda: branch_order(n)]
    for call in calls:
        with pytest.raises(StructuralError) as err:
            call()
        assert str(err.value) == message


@pytest.mark.parametrize("signs", [("x",), ("-", "x"), ("+", None)])
def test_synthesize_refuses_a_bad_sign_before_any_transform(no_transform, signs):
    # ("x",) once built W^+, as every sign other than "-" read as "+"
    with pytest.raises(StructuralError, match=re.escape(f"bad sign {signs[-1]!r} in {signs!r}")):
        synthesize(pure_overlap_channel(0.5), signs)


def test_scan_fixture_is_homomorphism_endpoint(z4_homomorphism_channel):
    records = polarization_scan(z4_homomorphism_channel, 2)
    target = Subgroup(FiniteAbelianGroup([4]), (0, 2))
    for r in records:
        assert abs(r.I - np.log(2)) <= 1e-9
        assert abs(r.fd[2] - 1.0) <= 1e-12
        assert abs(r.fd[1]) <= 1e-12
        assert abs(r.fd[3]) <= 1e-12
        assert r.best_H.indices == target.indices


def test_scan_useless_channel():
    half = np.eye(2, dtype=complex) / 2
    useless = CqChannel(FiniteAbelianGroup([2]), [HybridState([(1.0, (), half)])] * 2)
    for r in polarization_scan(useless, 3):
        assert abs(r.I) <= 1e-10


def test_scan_conservation():
    rng = np.random.default_rng(22)
    w = random_pure_channel(rng, 2, 2)
    records = polarization_scan(w, 3)
    assert scan_conservation_defect(records, w.holevo_information(), 3) <= 3e-8


def test_scan_trend_bsc():
    w = preset_channel("classical-symmetric", q=2, p=0.11)
    r3 = polarization_scan(w, 3)
    r6 = polarization_scan(w, 6)
    f3 = intermediate_fraction(r3, np.log(2), 0.05)
    f6 = intermediate_fraction(r6, np.log(2), 0.05)
    assert f6 < f3


def test_process_sample_capacity_error_names_the_branch_and_depth():
    w = preset_channel("pure-states", angles=[0.0, 0.9])
    with pytest.raises(CapacityError, match=r"^branch [+-]{2} at depth 2: (minus|plus) transform: "
                       r"quantum dimension 16 exceeds cap 8$"):
        process_sample(w, 3, trials=1, seed=0, caps=ResourceCaps(dim_cap=8))


def test_minus_transform_checks_the_branch_cap_before_mixing(monkeypatch):
    # W^+ of a pure qubit channel has two labels per output, so its minus
    # transform has four labels per output and no mixture is needed to know it;
    # its plus transform has 2 x 2 branches per input pair, 8 per output
    w = plus_transform(pure_overlap_channel(0.5))
    mixes, real_mix = [], channel_mod.batched_mixtures

    def counting_mix(weighted_lists):
        # counts each mixture as it is taken to be built
        return real_mix(mixes.append(1) or weighted for weighted in weighted_lists)

    monkeypatch.setattr(channel_mod, "batched_mixtures", counting_mix)
    with pytest.raises(CapacityError, match="classical branch count 4 exceeds cap 3"):
        minus_transform(w, ResourceCaps(branch_cap=3))
    assert not mixes
    # siblings built together: W^- fits, W^+ does not, and W^- has not mixed yet
    with pytest.raises(CapacityError, match=r"^branch \+\+ at depth 2: plus transform: "
                       r"classical branch count 8 exceeds cap 5$"):
        children(w, ResourceCaps(branch_cap=5), ("+",))
    assert not mixes
    minus_transform(w, ResourceCaps(branch_cap=4))
    assert mixes  # the counter sees the transform's mixtures


def _two_label_channel() -> CqChannel:
    """Two labels whose weights depend on the input."""
    return CqChannel(FiniteAbelianGroup([2]), [
        HybridState([(0.7, "a", np.diag([1.0, 0.0]).astype(complex)),
                     (0.3, "b", np.diag([0.5, 0.5]).astype(complex))]),
        HybridState([(0.2, "a", np.diag([0.0, 1.0]).astype(complex)),
                     (0.8, "b", np.diag([0.5, 0.5]).astype(complex))]),
    ])


def _half_mixed_channel() -> CqChannel:
    """A pure |0> and a rank-2 mixed qubit output: cheap at n = 3, but mixed."""
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    rho1 = 0.8 * np.outer(plus, plus) + 0.2 * np.diag([0.0, 1.0])
    return CqChannel(FiniteAbelianGroup([2]), [
        HybridState([(1.0, (), np.diag([1.0, 0.0]).astype(complex))]),
        HybridState([(1.0, (), rho1.astype(complex))]),
    ])


def _assert_records_close(a, b, tol):
    assert a.branch == b.branch
    for name in ("I", "f", "fmax"):
        assert getattr(a, name) == pytest.approx(getattr(b, name), abs=tol), name
    for name in ("fd", "quot_I", "quot_F"):
        got, want = getattr(a, name), getattr(b, name)
        assert got.keys() == want.keys(), name
        for key in got:
            assert got[key] == pytest.approx(want[key], abs=tol), (name, key)
    assert a.best_H == b.best_H


_SIBLING_CHANNELS = {
    "pure-z2": lambda: pure_overlap_channel(0.6),
    "mixed-z4": lambda: random_mixed_channel(np.random.default_rng(41), 4, 2),
    "z2xz2": lambda: random_mixed_channel(np.random.default_rng(42), 4, 2, group=[2, 2]),
    "two-label": _two_label_channel,
    "diagonal": lambda: preset_channel("classical-symmetric", q=3, p=0.2),
    "diagonal-table": lambda: from_cq_channel(preset_channel("classical-symmetric", q=3, p=0.2)),
}


@pytest.mark.parametrize("name", sorted(_SIBLING_CHANNELS))
def test_children_agree_with_the_one_child_transforms(name):
    W = _SIBLING_CHANNELS[name]()
    subgroups = enumerate_subgroups(W.alphabet)
    hybrid = isinstance(W, CqChannel)
    minus, plus = children(W)
    if hybrid:
        assert set(plus._rules) == {"avg_entropy", "cond_entropy", "fidelity_matrix"}
    for sign, got, want in (("-", minus, minus_transform(W)), ("+", plus, plus_transform(W))):
        _assert_records_close(make_record(got, (sign,), subgroups),
                              make_record(want, (sign,), subgroups), 1e-13)
    if hybrid:
        assert not plus._rules  # each read once, then dropped
        assert plus.average_output_entropy() == pytest.approx(
            _direct(plus).average_output_entropy(), abs=1e-13
        )


def test_scan_records_match_the_one_child_path():
    W = _half_mixed_channel()
    subgroups = enumerate_subgroups(W.alphabet)
    for record in polarization_scan(W, 3):
        one_child = make_record(synthesize(W, record.branch), record.branch, subgroups)
        _assert_records_close(record, one_child, 1e-13)


def test_process_sample_martingale_and_submartingale():
    rng_seed = 31
    g = FiniteAbelianGroup([4])
    w = random_mixed_channel(np.random.default_rng(3), 4, 2)
    subs = enumerate_subgroups(g)
    paths = process_sample(w, 2, trials=3, seed=rng_seed, subgroups=subs)
    for path in paths:
        for step in range(2):
            im, ip = path.child_I[step]
            assert (im + ip) / 2 == pytest.approx(path.I[step], abs=1e-8)
            for H, (parent, minus, plus) in path.quot_child_I[step].items():
                assert (minus + plus) / 2 >= parent - 1e-8
    # determinism
    again = process_sample(w, 2, trials=3, seed=rng_seed, subgroups=subs)
    for a, b in zip(paths, again):
        assert a.signs == b.signs
        np.testing.assert_allclose(a.I, b.I, atol=0)
    # each step's parent entry is the chosen child's, reused: the same values,
    # bit for bit, as the quotients of the channel rebuilt along the path
    assert paths == _paths_with_rebuilt_quotients(w, paths, subs)


def _paths_with_rebuilt_quotients(W, paths, subgroups) -> list:
    """``paths`` recomputed along their signs, each parent quotient built anew."""
    out = []
    for path in paths:
        channel = W
        record = PathRecord((), [channel.holevo_information()], [channel.f_max()], [], [], [])
        for sign in path.signs:
            pair = children(channel, signs=record.signs)
            record.child_I.append(tuple(c.holevo_information() for c in pair))
            record.child_fmax.append(tuple(c.f_max() for c in pair))
            record.quot_child_I.append({
                H: tuple(c.quotient(H).holevo_information() for c in (channel,) + pair)
                for H in subgroups
            })
            side = (MINUS, PLUS).index(sign)
            channel = pair[side]
            record.signs += (sign,)
            record.I.append(record.child_I[-1][side])
            record.fmax.append(record.child_fmax[-1][side])
        out.append(record)
    return out


def test_all_plus_path_squares_fmax():
    w = pure_overlap_channel(0.7)
    t = w.f_max()
    ch = w
    for _ in range(3):
        ch = plus_transform(ch)
        t = t * t
        assert ch.f_max() == pytest.approx(t, abs=1e-9)


def test_fd_limit_set_closed_under_addition(z4_homomorphism_channel):
    # finite-n surrogate of the limit statement: where every F_d sits next to
    # {0,1}, the near-1 set must be a subgroup
    for w, n in [(z4_homomorphism_channel, 2)]:
        for r in polarization_scan(w, n):
            vals = r.fd
            if all(min(v, abs(1 - v)) < 0.05 for v in vals.values()):
                near_one = {d for d, v in vals.items() if v > 0.95}
                g = w.alphabet
                for a in near_one:
                    for b in near_one:
                        assert g.add_index(a, b) in near_one


def test_diagonal_auto_routing_matches_hybrid():
    w = preset_channel("classical-symmetric", q=2, p=0.11)
    auto = polarization_scan(w, 2)  # routed through the table engine
    subgroups = enumerate_subgroups(w.alphabet)
    # synthesize stays in the hybrid engine of the channel it is given
    hybrid = [make_record(synthesize(w, s), s, subgroups) for s in branch_order(2)]
    for a, b in zip(auto, hybrid):
        assert a.I == pytest.approx(b.I, abs=1e-10)
        assert a.fmax == pytest.approx(b.fmax, abs=1e-10)
        for H in a.quot_I:
            assert a.quot_I[H] == pytest.approx(b.quot_I[H], abs=1e-10)


def test_transform_with_input_dependent_weights():
    w = _two_label_channel()
    minus, plus = minus_transform(w), plus_transform(w)
    assert minus.holevo_information() + plus.holevo_information() == pytest.approx(
        2 * w.holevo_information(), abs=1e-8
    )
    # dense flattening agrees too
    dense = w.flatten_dense()
    dm, dp = minus_transform(dense), plus_transform(dense)
    assert dm.holevo_information() == pytest.approx(minus.holevo_information(), abs=1e-8)
    assert dp.holevo_information() == pytest.approx(plus.holevo_information(), abs=1e-8)
