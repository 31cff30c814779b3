import gc
import itertools
import json
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import pure_overlap_channel, random_mixed_channel, random_pure_channel
from oracles import (
    average_output,
    bhattacharyya,
    mutual_information_table,
    qary_symmetric_information,
    qary_symmetric_pair_fidelity,
)

from cqpolar import linalg
from cqpolar.channel import (
    CqChannel,
    HybridState,
    channel_to_json,
    hybrid_fidelity,
    load_channel,
    preset_channel,
)
from cqpolar.codes import CodeParams, build_plan
from cqpolar.decoder import SCDecoder
from cqpolar.diagonal import from_cq_channel, merge_columns
from cqpolar.errors import LoadError, StructuralError
from cqpolar.groups import FiniteAbelianGroup, Subgroup, enumerate_subgroups, quotient_cosets
from cqpolar.polarize import (
    children,
    make_record,
    minus_transform,
    plus_transform,
    polarization_scan,
)
from cqpolar.states import factor_fidelity, pure_state, to_dense

Z2 = FiniteAbelianGroup([2])
Z4 = FiniteAbelianGroup([4])


def perfect_binary():
    return preset_channel("pure-states", angles=[0.0, np.pi / 2])


def useless_binary():
    half = np.eye(2, dtype=complex) / 2
    return CqChannel(Z2, [HybridState([(1.0, (), half)])] * 2)


def test_holevo_examples():
    assert perfect_binary().holevo_information() == pytest.approx(np.log(2), abs=1e-10)
    assert useless_binary().holevo_information() == pytest.approx(0.0, abs=1e-10)
    w = pure_overlap_channel(0.5)
    lam = np.array([0.75, 0.25])
    assert w.holevo_information() == pytest.approx(float(-(lam * np.log(lam)).sum()), abs=1e-9)


def test_fd_examples(z4_homomorphism_channel):
    assert perfect_binary().fd(1) == pytest.approx(0.0, abs=1e-9)
    assert useless_binary().fd(1) == pytest.approx(1.0, abs=1e-12)
    w = z4_homomorphism_channel
    assert w.fd(0) == pytest.approx(1.0, abs=1e-12)
    assert w.fd(2) == pytest.approx(1.0, abs=1e-12)
    assert w.fd(1) == pytest.approx(0.0, abs=1e-12)
    assert w.fd(3) == pytest.approx(0.0, abs=1e-12)


def test_avg_fidelity_and_fmax(z4_homomorphism_channel):
    w = perfect_binary()
    assert w.avg_fidelity() == pytest.approx(0.0, abs=1e-9)
    assert w.f_max() == pytest.approx(0.0, abs=1e-9)
    fx = z4_homomorphism_channel
    assert fx.avg_fidelity() == pytest.approx(1 / 3, abs=1e-12)
    assert fx.f_max() == pytest.approx(1.0, abs=1e-12)


def test_single_input_convention(z4_homomorphism_channel):
    full = Subgroup(Z4, (0, 1, 2, 3))
    quot = z4_homomorphism_channel.quotient(full)
    assert quot.q == 1
    assert quot.avg_fidelity() == 0.0
    assert quot.f_max() == 0.0
    assert quot.holevo_information() == pytest.approx(0.0, abs=1e-10)


def test_quotient_examples(z4_homomorphism_channel):
    w = z4_homomorphism_channel
    trivial = Subgroup(Z4, (0,))
    same = w.quotient(trivial)
    assert same.holevo_information() == pytest.approx(w.holevo_information(), abs=1e-10)
    assert same.fd(1) == pytest.approx(w.fd(1), abs=1e-12)
    h = Subgroup(Z4, (0, 2))
    quot = w.quotient(h)
    assert quot.q == 2
    assert quot.holevo_information() == pytest.approx(np.log(2), abs=1e-10)
    assert quot.fd(1) == pytest.approx(0.0, abs=1e-12)


def test_restricted_quotient_examples(z4_homomorphism_channel):
    w = z4_homomorphism_channel
    g = Z4
    full = Subgroup(g, (0, 1, 2, 3))
    trivial = Subgroup(g, (0,))
    d_full = quotient_cosets(g, full)[0]
    same = w.restricted_quotient(trivial, d_full)
    assert same.q == 4
    assert same.holevo_information() == pytest.approx(w.holevo_information(), abs=1e-10)
    h = Subgroup(g, (0, 2))
    d0 = quotient_cosets(g, h)[0]
    single = w.restricted_quotient(h, d0)
    assert single.q == 1
    assert single.avg_fidelity() == 0.0
    mid = w.restricted_quotient(Subgroup(g, (0, 2)), d_full)
    assert mid.q == 2
    assert mid.holevo_information() == pytest.approx(np.log(2), abs=1e-10)


def test_restricted_quotient_requires_nesting(z4_homomorphism_channel):
    h = Subgroup(Z4, (0, 2))
    d = quotient_cosets(Z4, h)[0]
    with pytest.raises(StructuralError):
        z4_homomorphism_channel.restricted_quotient(Subgroup(Z4, (0, 1, 2, 3)), d)


@pytest.mark.parametrize("engine", ["hybrid", "diagonal"])
def test_a_subgroup_of_another_group_is_refused(engine):
    # Z2xZ2 has the order of Z4, so its subgroups' element indices are in range
    if engine == "hybrid":
        w = random_pure_channel(np.random.default_rng(70), 4, 2)
    else:
        w = from_cq_channel(preset_channel("classical-symmetric", q=4, p=0.1))
    other = FiniteAbelianGroup([2, 2])
    foreign, own = Subgroup(other, (0, 1)), Subgroup(Z4, (0,))
    refused = [
        lambda: w.quotient(foreign),
        lambda: w.nested_fmax(Subgroup(other, (0,)), foreign),
        lambda: w.nested_fmax(own, foreign),
    ]
    if engine == "hybrid":
        refused += [
            lambda: w.restricted_quotient(Subgroup(other, (0,)), foreign.cosets[0]),
            lambda: w.restricted_quotient(own, foreign.cosets[1]),
            lambda: w.restricted_quotient(foreign, quotient_cosets(Z4, Subgroup(Z4, (0, 1, 2, 3)))[0]),
        ]
    for call in refused:
        with pytest.raises(StructuralError, match="^subgroup does not belong to this group$"):
            call()


def test_nested_information(z4_homomorphism_channel):
    w = z4_homomorphism_channel
    h = Subgroup(Z4, (0, 2))
    value, decomp = w.nested_information(h, h)
    assert value == pytest.approx(0.0, abs=1e-10)
    assert decomp == pytest.approx(0.0, abs=1e-10)
    full = Subgroup(Z4, (0, 1, 2, 3))
    value, decomp = w.nested_information(h, full)
    assert value == pytest.approx(np.log(2), abs=1e-10)
    assert decomp == pytest.approx(value, abs=1e-9)


def test_nested_information_decomposition_random():
    for seed in range(8):
        rng = np.random.default_rng(seed)
        w = random_mixed_channel(rng, 4, 2)
        subs = [Subgroup(Z4, (0,)), Subgroup(Z4, (0, 2)), Subgroup(Z4, (0, 1, 2, 3))]
        for i, m in enumerate(subs):
            for h in subs[i:]:
                value, decomp = w.nested_information(m, h)
                assert value == pytest.approx(decomp, abs=1e-9)


def test_nested_fmax(z4_homomorphism_channel):
    w = z4_homomorphism_channel
    h = Subgroup(Z4, (0, 2))
    full = Subgroup(Z4, (0, 1, 2, 3))
    assert w.nested_fmax(Subgroup(Z4, (0,)), h) == pytest.approx(1.0, abs=1e-12)
    assert w.nested_fmax(h, full) == pytest.approx(0.0, abs=1e-12)


def test_hybrid_vs_dense_equivalence():
    rng = np.random.default_rng(11)
    g = Z2
    for _ in range(6):
        # two labeled branches with input-dependent weights
        outputs = []
        w0 = float(rng.uniform(0.2, 0.8))
        for x in range(2):
            wx = w0 if x == 0 else 1 - w0
            outputs.append(
                HybridState(
                    [
                        (wx, "a", np.diag(rng.dirichlet([1, 1])).astype(complex)),
                        (1 - wx, "b", _rand_rho(rng, 2)),
                    ]
                )
            )
        w = CqChannel(g, outputs)
        dense = w.flatten_dense()
        assert dense.holevo_information() == pytest.approx(
            w.holevo_information(), abs=1e-9
        )
        for d in range(2):
            assert dense.fd(d) == pytest.approx(w.fd(d), abs=1e-9)
        assert dense.avg_fidelity() == pytest.approx(w.avg_fidelity(), abs=1e-9)


def _rand_rho(rng, k):
    a = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    m = a @ a.conj().T
    return m / np.real(np.trace(m))


def test_classical_oracle_equivalence():
    for q, p in [(2, 0.11), (3, 0.2), (4, 0.35)]:
        w = preset_channel("classical-symmetric", q=q, p=p)
        table = np.stack(
            [np.real(np.diag(to_dense(w.outputs[x].branches[0][2]))) for x in range(q)]
        )
        assert w.holevo_information() == pytest.approx(
            mutual_information_table(table), abs=1e-10
        )
        assert w.holevo_information() == pytest.approx(
            qary_symmetric_information(q, p), abs=1e-10
        )
        assert w.pairwise_fidelity(0, 1) == pytest.approx(
            bhattacharyya(table[0], table[1]), abs=1e-10
        )
        assert w.avg_fidelity() == pytest.approx(
            qary_symmetric_pair_fidelity(q, p), abs=1e-10
        )


def test_classical_symmetric_spec_values():
    w = preset_channel("classical-symmetric", q=2, p=0.11)
    h = -0.11 * np.log(0.11) - 0.89 * np.log(0.89)
    assert w.holevo_information() == pytest.approx(np.log(2) - h, abs=1e-12)
    assert w.avg_fidelity() == pytest.approx(2 * np.sqrt(0.11 * 0.89), abs=1e-12)


def test_presets():
    assert perfect_binary().holevo_information() == pytest.approx(np.log(2), abs=1e-10)
    w = preset_channel("depolarized-orthogonal", q=3, lam=1.0)
    assert w.holevo_information() == pytest.approx(0.0, abs=1e-10)
    w = preset_channel("random", q=2, k=2, seed=7)
    assert 0.0 <= w.holevo_information() <= np.log(2) + 1e-12
    w = preset_channel("random", q=3, k=2, seed=7, mixed=True)
    assert w.is_diagonal() is False
    with pytest.raises(LoadError):
        preset_channel("no-such-family", q=2)
    with pytest.raises(LoadError):
        preset_channel("classical-symmetric", q=2, p=1.5)
    with pytest.raises(LoadError, match="needs the parameter 'lam'"):
        preset_channel("depolarized-orthogonal", q=3)
    with pytest.raises(LoadError, match="bad q"):
        preset_channel("random", q="two", k=2)


def test_channel_json_roundtrip():
    rng = np.random.default_rng(12)
    w = random_mixed_channel(rng, 3, 2)
    blob = json.dumps(channel_to_json(w))
    back = load_channel(blob)
    assert back.q == w.q and back.k == w.k
    assert back.holevo_information() == pytest.approx(w.holevo_information(), abs=1e-9)
    for d in range(3):
        assert back.fd(d) == pytest.approx(w.fd(d), abs=1e-9)


def test_load_channel_shorthand_and_labels():
    obj = {
        "group": [2],
        "k": 2,
        "states": {
            "(0)": {"re": [[1, 0], [0, 0]]},
            "(1)": {
                "branches": [
                    {"w": 0.5, "label": "u", "re": [[1, 0], [0, 0]]},
                    {"w": 0.5, "label": "v", "re": [[0, 0], [0, 1]]},
                ]
            },
        },
    }
    w = load_channel(obj)
    assert w.q == 2
    assert len(w.outputs[1].branches) == 2


def test_load_channel_errors():
    base = {"group": [2], "k": 2, "states": {"(0)": {"re": [[1, 0], [0, 0]]}}}
    with pytest.raises(LoadError, match=r"\(1\)"):
        load_channel(base)  # missing input
    bad_psd = {
        "group": [2],
        "k": 2,
        "states": {
            "(0)": {"re": [[1.5, 0], [0, -0.5]]},
            "(1)": {"re": [[1, 0], [0, 0]]},
        },
    }
    with pytest.raises(LoadError, match=r"\(0\)"):
        load_channel(bad_psd)
    bad_trace = {
        "group": [2],
        "k": 2,
        "states": {
            "(0)": {"re": [[0.7, 0], [0, 0.7]]},
            "(1)": {"re": [[1, 0], [0, 0]]},
        },
    }
    with pytest.raises(LoadError):
        load_channel(bad_trace)
    with pytest.raises(LoadError):
        load_channel({"group": [2], "k": 2})
    with pytest.raises(LoadError):
        load_channel('{"not json')
    pure = {"(0)": {"re": [[1, 0], [0, 0]]}, "(1)": {"re": [[0, 0], [0, 1]]}}
    for field, value, message in [
        ("k", 2.5, "k must be an integer, got 2.5"),
        ("k", True, "k must be an integer, got True"),
        ("group", [2.5], "group entries must be integers, got 2.5"),
        ("group", [True], "group entries must be integers, got True"),
        ("group", 2, "group must be an array"),
        ("states", [], "states must be an object"),
    ]:
        obj = {"group": [2], "k": 2, "states": pure, field: value}
        with pytest.raises(LoadError, match="^channel JSON: " + re.escape(message)):
            load_channel(obj)


_M0, _M1 = {"re": [[1, 0], [0, 0]]}, {"re": [[0, 0], [0, 1]]}


@pytest.mark.parametrize(
    "states, message",
    [
        ({"(0)": _M0, "(1)": _M1, "(3)": _M1}, "bad input key '(3)'"),
        ({"(0)": _M0, "-1": _M1}, "bad input key '-1'"),
        ({"(0)": _M0, "(1,5)": _M1}, "bad input key '(1,5)'"),
        ({"(0)": _M0, "0.5": _M1}, "bad input key '0.5'"),
        ({"(0)": _M0, "True": _M1}, "bad input key 'True'"),
        ({"(0)": _M0, "(1)": _M1, "1": _M0}, "input 1: another key already names this input"),
        ({"(0)": _M0, "(1)": [_M1]}, "input (1): the state must be an object"),
        ({"(0)": _M0, "(1)": {"branches": _M1}}, "input (1): branches must be an array"),
        ({"(0)": _M0, "(1)": {"branches": [_M1]}}, "input (1): branch 0 w must be a number"),
        ({"(0)": _M0, "(1)": {"branches": [dict(_M1, w="x")]}},
         "input (1): branch 0 w must be a number, got 'x'"),
        ({"(0)": _M0, "(1)": {"re": "x"}}, "input (1): re must be an array"),
        ({"(0)": _M0, "(1)": {"re": [["x", 0], [0, 1]]}}, "input (1): re entries must be a number"),
        ({"(0)": _M0, "(1)": {"re": [[0, 0], [0, 1, 0]]}}, "input (1): re is not 2x2"),
        ({"(0)": _M0, "(1)": {"branches": [dict(_M1, w=1.0), dict(_M0, w=1e-9),
                                           dict(_M0, w=-1e-9)]}},
         "input (1): branch 2 w must be finite and >= 0, got -1e-09"),
    ],
)
def test_load_channel_refuses_bad_keys_and_entries(states, message):
    # each names one input, or is typed, exactly as the file says; nothing is
    # reduced modulo the group or left to escape as a raw exception
    with pytest.raises(LoadError, match="^" + re.escape(message)):
        load_channel({"group": [2], "k": 2, "states": states})


def test_bare_matrix_is_one_branch_of_weight_one():
    bare = load_channel({"group": [2], "k": 2, "states": {"(0)": _M0, "1": _M1}})
    branch = {"branches": [dict(_M1, w=1, label="b")]}
    listed = load_channel({"group": [2], "k": 2, "states": {"(0)": _M0, "[1]": branch}})
    assert [(w, lab) for w, lab, _ in bare.outputs[1].branches] == [(1.0, "()")]
    assert [(w, lab) for w, lab, _ in listed.outputs[1].branches] == [(1.0, "b")]
    np.testing.assert_array_equal(
        to_dense(bare.outputs[1].branches[0][2]), to_dense(listed.outputs[1].branches[0][2])
    )


_LABEL_NAMES = st.one_of(
    st.text(alphabet="ab'\"\\019()", max_size=5),
    st.sampled_from(["()", "'a'", '"a"', "\\", "2", "10"]),
)
_QUBITS = st.tuples(*[st.floats(-0.57, 0.57)] * 3).map(
    lambda r: {"re": [[0.5 + r[2] / 2, r[0] / 2], [r[0] / 2, 0.5 - r[2] / 2]],
               "im": [[0.0, -r[1] / 2], [r[1] / 2, 0.0]]}
)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_channel_file_labels_are_a_fixed_point_of_a_round_trip(data):
    # a bare matrix beside named branches; the labels come back as the file
    # names them, and once written, stay as written
    names = data.draw(st.lists(_LABEL_NAMES, min_size=1, max_size=4, unique=True))
    named = [dict(data.draw(_QUBITS), w=1.0 / len(names), label=name) for name in names]
    obj = {"group": [2], "k": 2, "states": {"(0)": data.draw(_QUBITS), "(1)": {"branches": named}}}
    once = channel_to_json(load_channel(obj))
    twice = channel_to_json(load_channel(once))

    def labels(js):
        return [[br["label"] for br in s["branches"]] for s in js["states"].values()]

    assert labels(once) == [["()"], sorted(names)]
    assert labels(twice) == labels(once)
    for a, b in zip(once["states"].values(), twice["states"].values()):
        for x, y in zip(a["branches"], b["branches"]):
            assert x["w"] == y["w"]
            np.testing.assert_allclose(x["re"], y["re"], rtol=0, atol=1e-12)
            np.testing.assert_allclose(x["im"], y["im"], rtol=0, atol=1e-12)


def test_missing_inputs_error_is_short():
    # one state of a group of order 90000: the message counts the rest
    obj = {"group": [300, 300], "k": 2, "states": {"(0,0)": {"re": [[1, 0], [0, 0]]}}}
    with pytest.raises(LoadError, match=r"\(0,1\), .*\(89999 missing\)") as info:
        load_channel(obj)
    assert len(str(info.value)) < 1024


def test_channel_requires_all_outputs_same_dim():
    with pytest.raises(StructuralError):
        CqChannel(
            Z2,
            [
                HybridState([(1.0, (), np.eye(2, dtype=complex) / 2)]),
                HybridState([(1.0, (), np.eye(3, dtype=complex) / 3)]),
            ],
        )


def test_hybrid_state_validation():
    with pytest.raises(StructuralError):
        HybridState([(0.5, "a", np.eye(2, dtype=complex) / 2)])
    with pytest.raises(StructuralError):
        HybridState(
            [
                (0.5, "a", np.eye(2, dtype=complex) / 2),
                (0.5, "a", np.eye(2, dtype=complex) / 2),
            ]
        )


def test_average_output_is_valid(z4_homomorphism_channel):
    avg = average_output(z4_homomorphism_channel)
    assert sum(w for w, _, _ in avg.branches) == pytest.approx(1.0, abs=1e-12)
    assert avg.entropy() == pytest.approx(np.log(2), abs=1e-10)


def test_is_diagonal_flag():
    assert preset_channel("classical-symmetric", q=2, p=0.3).is_diagonal()
    rng = np.random.default_rng(0)
    assert not random_pure_channel(rng, 2, 2).is_diagonal()


# -- loaded copies of presets ---------------------------------------------------------

_PRESETS = [
    ("pure-qubit", preset_channel("pure-states", angles=[0.0, 0.9]), 3, "pure"),
    ("random-z4", preset_channel("random", q=4, k=2, seed=3), 2, "pure"),
    ("random-z2xz2", preset_channel("random", q=4, k=2, seed=5, group=[2, 2]), 2, "pure"),
    ("random-mixed-z2", preset_channel("random", q=2, k=2, seed=4, mixed=True), 2, "mixed"),
    ("classical-q3", preset_channel("classical-symmetric", q=3, p=0.1), 3, "diagonal"),
    ("depolarized-q4", preset_channel("depolarized-orthogonal", q=4, lam=0.2), 2, "diagonal"),
]


@pytest.mark.parametrize("name,W,n,kind", _PRESETS, ids=[p[0] for p in _PRESETS])
def test_loaded_copy_matches_preset(name, W, n, kind):
    loaded = load_channel(channel_to_json(W))
    for h, g in zip(W.outputs, loaded.outputs):
        assert [st.rank_bound for _, _, st in g.branches] == [
            st.rank_bound for _, _, st in h.branches
        ]
    if kind == "pure":
        assert all(st.rank_bound == 1 for h in loaded.outputs for _, _, st in h.branches)
    for a, b in zip(polarization_scan(W, n), polarization_scan(loaded, n)):
        assert a.best_H == b.best_H
        values_a = [a.I, a.f, a.fmax, *a.fd.values(), *a.quot_I.values(), *a.quot_F.values()]
        values_b = [b.I, b.f, b.fmax, *b.fd.values(), *b.quot_I.values(), *b.quot_F.values()]
        assert np.max(np.abs(np.subtract(values_a, values_b))) <= 1e-12
    plan = build_plan(W, CodeParams(n=1, seed=0))
    assert SCDecoder(plan, W).kind == SCDecoder(plan, loaded).kind == kind


def test_classical_tables_read_the_diagonals_exactly():
    # one-hot factors reproduce every diagonal entry bit for bit, also through a
    # file and a plus transform (whose states are products of the diagonals)
    q, p = 3, 0.1
    rows = np.full((q, q), p / (q - 1))
    np.fill_diagonal(rows, 1.0 - p)
    W = preset_channel("classical-symmetric", q=q, p=p)
    expected = merge_columns(rows)
    assert np.array_equal(from_cq_channel(W).table, expected)
    assert np.array_equal(from_cq_channel(load_channel(channel_to_json(W))).table, expected)
    g = W.alphabet
    plus_rows = np.zeros((q, q * q * q))
    for u2 in range(q):
        for u1 in range(q):
            prod = np.multiply.outer(rows[g.add_index(u1, u2)], rows[u2]).reshape(-1)
            plus_rows[u2, u1 * q * q : (u1 + 1) * q * q] = prod / q
    assert np.array_equal(from_cq_channel(plus_transform(W)).table, merge_columns(plus_rows))


# -- spectra reused across channels -------------------------------------------------


@pytest.mark.parametrize("kind", ["pure", "mixed"])
@pytest.mark.parametrize("orders", [[4], [2, 2], [6]], ids=["Z4", "Z2xZ2", "Z6"])
def test_full_quotients_inherit_the_average_output_entropy(orders, kind):
    make = random_mixed_channel if kind == "mixed" else random_pure_channel
    W = make(np.random.default_rng(30), int(np.prod(orders)), 2, group=orders)
    for channel in (W, minus_transform(W), plus_transform(W)):
        parent = channel.average_output_entropy()
        for H in enumerate_subgroups(channel.alphabet):
            quot = channel.quotient(H)
            assert quot.average_output_entropy() == parent
            assert abs(parent - quot._average_entropy_fast()) <= 1e-12


def test_restricted_quotients_compute_their_own_average_output_entropy():
    W = random_mixed_channel(np.random.default_rng(31), 4, 2)
    H = Subgroup(W.alphabet, (0, 2))
    M = Subgroup(W.alphabet, (0,))
    for D in quotient_cosets(W.alphabet, H):
        restricted = W.restricted_quotient(M, D)
        own = restricted.average_output_entropy()
        assert own == restricted._average_entropy_fast()
        assert abs(own - W.average_output_entropy()) > 1e-6


def _profile(W) -> np.ndarray:
    """I, F, f_max, every F_d and the pairwise matrix, read in that order."""
    head = [W.holevo_information(), W.avg_fidelity(), W.f_max(), *W.fd_table().values()]
    return np.concatenate([head, W.pairwise_fidelity_matrix().ravel()])


# (channel, depth): random channels, pure and mixed, over Z2, Z3, Z4, Z2xZ2
# and Z6; the file channels are read back from dense matrices
_RULE_CHANNELS = {
    "pure-Z2": (lambda rng: random_pure_channel(rng, 2, 2), 3),
    "pure-file-Z2": (lambda rng: load_channel(channel_to_json(random_pure_channel(rng, 2, 2))), 3),
    "pure-Z4": (lambda rng: random_pure_channel(rng, 4, 2), 2),
    "mixed-Z2": (lambda rng: random_mixed_channel(rng, 2, 2), 2),
    "dense-file-Z3": (lambda rng: load_channel(channel_to_json(random_mixed_channel(rng, 3, 2))), 2),
    "mixed-Z4": (lambda rng: random_mixed_channel(rng, 4, 2), 2),
    "mixed-Z2xZ2": (lambda rng: random_mixed_channel(rng, 4, 2, group=[2, 2]), 2),
    "pure-Z6": (lambda rng: random_pure_channel(rng, 6, 2), 2),
    "mixed-Z6": (lambda rng: random_mixed_channel(rng, 6, 2), 1),
}


def _one_child_level(level) -> list:
    return [t(ch) for ch in level for t in (minus_transform, plus_transform)]


def _sibling_level(level) -> list:
    return [child for ch in level for child in children(ch)]


@pytest.mark.parametrize("name, build", [
    *(pytest.param(name, _one_child_level, id=name) for name in _RULE_CHANNELS),
    *(pytest.param(name, _sibling_level, id=f"{name}-children") for name in _RULE_CHANNELS),
])
def test_product_rules_match_a_direct_evaluation(name, build):
    # every synthetic channel to the depth reads its values off its parent
    # (2 H(avg W) for W^-; log q + 2 H(W|X) and F_W(x, y) F_{y-x}(W) for
    # W^+; H(avg W) for quotients) or, built by children, H(avg W^+) off its
    # minus sibling; the same outputs with no rules evaluate them directly
    make, depth = _RULE_CHANNELS[name]
    level = [make(np.random.default_rng(40))]
    for _ in range(depth):
        level = build(level)
        for ch in level:
            inherited, mat = _profile(ch), ch.pairwise_fidelity_matrix()
            assert not ch._rules  # every rule was read, and dropped
            assert np.array_equal(mat, mat.T)
            direct = CqChannel(ch.alphabet, ch.outputs)
            assert np.abs(inherited - _profile(direct)).max() <= 1e-12
            for H in enumerate_subgroups(ch.alphabet):
                quot = ch.quotient(H)
                quot_I = quot.holevo_information()
                assert not quot._rules
                assert abs(quot_I - direct.quotient(H).holevo_information()) <= 1e-12


@pytest.mark.parametrize("stack_entries", [None, 1], ids=["one-stack", "stacks-of-one"])
@pytest.mark.parametrize("kind", ["pure", "mixed"])
def test_stacked_branch_fidelities_are_the_per_pair_sum(kind, stack_entries, monkeypatch):
    if stack_entries is not None:
        monkeypatch.setattr(linalg, "STACK_ENTRIES", stack_entries)
    make = random_mixed_channel if kind == "mixed" else random_pure_channel
    W = make(np.random.default_rng(32), 3, 2)
    for channel in (minus_transform(plus_transform(W)), plus_transform(minus_transform(W))):
        for x, y in itertools.combinations(range(channel.q), 2):
            a, b = channel.outputs[x], channel.outputs[y]
            db = b.as_dict()
            expected = sum(
                np.sqrt(wa * db[key][0])
                * factor_fidelity(sa.scaled_components(), db[key][1].scaled_components())
                for key, (wa, sa) in a.as_dict().items()
                if key in db
            )
            assert abs(hybrid_fidelity(a, b) - min(1.0, expected)) <= 1e-14


def _stacked_results():
    """Values from every stacked site: a random mixed channel's dense branches,
    its depth-2 scan (rules, quotient mixtures), and each depth-2 channel's
    pairwise fidelities, H(W|X) and quotient records evaluated directly."""
    W = random_mixed_channel(np.random.default_rng(35), 4, 2)
    subgroups = enumerate_subgroups(W.alphabet)
    out = [polarization_scan(W, 2)]
    for minus_child in children(W):
        for child in children(minus_child):
            direct = CqChannel(child.alphabet, child.outputs)
            out += [direct.pairwise_fidelity_matrix().tolist(),
                    direct.conditional_output_entropy(), make_record(direct, (), subgroups)]
    return out


@pytest.mark.parametrize("entries", [1, 17])
def test_results_do_not_depend_on_the_stack_bound(entries, monkeypatch):
    expected = _stacked_results()
    monkeypatch.setattr(linalg, "STACK_ENTRIES", entries)
    assert _stacked_results() == expected


def test_a_scanned_channel_is_freed_without_the_cycle_collector():
    # a quotient holds its parent only until it has read H(avg output), and a
    # channel never holds its quotients, so no reference cycle keeps it alive
    W = plus_transform(random_mixed_channel(np.random.default_rng(33), 4, 2))
    H = Subgroup(W.alphabet, (0, 2))
    gc.disable()
    try:
        ref = weakref.ref(W)
        make_record(W, (), enumerate_subgroups(W.alphabet))
        read = W.quotient(H)
        read.holevo_information()
        unread = W.quotient(H)
        del unread, W
        assert ref() is None
        assert read.holevo_information() >= 0.0
    finally:
        gc.enable()


def test_the_rules_release_what_they_hold():
    # W is held by its children's rules until the last is read, and the
    # minus sibling by W^+'s H(avg output) rule until that is read
    W = random_mixed_channel(np.random.default_rng(34), 4, 2)
    subgroups = enumerate_subgroups(W.alphabet)
    gc.disable()
    try:
        parent = weakref.ref(W)
        minus, plus = children(W)
        sibling = weakref.ref(minus)
        make_record(minus, ("-",), subgroups)
        del minus, W
        assert parent() is not None and sibling() is not None
        plus.average_output_entropy()
        assert sibling() is None
        make_record(plus, ("+",), subgroups)
        assert parent() is None
    finally:
        gc.enable()
