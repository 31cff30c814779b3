"""The pairwise-fidelity profile: one matrix per channel, every functional read off it.

Differential tests compare the matrix-derived functionals with a direct
pair-by-pair evaluation, the two engines with each other, and the factored
branch states with the plain linalg routines.  Counting tests pin the work
the profile saves: each unordered pair once, each dense branch factored once
(when it is built), no quotient built for the trivial subgroups.
"""

import itertools

import numpy as np
import pytest

from conftest import random_mixed_channel, random_pure_channel
from oracles import average_output, classical_fd, state_entropy

from cqpolar import states as states_mod
from cqpolar.channel import CqChannel, HybridState, hybrid_fidelity, preset_channel
from cqpolar.diagonal import DiagonalChannel, from_cq_channel
from cqpolar.groups import FiniteAbelianGroup, Subgroup, enumerate_subgroups
from cqpolar.linalg import entropy_of_probs, von_neumann_entropy
from cqpolar.polarize import (
    branch_order,
    make_record,
    minus_transform,
    plus_transform,
    polarization_scan,
    synthesize,
)
from cqpolar.states import PureMixture, state_fidelity, to_dense

GROUPS = {"Z4": [4], "Z2xZ2": [2, 2], "Z6": [6]}
TOL = 1e-12


def _mixed_branch_channel(rng, group) -> CqChannel:
    """Outputs with two classical labels: one dense branch, one pure-mixture branch."""
    g = FiniteAbelianGroup(group)
    outputs = []
    for _ in range(g.order):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        dense = a @ a.conj().T
        dense /= np.real(np.trace(dense))
        vecs = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        mix = PureMixture([0.3, 0.7], vecs / np.linalg.norm(vecs, axis=1)[:, None])
        w = float(rng.uniform(0.2, 0.8))
        outputs.append(HybridState([(w, "dense", dense), (1.0 - w, "mix", mix)]))
    return CqChannel(g, outputs)


def _channels():
    """(name, channel) over Z4, Z2xZ2 and Z6: pure, Wishart-mixed, multi-branch, hybrid."""
    out = []
    for gname, group in GROUPS.items():
        q = int(np.prod(group))
        rng = np.random.default_rng([17, q, len(group)])
        pure = random_pure_channel(rng, q, 2, group)
        mixed = random_mixed_channel(rng, q, 2, group)
        out += [
            (f"{gname}-pure", pure),
            (f"{gname}-mixed", mixed),
            (f"{gname}-pure-plus", plus_transform(pure)),
            (f"{gname}-mixed-plus", plus_transform(mixed)),
            (f"{gname}-dense-and-mixture", _mixed_branch_channel(rng, group)),
        ]
    return out


CHANNELS = _channels()
IDS = [name for name, _ in CHANNELS]


def _direct_pairs(W) -> np.ndarray:
    """F(rho_x, rho_y) evaluated pair by pair on both orders, no cache."""
    return np.array(
        [[hybrid_fidelity(W.outputs[x], W.outputs[y]) for y in range(W.q)]
         for x in range(W.q)]
    )


def _direct_fd(W, pairs, d) -> float:
    g = W.alphabet
    return float(np.mean([pairs[x, g.add_index(x, d)] for x in range(W.q)]))


@pytest.mark.parametrize("name,W", CHANNELS, ids=IDS)
def test_matrix_is_a_fidelity_matrix(name, W):
    mat = W.pairwise_fidelity_matrix()
    assert mat.shape == (W.q, W.q)
    assert np.array_equal(mat, mat.T)
    assert np.all(np.diag(mat) == 1.0)
    assert np.all((mat >= 0.0) & (mat <= 1.0))
    assert W.pairwise_fidelity_matrix() is mat  # cached
    assert not mat.flags.writeable


@pytest.mark.parametrize("name,W", CHANNELS, ids=IDS)
def test_functionals_match_pair_by_pair(name, W):
    pairs = _direct_pairs(W)
    q = W.q
    off = ~np.eye(q, dtype=bool)
    assert np.max(np.abs(W.pairwise_fidelity_matrix() - pairs)[off]) <= TOL
    table = W.fd_table()
    for d in range(q):
        expected = 1.0 if d == 0 else _direct_fd(W, pairs, d)
        assert W.fd(d) == pytest.approx(expected, abs=TOL)
        assert table[d] == pytest.approx(expected, abs=TOL)
    assert W.avg_fidelity() == pytest.approx(pairs[off].mean(), abs=TOL)
    assert W.f_max() == pytest.approx(
        max(_direct_fd(W, pairs, d) for d in range(1, q)), abs=TOL
    )
    for H in enumerate_subgroups(W.alphabet):
        for M in enumerate_subgroups(W.alphabet):
            if not M.is_subset_of(H):
                continue
            ds = [d for d in H.indices if not M.contains_index(d)]
            expected = max((_direct_fd(W, pairs, d) for d in ds), default=0.0)
            assert W.nested_fmax(M, H) == pytest.approx(expected, abs=TOL)


@pytest.mark.parametrize("name,W", CHANNELS, ids=IDS)
def test_branch_fidelities_match_dense_linalg(name, W):
    # the factor form against the seed's per-branch route (square roots of
    # densified states); rank-deficient square roots carry ~1e-8 noise
    for x, y in itertools.combinations(range(W.q), 2):
        a, b = W.outputs[x].as_dict(), W.outputs[y].as_dict()
        expected = sum(
            np.sqrt(wa * b[key][0]) * state_fidelity(sa, b[key][1])
            for key, (wa, sa) in a.items()
            if key in b
        )
        assert W.pairwise_fidelity(x, y) == pytest.approx(min(1.0, expected), abs=1e-7)


@pytest.mark.parametrize("name,W", CHANNELS, ids=IDS)
def test_cached_entropy_matches_von_neumann(name, W):
    # every branch takes the Gram-matrix route, so agreement is to 1e-9
    for h in W.outputs:
        expected = entropy_of_probs(np.array([w for w, _, _ in h.branches]))
        for w, _, st in h.branches:
            dense = von_neumann_entropy(to_dense(st))
            assert state_entropy(st) == pytest.approx(dense, abs=1e-9)
            expected += w * dense
        assert h.entropy() == pytest.approx(expected, abs=1e-9)


def _derived(W):
    """W with channels derived from it by every operation that builds states."""
    out = [W, plus_transform(W), minus_transform(W), W.flatten_dense()]
    out += [W.quotient(H) for H in enumerate_subgroups(W.alphabet)]
    return out + [CqChannel(W.alphabet, [average_output(W)] * W.q)]


@pytest.mark.parametrize("name,W", CHANNELS, ids=IDS)
def test_every_branch_is_a_factored_mixture(name, W):
    for ch in _derived(W):
        for h in ch.outputs:
            for _, _, st in h.branches:
                assert isinstance(st, PureMixture)
                assert st.rank_bound <= st.dim


def _classical_tables():
    rng, narrow_rng = np.random.default_rng(5), np.random.default_rng(6)
    out = []
    for gname, group in GROUPS.items():
        q = int(np.prod(group))
        table = rng.dirichlet(np.ones(q + 1), size=q)
        # two outputs keep the hybrid engine's depth-2 states at dimension 16
        narrow = narrow_rng.dirichlet(np.ones(2), size=q)
        out.append((gname, FiniteAbelianGroup(group), table, narrow))
    return out


def _both_engines(g, table):
    hybrid = CqChannel(
        g, [HybridState([(1.0, (), np.diag(row.astype(complex)))]) for row in table]
    )
    return hybrid, from_cq_channel(hybrid)


def _invariants(W) -> np.ndarray:
    """Functionals a group shift of each output column leaves unchanged."""
    g = W.alphabet
    full, trivial = Subgroup(g, tuple(range(g.order))), Subgroup(g, (0,))
    values = [W.holevo_information(), W.avg_fidelity(), W.f_max(),
              W.nested_fmax(trivial, full)]
    values += [W.fd(d) for d in range(W.q)]
    for H in enumerate_subgroups(g):
        if 1 < H.order < g.order:
            quot = W.quotient(H)
            values += [quot.holevo_information(), quot.avg_fidelity()]
    return np.array(values)


@pytest.mark.parametrize("gname,g,table,narrow", _classical_tables(), ids=list(GROUPS))
def test_engines_agree_on_classical_channel(gname, g, table, narrow):
    # the table engine rotates transformed columns by group shifts, so past
    # depth 0 only the shift-invariant functionals are compared
    hybrid, diag = _both_engines(g, table)
    assert np.max(np.abs(hybrid.pairwise_fidelity_matrix() - diag.pairwise_fidelity_matrix())) <= TOL
    add = g.add_index
    for d in range(g.order):
        assert diag.fd(d) == pytest.approx(classical_fd(table, add, g.order, d), abs=TOL)
    for signs in branch_order(0) + branch_order(1):
        a, b = synthesize(hybrid, signs), synthesize(diag, signs)
        assert np.max(np.abs(_invariants(a) - _invariants(b))) <= TOL, signs
    hybrid, diag = _both_engines(g, narrow)
    for signs in branch_order(2):
        a, b = synthesize(hybrid, signs), synthesize(diag, signs)
        assert np.max(np.abs(_invariants(a) - _invariants(b))) <= TOL, signs


# -- work saved -------------------------------------------------------------------------


def _count_calls(monkeypatch, cls, attr):
    calls = []
    original = cls.__dict__[attr]

    def counted(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(cls, attr, counted)
    return calls


@pytest.mark.parametrize("name,W", CHANNELS, ids=IDS)
def test_each_pair_evaluated_once(monkeypatch, name, W):
    W = CqChannel(W.alphabet, W.outputs)  # a fresh, uncached channel
    calls = _count_calls(monkeypatch, CqChannel, "pairwise_fidelity")
    full = Subgroup(W.alphabet, tuple(range(W.q)))
    for _ in range(3):
        W.fd_table()
        W.avg_fidelity()
        W.f_max()
        W.fd(1)
        W.nested_fmax(Subgroup(W.alphabet, (0,)), full)
    q = W.q
    assert len(calls) == q * (q - 1) // 2
    assert sorted(calls) == list(itertools.combinations(range(q), 2))


def test_each_dense_branch_decomposed_once(monkeypatch):
    # a dense branch is factored when its HybridState is built, and never again
    calls = []
    original = states_mod._eigen_factor

    def counted(mat):
        calls.append(mat.shape)
        return original(mat)

    monkeypatch.setattr(states_mod, "_eigen_factor", counted)
    W = _mixed_branch_channel(np.random.default_rng(3), [4])
    assert calls == [(2, 2)] * W.q  # one dense branch per output
    calls.clear()
    for _ in range(2):
        W.holevo_information()
        W.pairwise_fidelity_matrix()
        for h in W.outputs:
            h.entropy()
    assert calls == []


def _scan_inputs():
    rng = np.random.default_rng(11)
    return [
        ("hybrid-Z4", random_pure_channel(rng, 4, 2), 2),
        ("hybrid-Z2xZ2", random_mixed_channel(rng, 4, 2, [2, 2]), 1),
        ("diagonal-Z4", preset_channel("classical-symmetric", q=4, p=0.1), 3),
        ("diagonal-Z6", preset_channel("classical-symmetric", q=6, p=0.2), 2),
    ]


SCANS = _scan_inputs()


@pytest.mark.parametrize("name,W,n", SCANS, ids=[s[0] for s in SCANS])
def test_scan_builds_no_trivial_quotient(monkeypatch, name, W, n):
    orders = []
    for cls in (CqChannel, DiagonalChannel):
        original = cls.__dict__["quotient"]

        def counted(self, H, original=original):
            orders.append((H.order, self.q))
            return original(self, H)

        monkeypatch.setattr(cls, "quotient", counted)
    records = polarization_scan(W, n)
    assert len(records) == 1 << n
    assert orders  # the nontrivial quotients are still built
    assert all(1 < order < q for order, q in orders)


@pytest.mark.parametrize("name,W,n", SCANS, ids=[s[0] for s in SCANS])
def test_trivial_quotient_shortcut_matches_explicit(name, W, n):
    base = from_cq_channel(W) if name.startswith("diagonal") else W
    subgroups = enumerate_subgroups(base.alphabet)
    channels = [base, minus_transform(base), plus_transform(base)]
    for ch in channels:
        rec = make_record(ch, (), subgroups)
        explicit = make_record(ch, (), [])
        for H in subgroups:
            quot = ch.quotient(H)
            explicit.quot_I[H] = quot.holevo_information()
            explicit.quot_F[H] = quot.avg_fidelity()
            assert rec.quot_I[H] == pytest.approx(explicit.quot_I[H], abs=TOL)
            assert rec.quot_F[H] == pytest.approx(explicit.quot_F[H], abs=TOL)
        assert list(rec.quot_I) == subgroups
        assert rec.best_H == explicit.best_subgroup(subgroups, ch.q)
