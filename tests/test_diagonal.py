import functools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    bec_erasure,
    bhattacharyya,
    classical_fd,
    classical_minus,
    classical_plus,
    coset_partition,
    merge_columns_unique,
    mutual_information_table,
    residue_add,
    residue_vectors,
    scan_conservation_defect,
)

from cqpolar.channel import CqChannel, HybridState, preset_channel
from cqpolar.config import ResourceCaps
import cqpolar.diagonal as diagonal_mod
from cqpolar.diagonal import DiagonalChannel, from_cq_channel, merge_columns
from cqpolar.errors import CapacityError, StructuralError
from cqpolar.groups import FiniteAbelianGroup, Subgroup, enumerate_subgroups
from cqpolar.polarize import (
    branch_order,
    minus_transform,
    parse_label,
    plus_transform,
    polarization_scan,
    synthesize,
)


def bec_channel(eps: float) -> CqChannel:
    g = FiniteAbelianGroup([2])
    outs = []
    for x in range(2):
        p = np.zeros(3)
        p[x] = 1 - eps
        p[2] = eps
        outs.append(HybridState([(1.0, (), np.diag(p.astype(complex)))]))
    return CqChannel(g, outs)


def test_from_cq_matches_channel_functionals():
    w = preset_channel("classical-symmetric", q=3, p=0.25)
    d = from_cq_channel(w)
    assert d.holevo_information() == pytest.approx(w.holevo_information(), abs=1e-12)
    for x in range(3):
        assert d.fd(x) == pytest.approx(w.fd(x), abs=1e-12)
    assert d.avg_fidelity() == pytest.approx(w.avg_fidelity(), abs=1e-12)
    assert d.f_max() == pytest.approx(w.f_max(), abs=1e-12)


def test_from_cq_handles_labeled_diagonal():
    g = FiniteAbelianGroup([2])
    outs = [
        HybridState(
            [
                (0.5, "a", np.diag([1.0, 0.0]).astype(complex)),
                (0.5, "b", np.diag([0.3, 0.7]).astype(complex)),
            ]
        ),
        HybridState(
            [
                (0.5, "a", np.diag([0.0, 1.0]).astype(complex)),
                (0.5, "b", np.diag([0.3, 0.7]).astype(complex)),
            ]
        ),
    ]
    w = CqChannel(g, outs)
    d = from_cq_channel(w)
    assert d.holevo_information() == pytest.approx(w.holevo_information(), abs=1e-10)
    assert d.fd(1) == pytest.approx(w.fd(1), abs=1e-10)


def test_from_cq_rejects_nondiagonal():
    with pytest.raises(StructuralError):
        from_cq_channel(preset_channel("pure-states", angles=[0.0, 0.5]))


def test_merge_columns_lossless():
    table = np.array([[0.2, 0.1, 0.15, 0.55], [0.05, 0.3, 0.25, 0.4]])
    # duplicate each column at two different scales; functionals must survive
    doubled = np.concatenate([table * 0.25, table * 0.75], axis=1)
    merged = merge_columns(doubled)
    assert merged.shape[1] == 4
    assert mutual_information_table(merged) == pytest.approx(
        mutual_information_table(table), abs=1e-12
    )


def test_merge_drops_zero_columns():
    table = np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0]])
    assert merge_columns(table).shape[1] == 1


def _random_merge_table(rng, q: int, m: int) -> np.ndarray:
    """Columns repeated at scales 0.5, 1 and 2, plus a few all-zero columns."""
    base = rng.random((q, m)) * (rng.random((q, m)) < 0.8)
    cols = [base, 0.5 * base[:, : m // 2], 2.0 * base[:, m // 3 :], np.zeros((q, 2))]
    table = np.concatenate(cols, axis=1)
    return table[:, rng.permutation(table.shape[1])]


def _random_merge_tables(q: int) -> list:
    rng = np.random.default_rng(100 + q)
    tables = [_random_merge_table(rng, q, m) for m in (1, 2, 7, 40, 300)]
    return tables + [rng.random((q, 1))]


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_merge_columns_bit_identical_to_unique_oracle_on_random_tables(q):
    for table in _random_merge_tables(q):
        assert np.array_equal(merge_columns(table), merge_columns_unique(table))


def _constant_hash(keys):
    return np.zeros(keys.shape[1], dtype=np.uint64)


def _row0_hash(keys):
    """Row 0's float64 bits; as unsigned integers 0.0 < 0.25 < -0.0."""
    return keys[0].view(np.uint64).copy()


@pytest.mark.parametrize("column_hash", [_constant_hash, _row0_hash])
@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_merge_columns_grouping_does_not_depend_on_the_hash(monkeypatch, column_hash, q):
    """Colliding hashes split runs of equal keys; the merge must join them again."""
    monkeypatch.setattr(diagonal_mod, "_column_hash", column_hash)
    for table in _random_merge_tables(q):
        assert np.array_equal(merge_columns(table), merge_columns_unique(table))


@pytest.mark.parametrize("column_hash", [None, _row0_hash])
def test_merge_columns_joins_signed_zero_keys(monkeypatch, column_hash):
    """Keys (0, 1) and (-0, 1) are equal but not bit-equal: one merged column."""
    if column_hash is not None:
        # sorts (0.25, 0.75) between the two, so they land in separate runs
        monkeypatch.setattr(diagonal_mod, "_column_hash", column_hash)
    table = np.array([[0.0, 0.25, -0.0], [0.5, 0.75, 0.25]])
    merged = merge_columns(table)
    assert np.array_equal(merged, [[0.0, 0.25], [0.75, 0.75]])
    assert np.array_equal(merged, merge_columns_unique(table))


@settings(max_examples=100, deadline=None)
@given(q=st.integers(1, 5), data=st.data())
def test_merge_columns_matches_oracle_on_tie_heavy_tables(q, data):
    """Few small-integer columns repeated at small integer scales."""
    base = data.draw(st.lists(st.lists(st.integers(0, 3), min_size=q, max_size=q),
                              min_size=1, max_size=6))
    picks = data.draw(st.lists(st.tuples(st.integers(0, len(base) - 1), st.integers(0, 4)),
                               min_size=1, max_size=40))
    table = np.array([[scale * v for v in base[j]] for j, scale in picks], dtype=float).T
    assume(table.sum() > 0)
    assert np.array_equal(merge_columns(table), merge_columns_unique(table))


@pytest.mark.parametrize(
    "params, n",
    [
        pytest.param(dict(name="classical-symmetric", q=2, p=0.11), 6, id="bsc"),
        pytest.param(dict(name="classical-symmetric", q=3, p=0.1), 4, id="z3"),
        pytest.param(dict(name="classical-symmetric", q=4, p=0.1), 4, id="symmetric-q4"),
        pytest.param(dict(name="depolarized-orthogonal", q=4, lam=0.2), 4, id="depolarized-q4"),
    ],
)
def test_merge_columns_bit_identical_to_unique_oracle_in_scans(monkeypatch, params, n):
    seen = []

    def checked(table):
        merged = merge_columns(table)
        seen.append(np.array_equal(merged, merge_columns_unique(table)))
        return merged

    monkeypatch.setattr(diagonal_mod, "merge_columns", checked)
    polarization_scan(preset_channel(**params), n)
    assert seen and all(seen)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 2: merge keys are posteriors rounded to 12 absolute "
    "decimals, so columns whose small posteriors differ merge and small F_d "
    "come out too large",
)
def test_all_plus_bsc_fidelity_is_exact_in_relative_terms():
    p = 0.11
    d = from_cq_channel(preset_channel("classical-symmetric", q=2, p=p))
    exact = (2 * np.sqrt(p * (1 - p))) ** 64
    # F_1(W^+) = F_1(W)^2 exactly, so six plus steps give F_1(W)^64 = 9.35e-14
    got = synthesize(d, parse_label("++++++")).fd(1)
    assert abs(got - exact) <= 1e-12 * exact


def test_transforms_match_bruteforce_oracle():
    for q, p in [(2, 0.11), (3, 0.3), (4, 0.2)]:
        w = preset_channel("classical-symmetric", q=q, p=p)
        d = from_cq_channel(w)
        add = lambda a, b: (a + b) % q
        minus_ref = classical_minus(d.table, add, q)
        plus_ref = classical_plus(d.table, add, q)
        minus, plus = d.minus_transform(), d.plus_transform()
        assert minus.holevo_information() == pytest.approx(
            mutual_information_table(minus_ref), abs=1e-11
        )
        assert plus.holevo_information() == pytest.approx(
            mutual_information_table(plus_ref), abs=1e-11
        )
        for dd in range(q):
            assert minus.fd(dd) == pytest.approx(
                classical_fd(minus_ref, add, q, dd), abs=1e-11
            )
            assert plus.fd(dd) == pytest.approx(
                classical_fd(plus_ref, add, q, dd), abs=1e-11
            )


def test_minus_plus_match_hybrid_engine_exactly():
    # the dense hybrid transforms and the table engine agree on diagonals
    w = preset_channel("classical-symmetric", q=3, p=0.2)
    d = from_cq_channel(w)
    for name, hybrid, table in [
        ("minus", minus_transform(w, engine_caps()), d.minus_transform()),
        ("plus", plus_transform(w, engine_caps()), d.plus_transform()),
    ]:
        assert hybrid.holevo_information() == pytest.approx(
            table.holevo_information(), abs=1e-10
        ), name
        for dd in range(3):
            assert hybrid.fd(dd) == pytest.approx(table.fd(dd), abs=1e-10), name


def _oracle_functionals(table, orders, add, subgroups):
    """I, every F_d, and I and F of every quotient, by the oracle loops."""
    q = len(table)
    values = [mutual_information_table(table)]
    values += [classical_fd(table, add, q, d) for d in range(q)]
    for H in subgroups:
        cells = coset_partition(orders, H.indices)
        quot = np.array([np.mean([table[x] for x in cell], axis=0) for cell in cells])
        pairs = [bhattacharyya(quot[i], quot[j])
                 for i in range(len(cells)) for j in range(i + 1, len(cells))]
        values += [mutual_information_table(quot), float(np.mean(pairs)) if pairs else 0.0]
    return np.array(values)


def _engine_functionals(d, subgroups):
    values = [d.holevo_information()] + [d.fd(x) for x in range(d.q)]
    for H in subgroups:
        quot = d.quotient(H)
        values += [quot.holevo_information(), quot.avg_fidelity()]
    return np.array(values)


@pytest.mark.parametrize(
    "orders, outputs, n",
    [([2], 2, 3), ([3], 3, 2), ([4], 3, 2), ([2, 2], 3, 2), ([5], 3, 2), ([6], 3, 2)],
    ids=["Z2", "Z3", "Z4", "Z2xZ2", "Z5", "Z6"],
)
def test_shifted_transforms_keep_every_invariant_on_random_tables(monkeypatch, orders, outputs, n):
    """Shift-canonical columns against unshifted oracle transforms, both merged exactly.

    With the rounded 12-decimal key the two sides would differ by ~1e-10 (the
    key's own error, ROADMAP item 2), so both merge only float-equal posteriors.
    """
    merge_exact = functools.partial(merge_columns_unique, decimals=None)
    monkeypatch.setattr(diagonal_mod, "merge_columns", merge_exact)
    g = FiniteAbelianGroup(orders)
    subgroups = enumerate_subgroups(g)
    residues = residue_vectors(orders)
    index = {r: i for i, r in enumerate(residues)}
    add = lambda a, b: index[residue_add(orders, residues[a], residues[b])]
    table = np.random.default_rng(sum(orders) * 10 + len(orders)).dirichlet(
        np.ones(outputs), size=g.order
    )
    base = DiagonalChannel(g, table)
    for signs in branch_order(n):
        ref = table
        for sign in signs:
            step = classical_minus if sign == "-" else classical_plus
            ref = merge_exact(step(ref, add, g.order))
        got = _engine_functionals(synthesize(base, signs), subgroups)
        want = _oracle_functionals(ref, orders, add, subgroups)
        assert np.max(np.abs(got - want)) <= 1e-12, signs


def test_z3_scans_to_depth_5_under_default_caps():
    w = preset_channel("classical-symmetric", q=3, p=0.1)
    recs = polarization_scan(w, 5)
    assert len(recs) == 32
    assert scan_conservation_defect(recs, w.holevo_information(), 5) <= 1e-10


def test_bsc_depth_7_overflows_at_the_plus_transform():
    with pytest.raises(CapacityError, match=r"branch [+-]{7} at depth 7: plus transform "
                       r"joint alphabet: output alphabet size 3281922 exceeds cap"):
        polarization_scan(preset_channel("classical-symmetric", q=2, p=0.11), 7)


def engine_caps():
    return ResourceCaps()


def test_quotient_on_diagonal():
    w = preset_channel("classical-symmetric", q=4, p=0.3)
    d = from_cq_channel(w)
    h = Subgroup(w.alphabet, (0, 2))
    dq = d.quotient(h)
    wq = w.quotient(h)
    assert dq.holevo_information() == pytest.approx(wq.holevo_information(), abs=1e-10)
    assert dq.avg_fidelity() == pytest.approx(wq.avg_fidelity(), abs=1e-10)


def test_bec_scan_matches_closed_form_to_depth_10():
    eps = 0.3
    recs = polarization_scan(bec_channel(eps), 10)
    assert len(recs) == 1024
    for r in recs:
        e = bec_erasure(r.branch, eps)
        assert abs(r.I - (1 - e) * np.log(2)) < 1e-10
        assert abs(r.fd[1] - e) < 1e-10


def test_capacity_error_on_alphabet_blowup():
    w = preset_channel("classical-symmetric", q=2, p=0.11)
    d = from_cq_channel(w)
    with pytest.raises(CapacityError):
        synthesize(d, parse_label("+-+-+-"), ResourceCaps(column_cap=150))


@pytest.mark.parametrize(
    "build",
    [
        lambda d, caps: d.minus_transform(caps),
        lambda d, caps: d.plus_transform(caps),
        lambda d, caps: minus_transform(d, caps),
        lambda d, caps: plus_transform(d, caps),
        lambda d, caps: synthesize(d, parse_label("+++"), caps),
        lambda d, caps: polarization_scan(d, 3, caps),
    ],
    ids=["method-minus", "method-plus", "minus", "plus", "synthesize", "scan"],
)
def test_caps_passed_per_call_bind_on_table_engine(build):
    # BSC(0.11) has two output columns: the joint alphabets (4 minus, 8 plus)
    # are over a column cap of 3
    d = from_cq_channel(preset_channel("classical-symmetric", q=2, p=0.11))
    with pytest.raises(CapacityError):
        build(d, ResourceCaps(column_cap=3))


def test_diagonal_channel_validation():
    g = FiniteAbelianGroup([2])
    with pytest.raises(StructuralError):
        DiagonalChannel(g, np.array([[0.5, 0.4], [0.5, 0.5]]))
    with pytest.raises(StructuralError):
        DiagonalChannel(g, np.array([[1.2, -0.2], [0.5, 0.5]]))


def test_only_shifted_tables_skip_the_row_check():
    # total mass q, but the rows are not distributions
    skewed = np.array([[0.6, 0.5], [0.4, 0.5]])
    g = FiniteAbelianGroup([2])
    with pytest.raises(StructuralError, match="rows must sum to 1"):
        DiagonalChannel(g, skewed)
    assert DiagonalChannel(g, skewed, shifted=True).table.sum() == pytest.approx(2.0)
    with pytest.raises(StructuralError, match="total mass q"):
        DiagonalChannel(g, 0.9 * skewed, shifted=True)


def test_transforms_build_shifted_tables_from_a_stochastic_base():
    w = preset_channel("classical-symmetric", q=3, p=0.1)
    minus = minus_transform(from_cq_channel(w))
    # a shift moves mass between rows, so the synthetic rows are not distributions
    assert np.max(np.abs(minus.table.sum(axis=1) - 1.0)) > 1e-3
    assert minus.table.sum() == pytest.approx(3.0, abs=1e-12)
