import numpy as np
import pytest

from oracles import (
    bec_erasure,
    classical_fd,
    classical_minus,
    classical_plus,
    merge_columns_unique,
    mutual_information_table,
)

from cqpolar.channel import CqChannel, HybridState, preset_channel
from cqpolar.config import ResourceCaps
import cqpolar.diagonal as diagonal_mod
from cqpolar.diagonal import DiagonalChannel, from_cq_channel, merge_columns
from cqpolar.errors import CapacityError, StructuralError
from cqpolar.groups import FiniteAbelianGroup, Subgroup
from cqpolar.polarize import parse_label, polarization_scan, synthesize


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


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_merge_columns_bit_identical_to_unique_oracle_on_random_tables(q):
    rng = np.random.default_rng(100 + q)
    tables = [_random_merge_table(rng, q, m) for m in (1, 2, 7, 40, 300)]
    tables.append(rng.random((q, 1)))
    for table in tables:
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
    from cqpolar.polarize import minus_transform, plus_transform

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
    d = from_cq_channel(w, ResourceCaps(column_cap=150))
    with pytest.raises(CapacityError):
        synthesize(d, parse_label("+-+-+-"), ResourceCaps(column_cap=150))


def test_diagonal_channel_validation():
    g = FiniteAbelianGroup([2])
    with pytest.raises(StructuralError):
        DiagonalChannel(g, np.array([[0.5, 0.4], [0.5, 0.5]]))
    with pytest.raises(StructuralError):
        DiagonalChannel(g, np.array([[1.2, -0.2], [0.5, 0.5]]))
