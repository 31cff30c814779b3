import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import pure_overlap_channel
from oracles import state_entropy

from cqpolar import checks
from cqpolar.channel import CqChannel, HybridState, random_density
from cqpolar.checks import Instance, check_fmax_plus_squares, check_info_conservation, run_check
from cqpolar.diagonal import DiagonalChannel
from cqpolar.errors import StructuralError
from cqpolar.linalg import (
    CHECK_ULPS,
    Povm,
    angle,
    eigh_psd,
    factor_fidelity,
    fidelity,
    helstrom_error,
    hermitize,
    pgm_effects,
    povm_error_probability,
    pretty_good_measurement,
    psd_inv_sqrt_support,
    psd_sqrt,
    sequential_measure,
    trace_distance,
    union_bound_rhs,
    validate_density_matrix,
    von_neumann_entropy,
)
from cqpolar.mac import RateRegion
from cqpolar.states import (
    PureMixture,
    as_mixture,
    mix_states,
    pure_state,
    state_fidelity,
    tensor_states,
    to_dense,
)
from cqpolar.groups import FiniteAbelianGroup

KET0 = np.array([[1, 0], [0, 0]], dtype=complex)
KET1 = np.array([[0, 0], [0, 1]], dtype=complex)
PLUS = np.full((2, 2), 0.5, dtype=complex)


def test_fidelity_examples():
    assert fidelity(KET0, KET1) == pytest.approx(0.0, abs=1e-12)
    assert fidelity(PLUS, PLUS) == pytest.approx(1.0, abs=1e-12)
    assert fidelity(KET0, PLUS) == pytest.approx(1 / np.sqrt(2), abs=1e-10)


def test_fidelity_symmetric_and_bounded():
    rng = np.random.default_rng(1)
    for _ in range(30):
        a, b = random_density(rng, 3), random_density(rng, 3)
        f1, f2 = fidelity(a, b), fidelity(b, a)
        assert f1 == pytest.approx(f2, abs=1e-9)
        assert 0.0 <= f1 <= 1.0


def test_fidelity_pure_state_overlap():
    rng = np.random.default_rng(2)
    for _ in range(20):
        u = rng.normal(size=3) + 1j * rng.normal(size=3)
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        rho = np.outer(u, u.conj())
        sig = np.outer(v, v.conj())
        assert fidelity(rho, sig) == pytest.approx(abs(np.vdot(u, v)), abs=1e-9)


def test_fidelity_dim_mismatch():
    with pytest.raises(StructuralError):
        fidelity(KET0, np.eye(3, dtype=complex) / 3)


def test_trace_distance_examples():
    assert trace_distance(PLUS, PLUS) == 0.0
    assert trace_distance(KET0, KET1) == pytest.approx(1.0, abs=1e-12)
    assert trace_distance(KET0, PLUS) == pytest.approx(1 / np.sqrt(2), abs=1e-12)


def test_distance_fidelity_relations_fuzz():
    rng = np.random.default_rng(3)
    for _ in range(50):
        dim = int(rng.integers(2, 6))
        a, b = random_density(rng, dim), random_density(rng, dim)
        d, f = trace_distance(a, b), fidelity(a, b)
        assert d + f >= 1.0 - 1e-9
        assert d * d + f * f <= 1.0 + 1e-9


def test_entropy_examples():
    assert von_neumann_entropy(KET0) == pytest.approx(0.0, abs=1e-12)
    assert von_neumann_entropy(np.eye(2) / 2) == pytest.approx(np.log(2), abs=1e-12)
    lam = np.array([0.75, 0.25])
    expected = float(-(lam * np.log(lam)).sum())
    assert von_neumann_entropy(np.diag([0.75, 0.25]).astype(complex)) == pytest.approx(
        expected, abs=1e-12
    )
    assert expected == pytest.approx(0.562335, abs=1e-6)


def test_angle_examples_and_triangle():
    assert angle(PLUS, PLUS) == pytest.approx(0.0, abs=1e-6)
    assert angle(KET0, KET1) == pytest.approx(np.pi / 2, abs=1e-9)
    assert angle(KET0, PLUS) == pytest.approx(np.pi / 4, abs=1e-9)
    rng = np.random.default_rng(4)
    for _ in range(40):
        a, b, c = (random_density(rng, 3) for _ in range(3))
        assert angle(a, c) <= angle(a, b) + angle(b, c) + 1e-8


def test_validate_density_matrix():
    with pytest.raises(StructuralError):
        validate_density_matrix(np.array([[1.0, 0.5], [0.0, 0.0]]))
    with pytest.raises(StructuralError):
        validate_density_matrix(np.diag([1.5, -0.5]).astype(complex))
    with pytest.raises(StructuralError):
        validate_density_matrix(np.diag([0.7, 0.7]).astype(complex))
    repaired = validate_density_matrix(np.diag([1.0 + 5e-10, -5e-10]).astype(complex))
    vals = np.linalg.eigvalsh(repaired)
    assert vals[0] >= 0.0
    assert np.trace(repaired).real == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)],
                         ids=["nan", "inf", "-inf", "imag-nan"])
def test_non_finite_input_is_refused(bad):
    # NaN compares false, so it once passed every tolerance check
    mat = np.diag([0.5, 0.5]).astype(complex)
    mat[0, 1] = mat[1, 0] = bad
    with pytest.raises(StructuralError, match="non-finite"):
        validate_density_matrix(mat)
    with pytest.raises(StructuralError, match="must be finite"):
        pure_state([1.0, bad])


def test_pgm_orthogonal_states_projective():
    povm = pretty_good_measurement([KET0, KET1])
    povm.validate()
    np.testing.assert_allclose(povm.effects[0], KET0, atol=1e-10)
    assert povm_error_probability(povm, [KET0, KET1]) == pytest.approx(0.0, abs=1e-10)


def test_pgm_identical_states_uniform():
    rho = np.eye(2, dtype=complex) / 2
    povm = pretty_good_measurement([rho, rho, rho])
    povm.validate()
    for e in povm.effects:
        np.testing.assert_allclose(e, np.eye(2) / 3, atol=1e-10)
    assert povm_error_probability(povm, [rho, rho, rho]) == pytest.approx(2 / 3, abs=1e-10)


def test_pgm_two_pure_states_bounds():
    c = 0.5
    v0 = np.array([1.0, 0.0])
    v1 = np.array([c, np.sqrt(1 - c * c)])
    states = [np.outer(v, v.conj()).astype(complex) for v in (v0, v1)]
    povm = pretty_good_measurement(states)
    povm.validate()
    err = povm_error_probability(povm, states)
    helstrom = 0.5 * (1 - np.sqrt(1 - c * c))
    assert helstrom == pytest.approx(0.0669873, abs=1e-6)
    assert err <= (2 - 1) * c + 1e-12  # (q-1) F(W) for the two-state channel
    assert err >= helstrom - 1e-12
    assert helstrom_error(states[0], states[1]) == pytest.approx(helstrom, abs=1e-10)


def test_pgm_respects_support_remainder():
    # states supported on a 2d subspace of a 3d space: effects must still sum to I
    v0 = np.array([1.0, 0.0, 0.0])
    v1 = np.array([0.0, 1.0, 0.0])
    states = [np.outer(v, v).astype(complex) for v in (v0, v1)]
    povm = pretty_good_measurement(states)
    povm.validate()


def test_pgm_zero_average_rejected():
    with pytest.raises(StructuralError):
        pretty_good_measurement([np.zeros((2, 2), dtype=complex)])


def test_stacked_decompositions_are_those_of_each_matrix():
    # one LAPACK call per matrix of a stack: bit-identical to lone calls
    rng = np.random.default_rng(8)
    stack = np.array([random_density(rng, 3) for _ in range(5)])
    stack[2] = np.diag([0.5, 0.5, 0.0]).astype(complex)  # a kernel in one matrix only
    ensembles = stack.reshape(1, 5, 3, 3)[:, :4].repeat(2, axis=0)
    ensembles[1, 0] = stack[4]
    for stacked, lone in [
        (eigh_psd(stack), [eigh_psd(m) for m in stack]),
        (psd_sqrt(stack), [psd_sqrt(m) for m in stack]),
        (psd_inv_sqrt_support(stack), [psd_inv_sqrt_support(m) for m in stack]),
        (pgm_effects(ensembles), [pretty_good_measurement(list(e)).effects for e in ensembles]),
    ]:
        for j, one in enumerate(lone):
            if isinstance(stacked, tuple):
                assert all(np.array_equal(a[j], b) for a, b in zip(stacked, one))
            else:
                assert np.array_equal(stacked[j], np.array(one))


def test_stacked_psd_checks_name_the_worst_matrix():
    good = np.eye(2, dtype=complex)
    with pytest.raises(StructuralError, match="not PSD: min eigenvalue -1.000e-03"):
        eigh_psd(np.array([good, np.diag([1.0, -1e-3]).astype(complex)]))
    with pytest.raises(StructuralError, match="empty support"):
        psd_inv_sqrt_support(np.array([good, np.zeros((2, 2), dtype=complex)]))
    with pytest.raises(StructuralError, match="ensemble average state is zero"):
        pgm_effects(np.zeros((2, 2, 2, 2), dtype=complex))


def test_sequential_measure_examples():
    rho = random_density(np.random.default_rng(5), 3)
    survival, post = sequential_measure([np.eye(3)] * 4, rho)
    assert survival == pytest.approx(1.0, abs=1e-12)
    proj = np.diag([1.0, 0.0, 0.0]).astype(complex)
    survival, _ = sequential_measure([proj], rho)
    p = float(np.real(rho[0, 0]))
    assert survival == pytest.approx(p, abs=1e-12)
    assert union_bound_rhs([proj], rho) == pytest.approx(2 * np.sqrt(1 - p), abs=1e-12)


def test_sequential_measure_bound_fuzz():
    rng = np.random.default_rng(6)
    for _ in range(30):
        dim = int(rng.integers(2, 6))
        rho = random_density(rng, dim)
        ops = []
        for _ in range(int(rng.integers(1, 5))):
            m = random_density(rng, dim)
            ops.append(m / max(1.0, 1.01 * float(np.linalg.eigvalsh(m)[-1])))
        survival, _ = sequential_measure(ops, rho)
        assert 1.0 - survival <= union_bound_rhs(ops, rho) + 1e-9


def test_sequential_measure_rejects_large_operators():
    with pytest.raises(StructuralError):
        sequential_measure([2.0 * np.eye(2)], np.eye(2, dtype=complex) / 2)


def test_trace_sqrt_subadditivity():
    # Tr sqrt(A+B) <= Tr sqrt(A) + Tr sqrt(B) on 40 random pairs of dimension 2-6
    reports = run_check("trace-sqrt-subadditive", seed=7, trials=40)
    assert len(reports) == 40 and len({r.instance.split("dim=")[1] for r in reports}) > 1
    assert all(r.passed and r.margin >= 0.0 for r in reports)


Z2 = FiniteAbelianGroup([2])


def _rates(empty=0.0, first=0.5):
    """A two-user region {S: bound}; the full set bounds 0.5."""
    return RateRegion(
        2, {frozenset(): empty, frozenset({0}): first, frozenset({1}): 0.1, frozenset({0, 1}): 0.5}
    )


# Each check that reads the linalg tolerance table, as (limit, check run at a defect d).
# The check must accept d = 0.9 * limit and raise StructuralError at d = 1.1 * limit.
THRESHOLDS = [
    pytest.param(1e-9, lambda d: validate_density_matrix(np.array([[0.5, 0.25 + d], [0.25, 0.5]])),
                 id="density-hermiticity"),
    pytest.param(1e-9, lambda d: validate_density_matrix(np.diag([0.5 + d, 0.5])),
                 id="density-trace"),
    pytest.param(1e-9, lambda d: eigh_psd(np.diag([-d, 1.0])), id="eigh-psd"),
    pytest.param(1e-8, lambda d: eigh_psd(np.diag([-d, 10.0])), id="eigh-psd-relative"),
    pytest.param(1e-9, lambda d: as_mixture(np.diag([-d, 1.0]).astype(complex)),
                 id="diagonal-state-psd"),
    pytest.param(1e-7, lambda d: HybridState([(0.5 + d, "a", KET0), (0.5, "b", KET1)]),
                 id="branch-weight-sum"),
    pytest.param(1e-7, lambda d: Povm([np.diag([0.5 + d, 0.5]), np.eye(2) / 2]).validate(),
                 id="povm-completeness"),
    pytest.param(1e-9, lambda d: Povm([np.diag([-d, 0.5]), np.diag([1 + d, 0.5])]).validate(),
                 id="povm-effect-range"),
    pytest.param(1e-9, lambda d: sequential_measure([np.diag([1 + d, 0.5])], KET0),
                 id="sequential-operator-range"),
    pytest.param(1e-7, lambda d: _rates(empty=d).validate(), id="rate-empty-subset"),
    pytest.param(1e-7, lambda d: _rates(first=-d).validate(), id="rate-nonnegative"),
    pytest.param(1e-7, lambda d: _rates(first=0.5 + d).validate(), id="rate-monotone"),
    pytest.param(1e-12, lambda d: DiagonalChannel(Z2, [[-d, 1.0 + d], [0.5, 0.5]]),
                 id="likelihood-negativity"),
    pytest.param(1e-8, lambda d: DiagonalChannel(Z2, [[0.5 + d, 0.5], [0.5, 0.5]]),
                 id="likelihood-row-sum"),
    pytest.param(1e-8, lambda d: DiagonalChannel(Z2, [[0.5 + 2 * d, 0.5], [0.5, 0.5]], shifted=True),
                 id="likelihood-total-mass"),
]


@pytest.mark.parametrize("limit,check", THRESHOLDS)
def test_threshold_accepts_just_inside_and_rejects_just_outside(limit, check):
    check(0.9 * limit)
    with pytest.raises(StructuralError):
        check(1.1 * limit)


class _Fixed:
    """A stand-in W whose functionals all read one number."""

    def __init__(self, value):
        self.value = value

    def holevo_information(self):
        return self.value

    def f_max(self):
        return self.value


def _erasure(info):
    """A binary erasure channel whose Holevo information is ``info``: input x
    shows as label x with probability p = info / log 2, else as label "e"."""
    p, one = info / np.log(2), pure_state([1.0])
    outputs = [HybridState([(p, str(x), one), (1.0 - p, "e", one)]) for x in range(2)]
    return CqChannel(FiniteAbelianGroup([2]), outputs)


# The checks' slack at scale 1, CHECK_ULPS ulps, at two checks, as (limit,
# check, the stand-in channel its transforms return at a defect d from the
# identity, W's functionals reading 0.5).  The checks evaluate the stand-ins
# directly.
CHECK_SLACK = CHECK_ULPS * np.finfo(float).eps
CHECK_SLACKS = [
    pytest.param(CHECK_SLACK, check_fmax_plus_squares, lambda d: pure_overlap_channel(0.25 + d),
                 id="strict-equality"),
    pytest.param(CHECK_SLACK, check_info_conservation, lambda d: _erasure(0.5 + d / 2),
                 id="transform-information"),
]


@pytest.mark.parametrize("limit,check,child", CHECK_SLACKS)
def test_check_slack_passes_just_inside_and_fails_just_outside(limit, check, child, monkeypatch):
    inst = Instance(None, 2, 2, "stand-in", W=_Fixed(0.5))
    for defect, passed in ((0.9 * limit, True), (1.1 * limit, False)):
        for name in ("minus_transform", "plus_transform"):
            monkeypatch.setattr(checks, name, lambda W: child(defect))
        assert [r.passed for r in check(inst)] == [passed]


@pytest.mark.parametrize("small,in_support", [(1.1e-12, True), (0.9e-12, False)])
def test_support_cutoff_is_relative_to_the_largest_eigenvalue(small, in_support):
    for top in (1.0, 100.0):
        _, proj = psd_inv_sqrt_support(np.diag([top, small * top]))
        assert np.array_equal(proj.real.round(12), np.diag([1.0, float(in_support)]))


def test_povm_validation_failures():
    with pytest.raises(StructuralError):
        Povm([np.diag([1.5, 0.0]).astype(complex), np.diag([-0.5, 1.0]).astype(complex)]).validate()
    with pytest.raises(StructuralError):
        Povm([np.eye(2, dtype=complex) * 0.5]).validate()


# -- pure-mixture representation ---------------------------------------------------


def random_mixture(rng, r, dim):
    v = rng.normal(size=(r, dim)) + 1j * rng.normal(size=(r, dim))
    v /= np.linalg.norm(v, axis=1)[:, None]
    w = rng.random(r)
    return PureMixture(w / w.sum(), v)


def test_mixture_matches_dense_functionals():
    rng = np.random.default_rng(8)
    for _ in range(20):
        a = random_mixture(rng, int(rng.integers(1, 4)), 4)
        b = random_mixture(rng, int(rng.integers(1, 4)), 4)
        assert state_fidelity(a, b) == pytest.approx(
            fidelity(to_dense(a), to_dense(b)), abs=1e-7
        )
        assert state_entropy(a) == pytest.approx(von_neumann_entropy(to_dense(a)), abs=1e-9)


def test_mixture_tensor_and_mix():
    rng = np.random.default_rng(9)
    a = random_mixture(rng, 2, 3)
    b = random_mixture(rng, 2, 2)
    t = tensor_states(a, b)
    np.testing.assert_allclose(to_dense(t), np.kron(to_dense(a), to_dense(b)), atol=1e-12)
    m = mix_states([(0.25, a), (0.75, random_mixture(rng, 2, 3))])
    assert np.real(np.trace(to_dense(m))) == pytest.approx(1.0, abs=1e-12)


def test_overcomplete_mixture_is_refactored():
    rng = np.random.default_rng(10)
    parts = [(0.25, random_mixture(rng, 2, 2)) for _ in range(4)]
    mixed = mix_states(parts)
    assert isinstance(mixed, PureMixture)
    assert mixed.rank_bound <= mixed.dim
    expected = sum(w * to_dense(s) for w, s in parts)
    np.testing.assert_allclose(to_dense(mixed), expected, atol=1e-12)


def test_dense_state_becomes_its_eigen_factor():
    rng = np.random.default_rng(12)
    rho = random_density(rng, 3)
    mix = as_mixture(rho)
    assert mix.rank_bound == 3
    np.testing.assert_allclose(to_dense(mix), rho, atol=1e-12)
    # a numerically rank-1 matrix becomes a pure state
    v = pure_state(rng.normal(size=3) + 1j * rng.normal(size=3)).vecs[0]
    pure = as_mixture(validate_density_matrix(np.outer(v, v.conj())))
    assert pure.rank_bound == 1
    assert abs(np.vdot(pure.vecs[0], v)) == pytest.approx(1.0, abs=1e-12)
    # an exactly diagonal matrix keeps its diagonal bit for bit, zeros dropped
    diag = np.diag([0.3, 0.0, 0.7]).astype(complex)
    onehot = as_mixture(diag)
    assert onehot.rank_bound == 2
    assert np.array_equal(to_dense(onehot), diag)
    with pytest.raises(StructuralError):
        as_mixture(np.diag([1.5, -0.5]).astype(complex))


def _flagged_factors(rng):
    """A mixture from each constructor that flags its rows orthonormal."""
    pure = pure_state(rng.normal(size=3) + 1j * rng.normal(size=3))
    dense = as_mixture(random_density(rng, 3))
    onehot = as_mixture(np.diag([0.2, 0.0, 0.8]).astype(complex))
    refactored = mix_states([(0.25, random_mixture(rng, 2, 2)) for _ in range(4)])
    return [pure, dense, onehot, refactored, tensor_states(pure, dense),
            tensor_states(dense, onehot), tensor_states(tensor_states(dense, pure), onehot)]


def test_flagged_factors_have_their_weights_as_gram():
    rng = np.random.default_rng(21)
    for _ in range(10):
        for mix in _flagged_factors(rng):
            assert mix.orthonormal
            v = mix.scaled_components()
            np.testing.assert_allclose(v @ v.conj().T, np.diag(mix.weights), rtol=0, atol=1e-12)


def test_unrefactored_mixtures_are_not_flagged():
    rng = np.random.default_rng(22)
    built = random_mixture(rng, 2, 3)
    flagged = as_mixture(random_density(rng, 3))
    mixed = mix_states([(0.5, pure_state([1, 0, 0])), (0.5, pure_state([1, 1, 0]))])
    assert mixed.rank_bound <= mixed.dim
    for mix in (built, mixed, tensor_states(built, flagged), tensor_states(flagged, mixed)):
        assert not mix.orthonormal


def test_branch_entropies_off_weights_match_the_gram_spectra():
    # flagged and unflagged branches of one state, for each dimension
    rng = np.random.default_rng(23)
    factors = _flagged_factors(rng)
    for dim in (3, 9):
        states = [s for s in factors if s.dim == dim]
        states += [random_mixture(rng, 3, dim), random_mixture(rng, 2, dim)]
        weights = rng.random(len(states))
        weights /= weights.sum()
        h = HybridState([(w, str(i), s) for i, (w, s) in enumerate(zip(weights, states))])
        expected = -(weights * np.log(weights)).sum() + sum(
            w * state_entropy(s) for w, s in zip(weights, states)
        )
        assert abs(h.entropy() - expected) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_pure_state_fidelity_is_overlap(seed):
    rng = np.random.default_rng(seed)
    u = rng.normal(size=3) + 1j * rng.normal(size=3)
    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    a, b = pure_state(u), pure_state(v)
    expected = abs(np.vdot(u / np.linalg.norm(u), v / np.linalg.norm(v)))
    assert state_fidelity(a, b) == pytest.approx(expected, abs=1e-10)


def _gaussian(rng, *shape) -> np.ndarray:
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@pytest.mark.parametrize("d", range(2, 17))
def test_a_stacked_decomposition_is_each_lone_one(d):
    # the hybrid engine decomposes a channel's matrices of one shape in one
    # stacked call; every result it reports is bit-identical only because a
    # stacked call gives each matrix exactly what a lone call gives
    rng = np.random.default_rng(d)
    mats = hermitize(_gaussian(rng, 5, d, d))
    vals, vecs = np.linalg.eigh(mats)
    spectra = np.linalg.eigvalsh(mats)
    for i, mat in enumerate(mats):
        lone_vals, lone_vecs = np.linalg.eigh(mat)
        assert np.array_equal(vals[i], lone_vals) and np.array_equal(vecs[i], lone_vecs)
        assert np.array_equal(spectra[i], np.linalg.eigvalsh(mat))
    for r in range(1, 2 * d + 1):
        va, vb = _gaussian(rng, 5, r, d), _gaussian(rng, 5, 2 * d + 1 - r, d)
        cross = va @ vb.conj().swapaxes(-1, -2)
        singular = np.linalg.svd(cross, compute_uv=False)
        fids = factor_fidelity(va, vb)
        for i in range(5):
            lone = va[i] @ vb[i].conj().T
            assert np.array_equal(cross[i], lone)
            assert np.array_equal(singular[i], np.linalg.svd(lone, compute_uv=False))
            assert fids[i] == factor_fidelity(va[i], vb[i])
