import numpy as np
import pytest

from conftest import random_mixed_channel

from cqpolar import checks
from cqpolar.channel import CqChannel, HybridState, preset_channel, random_density
from cqpolar.checks import (
    CHECKS,
    Instance,
    check_info_fidelity_lower,
    check_info_fidelity_upper_guessing,
    check_info_fidelity_upper_pairwise,
    coset_structured_channel,
    run_all,
    run_check,
    summarize,
)
from cqpolar.errors import StructuralError
from cqpolar.groups import FiniteAbelianGroup, Subgroup
from cqpolar.polarize import plus_transform
from cqpolar.states import as_mixture, mix_states


@pytest.mark.parametrize("seed,trials", [(17, 4), (0, 20), (1, 20), (2, 20)])
def test_run_all_zero_failures_small_grid(seed, trials):
    # verify's own trial count at seeds 0-2 guards the rounding slack
    reports = run_all(seed=seed, trials=trials)
    summary = summarize(reports)
    assert set(summary) <= set(CHECKS) | {"quotient-fidelity-growth"}
    assert sum(v["failures"] for v in summary.values()) == 0
    assert all(v["instances"] > 0 for v in summary.values())


def test_gated_checks_are_exercised_nonvacuously():
    reports = run_all(
        seed=5,
        trials=8,
        checks=[
            "restricted-fidelity-lower",
            "fidelity-chain-sum",
            "generated-subgroup-fmax",
            "profile-implies-quotient-info",
        ],
    )
    summary = summarize(reports)
    for name, agg in summary.items():
        assert agg["failures"] == 0
        assert agg["vacuous"] < agg["instances"], name


REGISTRY_ORDER = [
    "info-fidelity-lower",
    "info-fidelity-upper-pairwise",
    "info-fidelity-upper-guessing",
    "sequential-union-bound",
    "fd-plus-squares",
    "fd-minus-sandwich",
    "fmax-plus-squares",
    "fmax-minus-growth",
    "favg-plus-contraction",
    "favg-minus-growth",
    "info-conservation",
    "info-ordering",
    "quotient-info-two-branch",
    "nested-info-decomposition",
    "restricted-fidelity-upper",
    "restricted-fidelity-lower",
    "fidelity-chain-sum",
    "generated-subgroup-fmax",
    "quotient-fidelity-growth",
    "profile-implies-quotient-info",
    "trace-sqrt-subadditive",
    "mixture-fidelity-subadditive",
    "fmax-quotient-upper",
    "pgm-error-bound",
    "block-pgm-error-bound",
    "optimal-decoder-bound",
    "distance-fidelity-relations",
    "angle-triangle",
]


def test_registry_order_is_pinned():
    # run_all and the verify output list checks in registration order
    assert list(CHECKS) == REGISTRY_ORDER


@pytest.mark.parametrize("check_id", list(CHECKS))
def test_every_registered_check_passes_and_is_stamped(check_id):
    reports = run_check(check_id, seed=0, trials=2)
    assert reports
    assert summarize(reports)[check_id]["failures"] == 0
    assert all(r.check_id == check_id for r in reports)


def test_unknown_check_id():
    with pytest.raises(StructuralError):
        run_check("no-such-check")
    with pytest.raises(StructuralError):
        run_all(checks=["no-such-check"])


def test_margins_at_analytic_extremes():
    # lower bound is an equality at both the perfect and the useless channel
    perfect = preset_channel("classical-symmetric", q=3, p=0.0)
    useless = preset_channel("depolarized-orthogonal", q=3, lam=1.0)
    perfect = Instance(None, 3, 2, "perfect", W=perfect)
    useless = Instance(None, 3, 2, "useless", W=useless)
    low_p = check_info_fidelity_lower(perfect)[0]
    low_u = check_info_fidelity_lower(useless)[0]
    assert abs(low_p.margin) <= 1e-9
    assert abs(low_u.margin) <= 1e-9
    # pairwise upper bound is tight at the perfect channel
    up_p = check_info_fidelity_upper_pairwise(perfect)[0]
    assert abs(up_p.margin) <= 1e-9
    # guessing upper bound is tight at the useless channel
    gu_u = check_info_fidelity_upper_guessing(useless)[0]
    assert abs(gu_u.margin) <= 1e-9


def test_run_check_deterministic():
    a = run_check("sequential-union-bound", seed=3, trials=5)
    b = run_check("sequential-union-bound", seed=3, trials=5)
    assert [(r.lhs, r.rhs) for r in a] == [(r.lhs, r.rhs) for r in b]


def test_structured_channel_profile():
    g = FiniteAbelianGroup([4])
    h = Subgroup(g, (0, 2))
    w = coset_structured_channel(g, h, 1e-4, np.random.default_rng(0))
    assert w.fd(2) > 1 - 1e-6
    assert w.fd(1) < 1e-3
    assert w.fd(3) < 1e-3


def test_reports_serialize():
    reports = run_check("info-fidelity-lower", seed=1, trials=2)
    for r in reports:
        blob = r.as_json()
        assert set(blob) == {
            "check_id",
            "instance",
            "lhs",
            "rhs",
            "margin",
            "hypothesis_satisfied",
            "passed",
        }


def _perturbed(transform, rng):
    """``transform`` with its child's first output state moved by 1e-6: mixed
    with weight 1e-6 into a random state.  The child keeps W as its origin."""

    def run(W):
        child = transform(W)
        (w, lab, st), *rest = child.outputs[0].branches
        noise = as_mixture(random_density(rng, st.dim))
        moved = mix_states([(1.0 - 1e-6, st), (1e-6, noise)])
        child.outputs[0] = HybridState([(w, lab, moved), *rest])
        return child

    return run


@pytest.mark.parametrize("check_id", ["fd-plus-squares", "info-conservation"])
def test_transform_checks_see_one_perturbed_output_state(check_id, monkeypatch):
    # read by the product rules, the perturbed W^+ still shows F_d(W)^2; the
    # checks evaluate the child's states, so they see the perturbation
    W = random_mixed_channel(np.random.default_rng(50), 3, 2)
    rng = np.random.default_rng(51)
    plus = _perturbed(plus_transform, rng)(W)
    assert max(abs(plus.fd(d) - W.fd(d) ** 2) for d in range(3)) <= 1e-15
    inst = Instance(None, 3, 2, "perturbed", W=W)
    _, check_fn = CHECKS[check_id]
    assert all(r.passed for r in check_fn(inst))
    for name in ("minus_transform", "plus_transform"):
        monkeypatch.setattr(checks, name, _perturbed(getattr(checks, name), rng))
    assert not all(r.passed for r in check_fn(inst))


def _failures(reports) -> dict:
    return {cid: agg["failures"] for cid, agg in summarize(reports).items() if agg["failures"]}


@pytest.mark.parametrize(
    "functional,run",
    [
        pytest.param("conditional_output_entropy", lambda: run_all(seed=0, trials=20),
                     id="conditional-entropy"),
        pytest.param("pairwise_fidelity", lambda: run_check("fd-plus-squares", seed=0, trials=20, q=3)
                     + run_check("fmax-plus-squares", seed=0, trials=20, q=3),
                     id="pairwise-fidelity"),
    ],
)
def test_verify_fails_a_functional_off_by_1e10_relative(functional, run, monkeypatch):
    # 1e-10 relative is ~10^6 ulps, far beyond rounding
    assert _failures(run()) == {}
    exact = getattr(CqChannel, functional)
    monkeypatch.setattr(CqChannel, functional, lambda W, *a: (1 + 1e-10) * exact(W, *a))
    assert _failures(run())
