"""Numerical verification suite: one runnable check per proved inequality.

Every check evaluates both sides on a concrete instance and reports the
slack.  ``margin`` is always oriented so that nonnegative (within tol_eq)
means the statement holds; equality checks report minus the absolute
deviation.  Conditional statements evaluate their hypotheses explicitly and
pass vacuously (flagged) when the hypothesis fails, and the fuzz driver
manufactures instances that do satisfy the hypotheses so vacuous passes
stay visible rather than silent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import CqChannel, HybridState, preset_channel, random_cq_channel, random_density
from .config import ResourceCaps, default_caps
from .errors import StructuralError
from .groups import (
    FiniteAbelianGroup,
    Subgroup,
    enumerate_subgroups,
    generated_subgroup,
    maximal_subgroups,
    quotient_cosets,
)
from .linalg import (
    DEFAULT_TOL,
    angle,
    fidelity,
    helstrom_error,
    hermitize,
    povm_error_probability,
    pretty_good_measurement,
    sequential_measure,
    trace_distance,
    trace_sqrt_subadditivity_check,
    union_bound_rhs,
)
from .polarize import minus_transform, plus_transform
from .states import pure_state, to_dense

EQ_TOL_STRICT = 1e-9


@dataclass
class CheckReport:
    """Outcome of one check instance.

    margin >= -tol means the inequality (or equality, via -|deviation|)
    holds; hypothesis_satisfied=False marks a vacuous pass.
    """

    check_id: str
    instance: str
    lhs: float
    rhs: float
    margin: float
    hypothesis_satisfied: bool
    passed: bool

    def as_json(self) -> dict:
        return {
            "check_id": self.check_id,
            "instance": self.instance,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "hypothesis_satisfied": self.hypothesis_satisfied,
            "passed": self.passed,
        }


def _ineq(check_id, instance, lhs, rhs, direction="<=", tol=None, hypothesis=True):
    """lhs <= rhs (or >=) with slack-margin reporting."""
    tol = DEFAULT_TOL.tol_eq if tol is None else tol
    margin = rhs - lhs if direction == "<=" else lhs - rhs
    return CheckReport(
        check_id, instance, float(lhs), float(rhs), float(margin), bool(hypothesis),
        bool(not hypothesis or margin >= -tol),
    )


def _eq(check_id, instance, lhs, rhs, tol=EQ_TOL_STRICT, hypothesis=True):
    margin = -abs(lhs - rhs)
    return CheckReport(
        check_id, instance, float(lhs), float(rhs), float(margin), bool(hypothesis),
        bool(not hypothesis or margin >= -tol),
    )


# -- instance generators ---------------------------------------------------------


def random_channel(rng, q: int, k: int, flavor: str = None) -> CqChannel:
    flavors = ["pure", "mixed", "classical", "depolarized"]
    flavor = flavor or flavors[int(rng.integers(len(flavors)))]
    if flavor == "classical":
        return preset_channel("classical-symmetric", q=q, p=float(rng.uniform(0, 0.5)))
    if flavor == "depolarized":
        return preset_channel("depolarized-orthogonal", q=q, lam=float(rng.uniform(0, 1)))
    return random_cq_channel(FiniteAbelianGroup([q]), k, flavor == "mixed", rng)


def random_group(rng, q: int) -> FiniteAbelianGroup:
    # a few product shapes per order, weighted toward the interesting ones
    shapes = {4: [[4], [2, 2]], 8: [[8], [2, 4], [2, 2, 2]], 9: [[9], [3, 3]]}
    opts = shapes.get(q, [[q]])
    return FiniteAbelianGroup(opts[int(rng.integers(len(opts)))])


def coset_structured_channel(
    g: FiniteAbelianGroup, H: Subgroup, eps: float, rng
) -> CqChannel:
    """Pure states nearly constant on cosets of H and nearly orthogonal across.

    Gives F_d >= 1 - O(eps^2) for d in H and F_d = O(eps) otherwise; the
    raw material for every hypothesis-gated check.
    """
    members, coset_of = H.partition
    anchors = np.eye(max(2, len(members)), dtype=complex)[list(coset_of)]
    dim = anchors.shape[1]
    outputs = []
    for x in range(g.order):
        noise = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        outputs.append(HybridState([(1.0, (), pure_state(anchors[x] + eps * noise))]))
    return CqChannel(g, outputs)


def random_subidentity(rng, dim: int) -> np.ndarray:
    m = random_density(rng, dim)
    return m / max(1.0, 1.05 * float(np.linalg.eigvalsh(m)[-1]))


# -- individual checks --------------------------------------------------------------


def check_info_fidelity_lower(W: CqChannel, tag: str):
    q, I, F = W.q, W.holevo_information(), W.avg_fidelity()
    return [_ineq("info-fidelity-lower", tag, np.log(q / (1 + (q - 1) * F)), I, "<=")]


def check_info_fidelity_upper_pairwise(W: CqChannel, tag: str):
    q, I, F = W.q, W.holevo_information(), W.avg_fidelity()
    rhs = np.log(q / 2) + np.log(2) * np.sqrt(max(0.0, 1 - F * F))
    return [_ineq("info-fidelity-upper-pairwise", tag, I, rhs, "<=")]


def check_info_fidelity_upper_guessing(W: CqChannel, tag: str):
    q, I, F = W.q, W.holevo_information(), W.avg_fidelity()
    inner = q * q - (1 + (q - 1) * F) ** 2
    rhs = np.log(1 + np.sqrt(max(0.0, inner)))
    return [_ineq("info-fidelity-upper-guessing", tag, I, rhs, "<=")]


def check_sequential_union_bound(rng, tag: str):
    dim = int(rng.integers(2, 9))
    r = int(rng.integers(1, 6))
    rho = random_density(rng, dim)
    ops = [random_subidentity(rng, dim) for _ in range(r)]
    survival, _ = sequential_measure(ops, rho)
    return [_ineq("sequential-union-bound", f"{tag},dim={dim},r={r}",
                  1.0 - survival, union_bound_rhs(ops, rho), "<=")]


def check_fd_plus_squares(W: CqChannel, tag: str, caps):
    plus = plus_transform(W, caps)
    return [
        _eq("fd-plus-squares", f"{tag},d={d}", plus.fd(d), W.fd(d) ** 2)
        for d in range(W.q)
    ]


def check_fd_minus_sandwich(W: CqChannel, tag: str, caps):
    minus = minus_transform(W, caps)
    g = W.alphabet
    out = []
    for d in range(1, W.q):
        fdm = minus.fd(d)
        out.append(_ineq("fd-minus-sandwich", f"{tag},d={d},lower", W.fd(d), fdm, "<="))
        upper = 2 * W.fd(d)
        neg_d = g.neg_index(d)
        for delta in range(1, W.q):
            if delta == neg_d:
                continue
            upper += W.fd(delta) * W.fd(g.add_index(d, delta))
        out.append(_ineq("fd-minus-sandwich", f"{tag},d={d},upper", fdm, upper, "<="))
    return out


def check_fmax_plus_squares(W: CqChannel, tag: str, caps):
    plus = plus_transform(W, caps)
    return [_eq("fmax-plus-squares", tag, plus.f_max(), W.f_max() ** 2)]


def check_fmax_minus_growth(W: CqChannel, tag: str, caps):
    minus = minus_transform(W, caps)
    fm, fmm = W.f_max(), minus.f_max()
    return [
        _ineq("fmax-minus-growth", f"{tag},lower", fm, fmm, "<="),
        _ineq("fmax-minus-growth", f"{tag},upper", fmm, W.q * fm, "<="),
    ]


def check_favg_plus_contraction(W: CqChannel, tag: str, caps):
    plus = plus_transform(W, caps)
    q, F = W.q, W.avg_fidelity()
    rhs = min(F, (q - 1) ** 2 * F * F)
    return [_ineq("favg-plus-contraction", tag, plus.avg_fidelity(), rhs, "<=")]


def check_favg_minus_growth(W: CqChannel, tag: str, caps):
    minus = minus_transform(W, caps)
    q, F, Fm = W.q, W.avg_fidelity(), minus.avg_fidelity()
    return [
        _ineq("favg-minus-growth", f"{tag},lower", F, Fm, "<="),
        _ineq("favg-minus-growth", f"{tag},upper", Fm, q * (q - 1) * F, "<="),
    ]


def check_info_conservation(W: CqChannel, tag: str, caps):
    minus, plus = minus_transform(W, caps), plus_transform(W, caps)
    lhs = minus.holevo_information() + plus.holevo_information()
    return [_eq("info-conservation", tag, lhs, 2 * W.holevo_information(), tol=1e-8)]


def check_info_ordering(W: CqChannel, tag: str, caps):
    minus, plus = minus_transform(W, caps), plus_transform(W, caps)
    I = W.holevo_information()
    return [
        _ineq("info-ordering", f"{tag},minus", minus.holevo_information(), I, "<=", tol=1e-8),
        _ineq("info-ordering", f"{tag},plus", I, plus.holevo_information(), "<=", tol=1e-8),
    ]


def check_quotient_info_two_branch(W: CqChannel, tag: str, caps):
    minus, plus = minus_transform(W, caps), plus_transform(W, caps)
    out = []
    for H in enumerate_subgroups(W.alphabet):
        lhs = 2 * W.quotient(H).holevo_information()
        rhs = minus.quotient(H).holevo_information() + plus.quotient(H).holevo_information()
        out.append(
            _ineq("quotient-info-two-branch", f"{tag},H={H!r}", lhs, rhs, "<=", tol=1e-8)
        )
    return out


def check_nested_info_decomposition(W: CqChannel, tag: str):
    out = []
    subs = enumerate_subgroups(W.alphabet)
    for H in subs:
        for M in subs:
            if not M.is_subset_of(H):
                continue
            value, decomp = W.nested_information(M, H)
            out.append(
                _eq("nested-info-decomposition", f"{tag},M={M!r},H={H!r}", value, decomp)
            )
    return out


def check_restricted_fidelity_upper(W: CqChannel, tag: str):
    q = W.q
    out = []
    subs = enumerate_subgroups(W.alphabet)
    for H in subs:
        if H.order == 1:
            continue
        for M in subs:
            if not (M.is_subset_of(H) and M.order < H.order):
                continue
            fmax = W.nested_fmax(M, H)
            for D in quotient_cosets(W.alphabet, H):
                lhs = W.restricted_quotient(M, D).avg_fidelity()
                out.append(
                    _ineq(
                        "restricted-fidelity-upper",
                        f"{tag},M={M!r},H={H!r},D={D!r}",
                        lhs,
                        q * M.order / H.order * fmax,
                        "<=",
                    )
                )
    return out


def check_restricted_fidelity_lower(W: CqChannel, tag: str):
    q = W.q
    out = []
    for H in enumerate_subgroups(W.alphabet):
        if H.order == 1:
            continue
        for M in maximal_subgroups(H):
            fmax = W.nested_fmax(M, H)
            inner = 1.0 - q * (1.0 - fmax)
            hyp = (
                0.0 <= inner <= 1.0
                and 1.0 - np.sqrt(max(0.0, 1.0 - inner**2))
                >= (np.cos(np.pi / (2 * (q - 1))) if q > 2 else 0.0)
            )
            steps = (H.order - M.order) / M.order
            bound = (
                np.cos(steps * np.arccos(1.0 - np.sqrt(max(0.0, 1.0 - inner**2))))
                if hyp
                else -1.0
            )
            for D in quotient_cosets(W.alphabet, H):
                lhs = W.restricted_quotient(M, D).avg_fidelity()
                out.append(
                    _ineq(
                        "restricted-fidelity-lower",
                        f"{tag},M={M!r},H={H!r},D={D!r}",
                        bound,
                        lhs,
                        "<=",
                        hypothesis=hyp,
                    )
                )
    return out


def check_fidelity_chain_sum(W: CqChannel, tag: str, rng, favored=None):
    g = W.alphabet
    q = W.q
    r = int(rng.integers(2, 4))
    pool = list(favored) if favored else list(range(q))
    ds = [int(pool[int(rng.integers(len(pool)))]) for _ in range(r)]
    thresh = 1.0 - (1.0 - np.cos(np.pi / (2 * r))) / q
    hyp = all(W.fd(d) >= thresh for d in ds)
    total = 0
    for d in ds:
        total = g.add_index(total, d)
    if hyp:
        rhs = np.cos(sum(np.arccos(min(1.0, 1.0 - q * (1.0 - W.fd(d)))) for d in ds))
    else:
        rhs = -1.0
    return [
        _ineq(
            "fidelity-chain-sum",
            f"{tag},ds={ds}",
            rhs,
            W.fd(total),
            "<=",
            hypothesis=hyp,
        )
    ]


def check_generated_subgroup_fmax(W: CqChannel, tag: str, rng, favored=None):
    q = W.q
    g = W.alphabet
    pool = [d for d in (favored or range(q)) if d != 0] or list(range(1, q))
    d = int(pool[int(rng.integers(len(pool)))])
    H = generated_subgroup(g.element_by_index(d))
    maxes = maximal_subgroups(H)
    out = []
    fd_val = W.fd(d)
    for M in maxes:
        out.append(
            _ineq(
                "generated-subgroup-fmax",
                f"{tag},d={d},M={M!r},upper",
                fd_val,
                W.nested_fmax(M, H),
                "<=",
            )
        )
    thresh = 1.0 - (1.0 - np.cos(np.pi / (2 * q))) / q
    vals = [W.nested_fmax(M, H) for M in maxes]
    hyp = bool(vals) and all(v >= thresh for v in vals)
    if hyp:
        lo = np.cos(q * np.arccos(min(1.0, 1.0 - q * (1.0 - min(vals)))))
    else:
        lo = -1.0
    out.append(
        _ineq(
            "generated-subgroup-fmax",
            f"{tag},d={d},lower",
            lo,
            fd_val,
            "<=",
            hypothesis=hyp,
        )
    )
    return out


def check_quotient_fidelity_growth(W: CqChannel, tag: str, caps):
    q = W.q
    minus, plus = minus_transform(W, caps), plus_transform(W, caps)
    out = []
    for H in enumerate_subgroups(W.alphabet):
        h = H.order
        fq = W.quotient(H).avg_fidelity()
        out.append(
            _ineq(
                "quotient-fidelity-growth",
                f"{tag},H={H!r},minus",
                minus.quotient(H).avg_fidelity(),
                h * q * (q - h) * fq,
                "<=",
            )
        )
        out.append(
            _ineq(
                "quotient-fidelity-growth",
                f"{tag},H={H!r},plus",
                plus.quotient(H).avg_fidelity(),
                h * (q - h) ** 2 * fq * fq,
                "<=",
            )
        )
    return out


def check_profile_implies_quotient_info(W: CqChannel, H: Subgroup, tag: str):
    """Near-subgroup fidelity profiles force near-quotient information.

    Composes the bound chain: within-coset fidelities give an upper bound on
    I(W) - I(W[H]) through the restricted channels and the guessing bound;
    cross-coset fidelities lower-bound I(W[H]) through the lower info bound.
    """
    q = W.q
    g = W.alphabet
    in_h = [d for d in H.indices if d != 0]
    out_h = [d for d in range(q) if not H.contains_index(d)]
    eps_hi = max((1.0 - W.fd(d) for d in in_h), default=0.0)
    eps_lo = max((W.fd(d) for d in out_h), default=0.0)
    eps = max(eps_hi, eps_lo)
    hyp = q * eps <= 1.0
    log_quot = np.log(q / H.order)
    quot_I = W.quotient(H).holevo_information()
    I = W.holevo_information()
    if H.order == q:
        inner = q * q - (q - (q - 1) * eps) ** 2
        delta = np.log(1.0 + np.sqrt(max(0.0, inner)))
        return [
            _ineq("profile-implies-quotient-info", f"{tag},H=G,info", I, delta, "<=",
                  hypothesis=hyp),
            _eq("profile-implies-quotient-info", f"{tag},H=G,quot", quot_I, 0.0,
                tol=1e-9, hypothesis=hyp),
        ]
    qh = q // H.order
    delta2 = np.log(1.0 + (qh - 1) * min(1.0, q * eps))
    if H.order == 1:
        delta3 = 0.0
    else:
        h = H.order
        inner = h * h - (1.0 + (h - 1) * (1.0 - min(1.0, q * eps))) ** 2
        delta3 = np.log(1.0 + np.sqrt(max(0.0, inner)))
    return [
        _ineq(
            "profile-implies-quotient-info",
            f"{tag},H={H!r},quot",
            abs(quot_I - log_quot),
            delta2,
            "<=",
            hypothesis=hyp,
        ),
        _ineq(
            "profile-implies-quotient-info",
            f"{tag},H={H!r},info",
            abs(I - log_quot),
            delta2 + delta3,
            "<=",
            hypothesis=hyp,
        ),
    ]


def check_trace_sqrt_subadditive(rng, tag: str):
    dim = int(rng.integers(2, 7))
    a = random_density(rng, dim) * float(rng.uniform(0.1, 3.0))
    b = random_density(rng, dim) * float(rng.uniform(0.1, 3.0))
    tr = lambda m: float(np.sqrt(np.clip(np.linalg.eigvalsh(hermitize(m)), 0, None)).sum())
    ok = trace_sqrt_subadditivity_check(a, b)
    rep = _ineq(
        "trace-sqrt-subadditive", f"{tag},dim={dim}", tr(a + b), tr(a) + tr(b), "<="
    )
    rep.passed = rep.passed and ok
    return [rep]


def check_mixture_fidelity_subadditive(rng, tag: str):
    dim = int(rng.integers(2, 5))
    n, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    rhos = [random_density(rng, dim) for _ in range(n)]
    sigmas = [random_density(rng, dim) for _ in range(m)]
    p = rng.random(n)
    p /= p.sum()
    qw = rng.random(m)
    qw /= qw.sum()
    lhs = fidelity(
        sum(pi * r for pi, r in zip(p, rhos)), sum(qi * s for qi, s in zip(qw, sigmas))
    )
    rhs = sum(
        np.sqrt(pi * qi) * fidelity(r, s)
        for pi, r in zip(p, rhos)
        for qi, s in zip(qw, sigmas)
    )
    return [_ineq("mixture-fidelity-subadditive", f"{tag},n={n},m={m}", lhs, rhs, "<=")]


def check_fmax_quotient_upper(W: CqChannel, tag: str):
    q = W.q
    out = []
    full = Subgroup(W.alphabet, tuple(range(q)))
    for H in enumerate_subgroups(W.alphabet):
        if H.order == q:
            continue
        lhs = W.nested_fmax(H, full)
        rhs = (q - H.order) * W.quotient(H).avg_fidelity()
        out.append(_ineq("fmax-quotient-upper", f"{tag},H={H!r}", lhs, rhs, "<="))
    return out


def check_pgm_error_bound(W: CqChannel, tag: str):
    dense = [to_dense(h.branches[0][2]) for h in W.flatten_dense().outputs]
    povm = pretty_good_measurement(dense)
    pe = povm_error_probability(povm, dense)
    return [_ineq("pgm-error-bound", tag, pe, (W.q - 1) * W.avg_fidelity(), "<=")]


def check_block_pgm_error_bound(rng, q: int, k: int, tag: str):
    """Blockwise-assembled PGM on a channel with a uniform classical register."""
    r = int(rng.integers(1, 4))
    g = FiniteAbelianGroup([q])
    states = [[random_density(rng, k) for _ in range(r)] for _ in range(q)]
    outputs = [
        HybridState([(1.0 / r, u, states[x][u]) for u in range(r)]) for x in range(q)
    ]
    W = CqChannel(g, outputs)
    err = 0.0
    for u in range(r):
        povm = pretty_good_measurement([states[x][u] for x in range(q)])
        err += povm_error_probability(povm, [states[x][u] for x in range(q)]) / r
    return [_ineq("block-pgm-error-bound", f"{tag},r={r}", err, (q - 1) * W.avg_fidelity(), "<=")]


def check_optimal_decoder_bound(W: CqChannel, tag: str):
    out = []
    rhs = (W.q - 1) * W.avg_fidelity()
    dense = [to_dense(h.branches[0][2]) for h in W.flatten_dense().outputs]
    if W.q == 2:
        out.append(
            _ineq("optimal-decoder-bound", f"{tag},helstrom",
                  helstrom_error(dense[0], dense[1]), rhs, "<=")
        )
    povm = pretty_good_measurement(dense)
    out.append(
        _ineq("optimal-decoder-bound", f"{tag},pgm",
              povm_error_probability(povm, dense), rhs, "<=")
    )
    return out


def check_distance_fidelity_relations(rng, tag: str):
    dim = int(rng.integers(2, 6))
    a, b = random_density(rng, dim), random_density(rng, dim)
    d, f = trace_distance(a, b), fidelity(a, b)
    return [
        _ineq("distance-fidelity-relations", f"{tag},sum", 1.0, d + f, "<="),
        _ineq("distance-fidelity-relations", f"{tag},squares", d * d + f * f, 1.0, "<="),
    ]


def check_angle_triangle(rng, tag: str):
    dim = int(rng.integers(2, 5))
    a, b, c = (random_density(rng, dim) for _ in range(3))
    return [
        _ineq("angle-triangle", f"{tag},dim={dim}", angle(a, c), angle(a, b) + angle(b, c), "<=")
    ]


# -- registry and drivers --------------------------------------------------------------

#: check id -> instance family the driver should feed it
CHECKS = {
    "info-fidelity-lower": "channel",
    "info-fidelity-upper-pairwise": "channel",
    "info-fidelity-upper-guessing": "channel",
    "sequential-union-bound": "matrices",
    "fd-plus-squares": "channel",
    "fd-minus-sandwich": "channel",
    "fmax-plus-squares": "channel",
    "fmax-minus-growth": "channel",
    "favg-plus-contraction": "channel",
    "favg-minus-growth": "channel",
    "info-conservation": "channel",
    "info-ordering": "channel",
    "quotient-info-two-branch": "group-channel",
    "nested-info-decomposition": "group-channel",
    "restricted-fidelity-upper": "group-channel",
    "restricted-fidelity-lower": "structured-channel",
    "fidelity-chain-sum": "structured-channel",
    "generated-subgroup-fmax": "structured-channel",
    "quotient-fidelity-growth": "group-channel",
    "profile-implies-quotient-info": "structured-channel",
    "trace-sqrt-subadditive": "matrices",
    "mixture-fidelity-subadditive": "matrices",
    "fmax-quotient-upper": "group-channel",
    "pgm-error-bound": "channel",
    "block-pgm-error-bound": "matrices",
    "optimal-decoder-bound": "channel",
    "distance-fidelity-relations": "matrices",
    "angle-triangle": "matrices",
}


def _group_channel(rng, q: int, k: int) -> CqChannel:
    g = random_group(rng, q)
    return random_cq_channel(g, k, bool(rng.integers(2)), rng)


def _run_one(check_id: str, rng, q: int, k: int, caps, tag: str):
    kind = CHECKS[check_id]
    if kind == "matrices":
        fn = {
            "sequential-union-bound": lambda: check_sequential_union_bound(rng, tag),
            "trace-sqrt-subadditive": lambda: check_trace_sqrt_subadditive(rng, tag),
            "mixture-fidelity-subadditive": lambda: check_mixture_fidelity_subadditive(rng, tag),
            "block-pgm-error-bound": lambda: check_block_pgm_error_bound(rng, q, k, tag),
            "distance-fidelity-relations": lambda: check_distance_fidelity_relations(rng, tag),
            "angle-triangle": lambda: check_angle_triangle(rng, tag),
        }[check_id]
        return fn()
    favored = None
    if kind == "channel":
        W = random_channel(rng, q, k)
    elif kind == "group-channel":
        W = _group_channel(rng, q, k)
    else:  # structured-channel: satisfy the gated hypotheses often
        g = random_group(rng, q)
        subs = enumerate_subgroups(g)
        H = subs[int(rng.integers(len(subs)))]
        eps = float(10.0 ** rng.uniform(-5, -3))
        W = coset_structured_channel(g, H, eps, rng)
        favored = list(H.indices)
        tag = f"{tag},eps={eps:.2e}"
        if check_id == "profile-implies-quotient-info":
            return check_profile_implies_quotient_info(W, H, tag)
    dispatch = {
        "info-fidelity-lower": lambda: check_info_fidelity_lower(W, tag),
        "info-fidelity-upper-pairwise": lambda: check_info_fidelity_upper_pairwise(W, tag),
        "info-fidelity-upper-guessing": lambda: check_info_fidelity_upper_guessing(W, tag),
        "fd-plus-squares": lambda: check_fd_plus_squares(W, tag, caps),
        "fd-minus-sandwich": lambda: check_fd_minus_sandwich(W, tag, caps),
        "fmax-plus-squares": lambda: check_fmax_plus_squares(W, tag, caps),
        "fmax-minus-growth": lambda: check_fmax_minus_growth(W, tag, caps),
        "favg-plus-contraction": lambda: check_favg_plus_contraction(W, tag, caps),
        "favg-minus-growth": lambda: check_favg_minus_growth(W, tag, caps),
        "info-conservation": lambda: check_info_conservation(W, tag, caps),
        "info-ordering": lambda: check_info_ordering(W, tag, caps),
        "quotient-info-two-branch": lambda: check_quotient_info_two_branch(W, tag, caps),
        "nested-info-decomposition": lambda: check_nested_info_decomposition(W, tag),
        "restricted-fidelity-upper": lambda: check_restricted_fidelity_upper(W, tag),
        "restricted-fidelity-lower": lambda: check_restricted_fidelity_lower(W, tag),
        "fidelity-chain-sum": lambda: check_fidelity_chain_sum(W, tag, rng, favored),
        "generated-subgroup-fmax": lambda: check_generated_subgroup_fmax(W, tag, rng, favored),
        "quotient-fidelity-growth": lambda: check_quotient_fidelity_growth(W, tag, caps),
        "fmax-quotient-upper": lambda: check_fmax_quotient_upper(W, tag),
        "pgm-error-bound": lambda: check_pgm_error_bound(W, tag),
        "optimal-decoder-bound": lambda: check_optimal_decoder_bound(W, tag),
    }
    return dispatch[check_id]()


def run_check(check_id: str, seed: int = 0, trials: int = 1, q: int = 2, k: int = 2,
              caps: ResourceCaps = None):
    """Run one check on `trials` seeded instances."""
    return run_all(seed, trials, qs=(q,), ks=(k,), checks=[check_id], caps=caps)


def _stable_hash(text: str) -> int:
    h = 2166136261
    for ch in text.encode():
        h = ((h ^ ch) * 16777619) % (1 << 31)
    return h


def run_all(seed: int = 0, trials: int = 10, qs=(2, 3, 4), ks=(2, 3), checks=None,
            caps: ResourceCaps = None):
    """Run every (or the named) check over a fuzz grid of channel sizes."""
    caps = caps or default_caps()
    names = list(CHECKS) if checks in (None, "all") else list(checks)
    for name in names:
        if name not in CHECKS:
            raise StructuralError(f"unknown check id {name!r}")
    reports = []
    for name in names:
        for t in range(trials):
            q = qs[t % len(qs)]
            k = ks[(t // len(qs)) % len(ks)]
            rng = np.random.default_rng([seed, t, _stable_hash(name)])
            reports.extend(_run_one(name, rng, q, k, caps, f"seed={seed},t={t},q={q},k={k}"))
    return reports


def summarize(reports) -> dict:
    by_check: dict = {}
    for r in reports:
        agg = by_check.setdefault(
            r.check_id,
            {"instances": 0, "failures": 0, "vacuous": 0, "min_margin": np.inf},
        )
        agg["instances"] += 1
        if not r.passed:
            agg["failures"] += 1
        if not r.hypothesis_satisfied:
            agg["vacuous"] += 1
        else:
            agg["min_margin"] = min(agg["min_margin"], r.margin)
    for agg in by_check.values():
        if agg["min_margin"] is np.inf:
            agg["min_margin"] = None
    return by_check
