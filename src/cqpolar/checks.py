"""Numerical verification suite: one runnable check per proved inequality.

Every check evaluates both sides on a concrete instance and reports the
slack.  ``margin`` is always oriented so that nonnegative (within the
rounding slack of :func:`_report`) means the statement holds; equality
checks report minus the absolute deviation.  Conditional statements evaluate
their hypotheses explicitly and pass vacuously (flagged) when the hypothesis
fails, and the fuzz driver manufactures instances that do satisfy the
hypotheses so vacuous passes stay visible rather than silent.

A check is a function of one :class:`Instance` that returns its reports.
It is registered where it is defined, by ``@check(check_id, family)``, and
that decorator is the only place its id is written: :data:`CHECKS` maps
each id, in registration order, to its family and function.  The family
names the builder in :data:`FAMILIES` that fills the instance in:

- ``matrices``: nothing beyond the random stream and the grid point; the
  check draws its own matrices;
- ``channel``: ``W`` is a random cyclic-input channel of one of four
  flavours (pure, mixed, classical, depolarized);
- ``group-channel``: ``W`` is a random channel over a random group of
  order q, product groups included;
- ``structured-channel``: ``W`` is near-constant on the cosets of a random
  subgroup ``H`` and near-orthogonal across them, so the gated hypotheses
  often hold; the tag gains the ``eps=`` noise level.

:func:`run_all` builds every instance and stamps the check id on its reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .channel import CqChannel, HybridState, preset_channel, random_cq_channel, random_density
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
    CHECK_ULPS,
    angle,
    fidelity,
    helstrom_error,
    hermitize,
    povm_error_probability,
    pretty_good_measurement,
    sequential_measure,
    trace_distance,
    union_bound_rhs,
)
from .polarize import minus_transform, plus_transform
from .states import pure_state, to_dense

@dataclass
class CheckReport:
    """Outcome of one check instance.

    passed means margin >= -CHECK_ULPS * eps * max(1, |lhs|, |rhs|): the
    inequality (or equality, via margin = -|deviation|) holds to rounding.
    hypothesis_satisfied=False marks a vacuous pass.
    """

    check_id: str
    instance: str
    lhs: float
    rhs: float
    margin: float
    hypothesis_satisfied: bool
    passed: bool

    def as_json(self) -> dict:
        # every field is a scalar, so a shallow copy is what asdict's deep copy gives
        return dict(vars(self))


def _report(instance, lhs, rhs, eq=False, hypothesis=True):
    """lhs <= rhs, or lhs == rhs when ``eq``, with slack-margin reporting.

    Every check's slack is CHECK_ULPS ulps of max(1, |lhs|, |rhs|), the
    rounding of the sums on its sides.  The check id is left blank; the
    driver stamps it.
    """
    margin = -abs(lhs - rhs) if eq else rhs - lhs
    slack = CHECK_ULPS * np.finfo(float).eps * max(1.0, abs(lhs), abs(rhs))
    return CheckReport(
        "", instance, float(lhs), float(rhs), float(margin), bool(hypothesis),
        bool(not hypothesis or margin >= -slack),
    )


# -- instance generators ---------------------------------------------------------


def random_channel(rng, q: int, k: int) -> CqChannel:
    flavor = ("pure", "mixed", "classical", "depolarized")[int(rng.integers(4))]
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


@dataclass
class Instance:
    """What one check runs on.

    The random stream, the grid point (q, k) and the instance tag, plus the
    channel ``W`` and the subgroup ``H`` it is built around when the check's
    family supplies them.  Transforms run under the default caps.
    """

    rng: np.random.Generator
    q: int
    k: int
    tag: str
    W: CqChannel | None = None
    H: Subgroup | None = None


def _channel(inst: Instance) -> None:
    inst.W = random_channel(inst.rng, inst.q, inst.k)


def _group_channel(inst: Instance) -> None:
    g = random_group(inst.rng, inst.q)
    inst.W = random_cq_channel(g, inst.k, bool(inst.rng.integers(2)), inst.rng)


def _structured_channel(inst: Instance) -> None:
    g = random_group(inst.rng, inst.q)
    subs = enumerate_subgroups(g)
    inst.H = subs[int(inst.rng.integers(len(subs)))]
    eps = float(10.0 ** inst.rng.uniform(-5, -3))
    inst.W = coset_structured_channel(g, inst.H, eps, inst.rng)
    inst.tag += f",eps={eps:.2e}"


#: instance family -> builder that fills in what the family supplies
FAMILIES: dict[str, Callable[[Instance], None]] = {
    "matrices": lambda inst: None,
    "channel": _channel,
    "group-channel": _group_channel,
    "structured-channel": _structured_channel,
}


#: check id -> (instance family, check function), in registration order
CHECKS: dict[str, tuple[str, Callable[[Instance], list]]] = {}


def check(check_id: str, family: str):
    """Register the decorated function as the check ``check_id``."""

    def register(fn):
        CHECKS[check_id] = (family, fn)
        return fn

    return register


# -- individual checks --------------------------------------------------------------


@check("info-fidelity-lower", "channel")
def check_info_fidelity_lower(inst: Instance):
    W = inst.W
    q, I, F = W.q, W.holevo_information(), W.avg_fidelity()
    return [_report(inst.tag, np.log(q / (1 + (q - 1) * F)), I)]


@check("info-fidelity-upper-pairwise", "channel")
def check_info_fidelity_upper_pairwise(inst: Instance):
    W = inst.W
    q, I, F = W.q, W.holevo_information(), W.avg_fidelity()
    rhs = np.log(q / 2) + np.log(2) * np.sqrt(max(0.0, 1 - F * F))
    return [_report(inst.tag, I, rhs)]


@check("info-fidelity-upper-guessing", "channel")
def check_info_fidelity_upper_guessing(inst: Instance):
    W = inst.W
    q, I, F = W.q, W.holevo_information(), W.avg_fidelity()
    inner = q * q - (1 + (q - 1) * F) ** 2
    rhs = np.log(1 + np.sqrt(max(0.0, inner)))
    return [_report(inst.tag, I, rhs)]


@check("sequential-union-bound", "matrices")
def check_sequential_union_bound(inst: Instance):
    rng = inst.rng
    dim = int(rng.integers(2, 9))
    r = int(rng.integers(1, 6))
    rho = random_density(rng, dim)
    ops = [random_subidentity(rng, dim) for _ in range(r)]
    survival, _ = sequential_measure(ops, rho)
    return [_report(f"{inst.tag},dim={dim},r={r}", 1.0 - survival, union_bound_rhs(ops, rho))]


def _direct(child: CqChannel) -> CqChannel:
    """``child`` without its rules: evaluated, not read off W by the rules under test."""
    return CqChannel(child.alphabet, child.outputs)


@check("fd-plus-squares", "channel")
def check_fd_plus_squares(inst: Instance):
    W = inst.W
    plus = _direct(plus_transform(W))
    return [_report(f"{inst.tag},d={d}", plus.fd(d), W.fd(d) ** 2, eq=True) for d in range(W.q)]


@check("fd-minus-sandwich", "channel")
def check_fd_minus_sandwich(inst: Instance):
    W = inst.W
    minus = minus_transform(W)
    g = W.alphabet
    out = []
    for d in range(1, W.q):
        fdm = minus.fd(d)
        out.append(_report(f"{inst.tag},d={d},lower", W.fd(d), fdm))
        upper = 2 * W.fd(d)
        neg_d = g.neg_index(d)
        for delta in range(1, W.q):
            if delta == neg_d:
                continue
            upper += W.fd(delta) * W.fd(g.add_index(d, delta))
        out.append(_report(f"{inst.tag},d={d},upper", fdm, upper))
    return out


@check("fmax-plus-squares", "channel")
def check_fmax_plus_squares(inst: Instance):
    W = inst.W
    plus = _direct(plus_transform(W))
    return [_report(inst.tag, plus.f_max(), W.f_max() ** 2, eq=True)]


@check("fmax-minus-growth", "channel")
def check_fmax_minus_growth(inst: Instance):
    W = inst.W
    minus = minus_transform(W)
    fm, fmm = W.f_max(), minus.f_max()
    return [
        _report(f"{inst.tag},lower", fm, fmm),
        _report(f"{inst.tag},upper", fmm, W.q * fm),
    ]


@check("favg-plus-contraction", "channel")
def check_favg_plus_contraction(inst: Instance):
    W = inst.W
    plus = _direct(plus_transform(W))
    q, F = W.q, W.avg_fidelity()
    rhs = min(F, (q - 1) ** 2 * F * F)
    return [_report(inst.tag, plus.avg_fidelity(), rhs)]


@check("favg-minus-growth", "channel")
def check_favg_minus_growth(inst: Instance):
    W = inst.W
    minus = minus_transform(W)
    q, F, Fm = W.q, W.avg_fidelity(), minus.avg_fidelity()
    return [
        _report(f"{inst.tag},lower", F, Fm),
        _report(f"{inst.tag},upper", Fm, q * (q - 1) * F),
    ]


@check("info-conservation", "channel")
def check_info_conservation(inst: Instance):
    W = inst.W
    minus, plus = _direct(minus_transform(W)), _direct(plus_transform(W))
    lhs = minus.holevo_information() + plus.holevo_information()
    return [_report(inst.tag, lhs, 2 * W.holevo_information(), eq=True)]


@check("info-ordering", "channel")
def check_info_ordering(inst: Instance):
    W = inst.W
    minus, plus = _direct(minus_transform(W)), _direct(plus_transform(W))
    I = W.holevo_information()
    return [
        _report(f"{inst.tag},minus", minus.holevo_information(), I),
        _report(f"{inst.tag},plus", I, plus.holevo_information()),
    ]


@check("quotient-info-two-branch", "group-channel")
def check_quotient_info_two_branch(inst: Instance):
    W = inst.W
    minus, plus = minus_transform(W), plus_transform(W)
    out = []
    for H in enumerate_subgroups(W.alphabet):
        lhs = 2 * W.quotient(H).holevo_information()
        rhs = minus.quotient(H).holevo_information() + plus.quotient(H).holevo_information()
        out.append(_report(f"{inst.tag},H={H!r}", lhs, rhs))
    return out


@check("nested-info-decomposition", "group-channel")
def check_nested_info_decomposition(inst: Instance):
    W = inst.W
    out = []
    subs = enumerate_subgroups(W.alphabet)
    for H in subs:
        for M in subs:
            if not M.is_subset_of(H):
                continue
            value, decomp = W.nested_information(M, H)
            out.append(_report(f"{inst.tag},M={M!r},H={H!r}", value, decomp, eq=True))
    return out


@check("restricted-fidelity-upper", "group-channel")
def check_restricted_fidelity_upper(inst: Instance):
    W = inst.W
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
                out.append(_report(f"{inst.tag},M={M!r},H={H!r},D={D!r}",
                                   lhs, q * M.order / H.order * fmax))
    return out


@check("restricted-fidelity-lower", "structured-channel")
def check_restricted_fidelity_lower(inst: Instance):
    W = inst.W
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
                out.append(_report(f"{inst.tag},M={M!r},H={H!r},D={D!r}",
                                   bound, lhs, hypothesis=hyp))
    return out


@check("fidelity-chain-sum", "structured-channel")
def check_fidelity_chain_sum(inst: Instance):
    W, rng = inst.W, inst.rng
    g = W.alphabet
    q = W.q
    r = int(rng.integers(2, 4))
    pool = list(inst.H.indices)
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
    return [_report(f"{inst.tag},ds={ds}", rhs, W.fd(total), hypothesis=hyp)]


@check("generated-subgroup-fmax", "structured-channel")
def check_generated_subgroup_fmax(inst: Instance):
    W, rng = inst.W, inst.rng
    q = W.q
    g = W.alphabet
    pool = [d for d in inst.H.indices if d != 0] or list(range(1, q))
    d = int(pool[int(rng.integers(len(pool)))])
    H = generated_subgroup(g.element_by_index(d))
    maxes = maximal_subgroups(H)
    out = []
    fd_val = W.fd(d)
    for M in maxes:
        out.append(_report(f"{inst.tag},d={d},M={M!r},upper", fd_val, W.nested_fmax(M, H)))
    thresh = 1.0 - (1.0 - np.cos(np.pi / (2 * q))) / q
    vals = [W.nested_fmax(M, H) for M in maxes]
    hyp = bool(vals) and all(v >= thresh for v in vals)
    if hyp:
        lo = np.cos(q * np.arccos(min(1.0, 1.0 - q * (1.0 - min(vals)))))
    else:
        lo = -1.0
    out.append(_report(f"{inst.tag},d={d},lower", lo, fd_val, hypothesis=hyp))
    return out


@check("quotient-fidelity-growth", "group-channel")
def check_quotient_fidelity_growth(inst: Instance):
    W = inst.W
    q = W.q
    minus, plus = minus_transform(W), plus_transform(W)
    out = []
    for H in enumerate_subgroups(W.alphabet):
        h = H.order
        fq = W.quotient(H).avg_fidelity()
        out.append(_report(f"{inst.tag},H={H!r},minus",
                           minus.quotient(H).avg_fidelity(), h * q * (q - h) * fq))
        out.append(_report(f"{inst.tag},H={H!r},plus",
                           plus.quotient(H).avg_fidelity(), h * (q - h) ** 2 * fq * fq))
    return out


@check("profile-implies-quotient-info", "structured-channel")
def check_profile_implies_quotient_info(inst: Instance):
    """Near-subgroup fidelity profiles force near-quotient information.

    Composes the bound chain: within-coset fidelities give an upper bound on
    I(W) - I(W[H]) through the restricted channels and the guessing bound;
    cross-coset fidelities lower-bound I(W[H]) through the lower info bound.
    """
    W, H, tag = inst.W, inst.H, inst.tag
    q = W.q
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
            _report(f"{tag},H=G,info", I, delta, hypothesis=hyp),
            _report(f"{tag},H=G,quot", quot_I, 0.0, eq=True, hypothesis=hyp),
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
        _report(f"{tag},H={H!r},quot", abs(quot_I - log_quot), delta2, hypothesis=hyp),
        _report(f"{tag},H={H!r},info", abs(I - log_quot), delta2 + delta3, hypothesis=hyp),
    ]


@check("trace-sqrt-subadditive", "matrices")
def check_trace_sqrt_subadditive(inst: Instance):
    rng = inst.rng
    dim = int(rng.integers(2, 7))
    a = random_density(rng, dim) * float(rng.uniform(0.1, 3.0))
    b = random_density(rng, dim) * float(rng.uniform(0.1, 3.0))
    tr = lambda m: float(np.sqrt(np.clip(np.linalg.eigvalsh(hermitize(m)), 0, None)).sum())
    return [_report(f"{inst.tag},dim={dim}", tr(a + b), tr(a) + tr(b))]


@check("mixture-fidelity-subadditive", "matrices")
def check_mixture_fidelity_subadditive(inst: Instance):
    rng = inst.rng
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
    return [_report(f"{inst.tag},n={n},m={m}", lhs, rhs)]


@check("fmax-quotient-upper", "group-channel")
def check_fmax_quotient_upper(inst: Instance):
    W = inst.W
    q = W.q
    out = []
    full = Subgroup(W.alphabet, tuple(range(q)))
    for H in enumerate_subgroups(W.alphabet):
        if H.order == q:
            continue
        lhs = W.nested_fmax(H, full)
        rhs = (q - H.order) * W.quotient(H).avg_fidelity()
        out.append(_report(f"{inst.tag},H={H!r}", lhs, rhs))
    return out


@check("pgm-error-bound", "channel")
def check_pgm_error_bound(inst: Instance):
    W = inst.W
    dense = [to_dense(h.branches[0][2]) for h in W.flatten_dense().outputs]
    povm = pretty_good_measurement(dense)
    pe = povm_error_probability(povm, dense)
    return [_report(inst.tag, pe, (W.q - 1) * W.avg_fidelity())]


@check("block-pgm-error-bound", "matrices")
def check_block_pgm_error_bound(inst: Instance):
    """Blockwise-assembled PGM on a channel with a uniform classical register."""
    rng, q, k = inst.rng, inst.q, inst.k
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
    return [_report(f"{inst.tag},r={r}", err, (q - 1) * W.avg_fidelity())]


@check("optimal-decoder-bound", "channel")
def check_optimal_decoder_bound(inst: Instance):
    W = inst.W
    out = []
    rhs = (W.q - 1) * W.avg_fidelity()
    dense = [to_dense(h.branches[0][2]) for h in W.flatten_dense().outputs]
    if W.q == 2:
        out.append(_report(f"{inst.tag},helstrom", helstrom_error(dense[0], dense[1]), rhs))
    povm = pretty_good_measurement(dense)
    out.append(_report(f"{inst.tag},pgm", povm_error_probability(povm, dense), rhs))
    return out


@check("distance-fidelity-relations", "matrices")
def check_distance_fidelity_relations(inst: Instance):
    rng = inst.rng
    dim = int(rng.integers(2, 6))
    a, b = random_density(rng, dim), random_density(rng, dim)
    d, f = trace_distance(a, b), fidelity(a, b)
    return [
        _report(f"{inst.tag},sum", 1.0, d + f),
        _report(f"{inst.tag},squares", d * d + f * f, 1.0),
    ]


@check("angle-triangle", "matrices")
def check_angle_triangle(inst: Instance):
    rng = inst.rng
    dim = int(rng.integers(2, 5))
    a, b, c = (random_density(rng, dim) for _ in range(3))
    return [_report(f"{inst.tag},dim={dim}", angle(a, c), angle(a, b) + angle(b, c))]


# -- drivers --------------------------------------------------------------------------


def run_check(check_id: str, seed: int = 0, trials: int = 1, q: int = 2, k: int = 2):
    """Run one check on `trials` seeded instances."""
    return run_all(seed, trials, qs=(q,), ks=(k,), checks=[check_id])


def _stable_hash(text: str) -> int:
    h = 2166136261
    for ch in text.encode():
        h = ((h ^ ch) * 16777619) % (1 << 31)
    return h


#: The fuzz grid of input alphabet sizes q and output dimensions k.
GRID_QS, GRID_KS = (2, 3, 4), (2, 3)


def run_all(seed: int = 0, trials: int = 10, qs=GRID_QS, ks=GRID_KS, checks=None):
    """Run every (or the named) check over a fuzz grid of channel sizes."""
    if trials < 1:
        raise StructuralError(f"a verify run needs at least one trial, got {trials}")
    for what, sizes, least in (("q", qs, 2), ("k", ks, 1)):  # the checks need an input x != 0
        if not sizes or min(sizes) < least:
            raise StructuralError(f"verify sizes {what} must be >= {least}, got {list(sizes)}")
    names = list(CHECKS) if checks in (None, "all") else list(checks)
    for name in names:
        if name not in CHECKS:
            raise StructuralError(f"unknown check id {name!r}")
    reports = []
    for name in names:
        family, fn = CHECKS[name]
        for t in range(trials):
            q = qs[t % len(qs)]
            k = ks[(t // len(qs)) % len(ks)]
            rng = np.random.default_rng([seed, t, _stable_hash(name)])
            inst = Instance(rng, q, k, f"seed={seed},t={t},q={q},k={k}")
            FAMILIES[family](inst)
            for report in fn(inst):
                report.check_id = name
                reports.append(report)
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
