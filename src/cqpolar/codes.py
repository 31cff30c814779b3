"""Polar code construction: branch classification, frozen structure, encoder.

A plan assigns every branch s a subgroup H_s (the information carried is the
coset of H_s) and a section mapping that lifts cosets to group elements (the
frozen content).  The conditional channel actually faced while decoding
branch s is the synthetic channel of the REVERSED label (``faced``), a
bit-reversal artifact of the decode order, with the decided prefix as its
classical register.  Plans therefore classify each decode slot by the
statistics of its reversed-label record, and the decoder measures that
channel's outputs (see :mod:`.decoder`).  All whole-code quantities (rate,
error bound, conservation) are unaffected by the reversal.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .channel import (
    CqChannel,
    _expect,
    _integers,
    _require_product_group,
    _scalar,
    channel_to_json,
    load_channel,
    read_json,
)
from .config import ResourceCaps, default_caps
from .errors import LoadError, StructuralError
from .groups import (
    FiniteAbelianGroup,
    GroupOps,
    SectionMap,
    Subgroup,
    random_section_map,
    zero_section_map,
)
from .linalg import EQ_TOL
from .polarize import (
    PolarizationRecord,
    branch_order,
    decode_index,
    format_label,
    parse_label,
    polarization_scan,
    reverse_label,
)


@dataclass(frozen=True)
class CodeParams:
    """Construction parameters; N = 2^n.

    The fields and their defaults are also the options of ``cqpolar
    construct``.  ``beta`` is recorded in the plan and checked against
    ``beta_prime`` (0 < beta < beta' < 1/2), but no computation reads it.
    """

    MODES = ("best-effort", "paper-strict")
    SECTIONS = ("random", "zero")

    n: int
    delta: float = 0.25
    beta: float = 0.2
    beta_prime: float = 0.4
    seed: int = 0
    mode: str = "best-effort"
    tau: float = 1e-3  # best-effort fidelity budget
    sections: str = "random"

    def __post_init__(self):
        if self.n < 1:
            raise StructuralError("n must be >= 1")
        if not self.delta > 0:
            raise StructuralError("delta must be positive")
        if not 0 <= self.tau < np.inf:
            raise StructuralError(f"tau must be finite and >= 0, got {self.tau!r}")
        if not 0 < self.beta < self.beta_prime < 0.5:
            raise StructuralError("need 0 < beta < beta' < 1/2")
        if self.mode not in self.MODES:
            raise StructuralError(f"unknown mode {self.mode!r}")
        if self.sections not in self.SECTIONS:
            raise StructuralError(f"unknown section policy {self.sections!r}")

    @property
    def block_length(self) -> int:
        return 1 << self.n


@dataclass
class BranchDecision:
    """Choices and evidence for one decode slot."""

    branch: tuple  # decode-order label s
    faced: tuple  # reversed label: the synthetic channel this slot sees
    subgroup: Subgroup
    section: SectionMap
    in_selected_set: bool  # passed the mode's selection test
    info_nats: float  # log |G/H_s|
    I: float
    fmax: float
    quot_I: float  # I(W^faced[H_s])
    quot_F: float  # F(W^faced[H_s])


@dataclass
class CodePlan:
    """A constructed polar code: per-branch frozen structure plus accounting."""

    params: CodeParams
    group: FiniteAbelianGroup
    decisions: list  # BranchDecision in decode order
    rate: float
    bound: float
    base_I: float
    channel_json: dict = field(default=None, repr=False)

    @property
    def block_length(self) -> int:
        return self.params.block_length

    def message_space_sizes(self) -> list:
        return [self.group.order // d.subgroup.order for d in self.decisions]


def _eligible_subgroups(
    rec: PolarizationRecord, params: CodeParams, q: int
) -> list:
    if params.mode == "paper-strict":
        thresh = 2.0 ** (-(2.0 ** (params.beta_prime * params.n)))
        out = []
        for H in rec.quot_I:
            log_quot = np.log(q / H.order)
            if (
                rec.quot_F[H] < thresh
                and abs(rec.I - log_quot) < params.delta / 2
                and abs(rec.quot_I[H] - log_quot) < params.delta / 2
            ):
                out.append(H)
        return out
    return [H for H in rec.quot_I if rec.quot_F[H] <= params.tau]


def build_plan(W: CqChannel, params: CodeParams, caps: ResourceCaps = None) -> CodePlan:
    """Scan the synthetic channels and assign (H_s, f_s) to every decode slot.

    Each slot minimizes |I - log|G/H|| + |I[H] - log|G/H|| among subgroups
    meeting the mode's fidelity threshold, ties broken toward larger |H|
    then lexicographic element sets; slots with no eligible subgroup are
    fully frozen (H_s = G).
    """
    caps = caps or default_caps()
    g = _require_product_group(W)
    records = {r.branch: r for r in polarization_scan(W, params.n, caps)}
    full = Subgroup(g, tuple(range(g.order)))
    decisions = []
    for s in branch_order(params.n):
        rec = records[reverse_label(s)]
        chosen = rec.best_subgroup(_eligible_subgroups(rec, params, g.order), g.order)
        selected = chosen is not None
        H = chosen if selected else full
        rng = np.random.default_rng([params.seed, decode_index(s)])
        section = (
            zero_section_map(H) if params.sections == "zero" else random_section_map(H, rng)
        )
        decisions.append(
            BranchDecision(
                branch=s,
                faced=rec.branch,
                subgroup=H,
                section=section,
                in_selected_set=selected,
                info_nats=_info_nats(g.order, H),
                I=rec.I,
                fmax=rec.fmax,
                quot_I=rec.quot_I[H],
                quot_F=rec.quot_F[H],
            )
        )
    rate, bound = _rate_and_bound(decisions, g.order)
    return CodePlan(
        params=params,
        group=g,
        decisions=decisions,
        rate=rate,
        bound=bound,
        base_I=W.holevo_information(),
        channel_json=channel_to_json(W),
    )


def _info_nats(q: int, H: Subgroup) -> float:
    """log |G/H|, the information a decision with subgroup H carries."""
    return float(np.log(q / H.order))


def _rate_and_bound(decisions, q: int) -> tuple:
    """The mean of info_nats, and the error bound 2 sqrt(N) sqrt(sum of (q-1) quot_F)."""
    N = len(decisions)
    rate = sum(d.info_nats for d in decisions) / N
    bound = 2.0 * np.sqrt(N) * np.sqrt(sum((q - 1) * d.quot_F for d in decisions))
    return float(rate), float(bound)


def _require_close(what: str, stored: float, derived: float, formula: str) -> None:
    """Refuse a stored number more than EQ_TOL (or NaN) away from its formula's value."""
    if not abs(stored - derived) <= EQ_TOL:
        raise LoadError(f"{what} {stored!r} is not {formula} = {derived!r}")


def rate_gap(plan: CodePlan) -> float:
    """I(W) - R; the construction guarantees < delta only asymptotically."""
    return float(plan.base_I - plan.rate)


# -- messages -------------------------------------------------------------------


@dataclass
class MessageVector:
    """Per-branch coset symbols in decode order."""

    cosets: list  # Coset of each decision's subgroup

    def __len__(self) -> int:
        return len(self.cosets)


def random_message(plan: CodePlan, rng) -> MessageVector:
    """A uniform message: every step's coset position in one ``rng.integers`` call."""
    return message_from_positions(plan, rng.integers(plan.message_space_sizes()))


def message_from_positions(plan: CodePlan, positions) -> MessageVector:
    cosets = []
    for d, p in zip(plan.decisions, positions):
        cosets.append(d.subgroup.cosets[int(p)])
    return MessageVector(cosets)


def section_values(plan: CodePlan, sections=None) -> list:
    """Each step's section values in coset order; None means the plan's own.

    Raises unless there is one section per step over that step's subgroup.
    """
    if sections is None:
        return [d.section.values for d in plan.decisions]
    if len(sections) != len(plan.decisions):
        raise StructuralError("the number of sections does not match the plan")
    for i, (d, f) in enumerate(zip(plan.decisions, sections)):
        if f.subgroup != d.subgroup:
            raise StructuralError(f"section {i} is not a section of the plan's subgroup")
    return [f.values for f in sections]


def lift_message(plan: CodePlan, message: MessageVector, sections=None) -> np.ndarray:
    """Apply the section mappings: u^s = f_s(coset), as element indices."""
    if len(message) != len(plan.decisions):
        raise StructuralError("message length does not match the plan")
    for i, (d, coset) in enumerate(zip(plan.decisions, message.cosets)):
        if coset.subgroup != d.subgroup:
            raise StructuralError(f"symbol {i} is not a coset of the plan's subgroup")
    values = section_values(plan, sections)
    return np.array([v[c.position] for v, c in zip(values, message.cosets)], dtype=np.int64)


# -- encoder ----------------------------------------------------------------------


def polar_encode_indices(group: GroupOps, u: np.ndarray):
    """Butterfly encoder on element indices in decode order.

    ``u`` is one message (N,) or a batch of them (trials, N), encoded row by
    row.  Returns (codeword indices, group-addition count).  Pair (2j, 2j+1)
    of a block maps to a sum lane feeding the block's first half and a
    pass-through lane feeding its second half; the pass-through adds the
    identity so every level performs exactly N element additions per
    codeword and the whole encode exactly N log2 N.  Each level splits every
    block of the previous one in two.
    """
    u = np.asarray(u, dtype=np.int64)
    n_total = u.shape[-1]
    if n_total & (n_total - 1):
        raise StructuralError("message length must be a power of two")
    tab = group.add_table
    blocks, adds = u.reshape(-1, 1, n_total), 0
    while blocks.shape[2] > 1:
        sums = tab[blocks[:, :, 0::2], blocks[:, :, 1::2]]
        passthrough = tab[blocks[:, :, 1::2], 0]
        blocks = np.stack([sums, passthrough], axis=2).reshape(len(blocks), -1, sums.shape[2])
        adds += u.size
    return blocks.reshape(u.shape), adds


def encode(plan: CodePlan, message: MessageVector, sections=None) -> np.ndarray:
    """Lift a message through the sections and run the butterfly.

    Returns the codeword as element indices, one per channel use, in decode
    order of the use labels.
    """
    u = lift_message(plan, message, sections)
    codeword, _ = polar_encode_indices(plan.group, u)
    return codeword


# -- serialization ------------------------------------------------------------------


def plan_to_json(plan: CodePlan) -> dict:
    g = plan.group
    decisions = []
    for d in plan.decisions:
        decisions.append(
            {
                "branch": format_label(d.branch),
                "faced": format_label(d.faced),
                "subgroup": list(d.subgroup.indices),
                "section": {
                    str(c.rep_index): int(v)
                    for c, v in zip(d.subgroup.cosets, d.section.values)
                },
                "in_selected_set": d.in_selected_set,
                "info_nats": d.info_nats,
                "I": d.I,
                "fmax": d.fmax,
                "quot_I": d.quot_I,
                "quot_F": d.quot_F,
            }
        )
    return {
        "params": asdict(plan.params),
        "group": list(g.cyclic_orders),
        "rate": plan.rate,
        "bound": plan.bound,
        "base_I": plan.base_I,
        "decisions": decisions,
        "channel": plan.channel_json,
    }


_PLAN_KEYS = ("params", "group", "decisions", "rate", "bound", "base_I")
_DECISION_KEYS = tuple(f.name for f in fields(BranchDecision))


def _require_keys(obj, keys: tuple, what: str) -> None:
    missing = [key for key in keys if key not in _expect(obj, dict, what)]
    if missing:
        raise StructuralError(f"missing {', '.join(missing)}")


def _number(obj: dict, key: str) -> float:
    return float(_scalar(obj[key], "a number", key))


def plan_from_json(source) -> CodePlan:
    """Load and validate a plan from a dict, JSON text or a file path (see read_json)."""
    obj = read_json(source, "plan")
    try:
        _require_keys(obj, _PLAN_KEYS, "top level")
        g = FiniteAbelianGroup(_integers(obj["group"], "group"))
        raw_params = _expect(obj["params"], dict, "params")
        raw_decisions = _expect(obj["decisions"], list, "decisions")
        rate, bound, base_I = (_number(obj, key) for key in ("rate", "bound", "base_I"))
    except StructuralError as exc:
        raise LoadError(f"plan: {exc}") from exc
    try:
        params = CodeParams(**raw_params)
        _scalar(params.n, "an integer", "n")
    except (TypeError, StructuralError) as exc:  # a missing, unknown or mistyped parameter
        raise LoadError(f"plan: params: {exc}") from exc
    count = len(raw_decisions)
    # the shift is capped so that a huge n builds no huge integer
    if count != 1 << min(params.n, count.bit_length()):
        raise LoadError(f"plan: {count} decisions, but n={params.n} needs 2**{params.n}")
    decisions = []
    for i, dd in enumerate(raw_decisions):
        try:
            _require_keys(dd, _DECISION_KEYS, "decision")
            H = Subgroup(g, _integers(dd["subgroup"], "subgroup"))
            H.validate_closure()
            reps = [str(c.rep_index) for c in H.cosets]
            if set(_expect(dd["section"], dict, "section")) != set(reps):
                raise StructuralError("section keys are not the coset representatives")
            decisions.append(
                BranchDecision(
                    branch=parse_label(_scalar(dd["branch"], "a string", "branch")),
                    faced=parse_label(_scalar(dd["faced"], "a string", "faced")),
                    subgroup=H,
                    section=SectionMap(
                        H, _integers([dd["section"][r] for r in reps], "section")
                    ),
                    in_selected_set=_scalar(
                        dd["in_selected_set"], "a boolean", "in_selected_set"
                    ),
                    info_nats=_number(dd, "info_nats"),
                    I=_number(dd, "I"),
                    fmax=_number(dd, "fmax"),
                    quot_I=_number(dd, "quot_I"),
                    quot_F=_number(dd, "quot_F"),
                )
            )
        except StructuralError as exc:
            raise LoadError(f"plan decision {i}: {exc}") from exc
    for i, (d, s) in enumerate(zip(decisions, branch_order(params.n))):
        labels = [format_label(x) for x in (d.branch, d.faced, s, reverse_label(s))]
        if labels[:2] != labels[2:]:
            raise LoadError(
                f"plan decision {i}: branch {labels[0]} and faced {labels[1]} are not "
                f"decode position {i}'s {labels[2]} and {labels[3]}"
            )
        want = _info_nats(g.order, d.subgroup)
        _require_close(f"plan decision {i}: info_nats", d.info_nats, want, "log(q/|H|)")
    want_rate, want_bound = _rate_and_bound(decisions, g.order)
    _require_close("plan: rate", rate, want_rate, "the mean of info_nats")
    _require_close("plan: bound", bound, want_bound, "2 sqrt(N) sqrt(sum of (q-1) quot_F)")
    return CodePlan(
        params=params,
        group=g,
        decisions=decisions,
        rate=rate,
        bound=bound,
        base_I=base_I,
        channel_json=obj.get("channel"),
    )


def plan_channel(plan: CodePlan) -> CqChannel:
    if plan.channel_json is None:
        raise StructuralError("plan does not embed its channel")
    return load_channel(plan.channel_json)
