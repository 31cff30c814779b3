"""Classical-quantum channels with hybrid (classical-register) outputs.

A channel maps each group element to a :class:`HybridState`: a list of
``(weight, label, quantum state)`` branches representing a block-diagonal
output ``sum_l w_l |l><l| ⊗ rho_l``.  Labels stay symbolic instead of being
expanded into tensor factors, which is what keeps repeated plus-transforms
affordable.  A label is a hashable value, ordered among the labels of its
channel.  Synthetic labels (and a preset's, ``()``) are tuples of ints; a
loaded channel's labels are its file's strings, ``"()"`` for a bare matrix.
Every branch state is a factored :class:`~.states.PureMixture`; a dense
matrix handed in is factored once, when its ``HybridState`` is built.
All information/fidelity functionals respect the block structure exactly.
A branch with orthonormal factor rows (see :mod:`.states`) has its weights
as spectrum, so its entropy needs no decomposition.  A channel's matrices of
one shape share stacked LAPACK calls (see :mod:`.linalg`); each output or
pair sums its own terms in one order, so a lone ``HybridState.entropy`` or
``hybrid_fidelity`` gives the same value.

I(W) = H(avg output) - H(W|X), H(W|X) = (1/q) sum_x H(W(x)), and every
fidelity functional (F_d, F, F_max, nested F_max) reads one q x q matrix of
pairwise fidelities; all three are cached.  A channel built from a relative
(a full quotient here, the transforms in :mod:`.polarize`, which lists their
rules) carries *rules*: functions that read one of these values off the
relative.  Each rule is read at most once and then dropped, and the relative
with it.  A value with no rule is evaluated (so is every value of a channel
built from a child's outputs, as the checks do).
"""

from __future__ import annotations

import ast
import json

import numpy as np

from .errors import LoadError, StructuralError
from .groups import (
    Coset,
    FiniteAbelianGroup,
    GroupElement,
    GroupOps,
    PlainAlphabet,
    QuotientGroup,
    Subgroup,
    refine,
    require_subgroups_of,
)
from .linalg import (
    EQ_TOL,
    LIKELIHOOD_SUM_TOL,
    entropy_of_probs,
    factor_fidelity,
    stack_runs,
    validate_density_matrix,
)
from .states import (
    PureMixture,
    as_mixtures,
    batched_mixture_entropies,
    batched_mixtures,
    pure_state,
    state_is_diagonal,
    to_dense,
)


class HybridState:
    """A block-diagonal output state: branches of (weight, label, state).

    Branches are sorted by label, and no label repeats.  Branch states may be
    given as mixtures or dense matrices; each is stored as a
    :class:`PureMixture`.
    """

    __slots__ = ("branches", "_dict")

    def __init__(self, branches):
        cleaned = [(float(w), lab, st) for w, lab, st in branches if w > 0.0]
        if not all(isinstance(st, PureMixture) for _, _, st in cleaned):
            mixtures = as_mixtures([st for _, _, st in cleaned])
            cleaned = [(w, lab, mix) for (w, lab, _), mix in zip(cleaned, mixtures)]
        cleaned.sort(key=lambda b: b[1])
        self.branches = cleaned
        self._dict = None
        labels = [lab for _, lab, _ in cleaned]
        if len(set(labels)) != len(labels):
            raise StructuralError("duplicate branch labels")
        total = sum(w for w, _, _ in cleaned)
        if abs(total - 1.0) > EQ_TOL:
            raise StructuralError(f"branch weights sum to {total!r}, not 1")
        if len({st.dim for _, _, st in cleaned}) > 1:
            raise StructuralError("branch states have inconsistent dimensions")

    @property
    def dim(self) -> int:
        return self.branches[0][2].dim

    def as_dict(self) -> dict:
        if self._dict is None:
            self._dict = {lab: (w, st) for w, lab, st in self.branches}
        return self._dict

    def entropy(self) -> float:
        """H(weights) + sum of weighted branch entropies (see ``_hybrid_entropies``)."""
        return _hybrid_entropies([self])[0]


def _hybrid_entropies(hybrids) -> list:
    """The entropy of each block-diagonal state, one block per branch."""
    return _block_entropies([[((w, st),) for w, _, st in h.branches] for h in hybrids])


def _block_entropies(states) -> list:
    """Entropies of block-diagonal states: per state, the sum over its blocks X
    of -Tr X log X.

    A state is its blocks, a block its weighted parts [(w, mixture)], X = sum
    of w rho.  A one-part block gives -w log w, summed as the Shannon entropy of
    those weights, plus w H(rho), read off the weights of an orthonormal
    mixture in one pass.  The other blocks are decomposed, those of one
    component shape across all the states in stacked eigvalsh calls: the
    stacked components sqrt(w) V of its parts, or a mixture's own.  A state adds
    them shape by shape, in the order it first holds each.
    """
    totals, spans = [], []
    groups: dict = {}  # component shape -> ([w], [components]) of all the states
    for blocks in states:
        weights, spectra, scales, starts = [], [], [], {}
        for parts in blocks:
            if len(parts) > 1:
                w, comps = 1.0, np.vstack([np.sqrt(v) * st.scaled_components() for v, st in parts])
            else:
                ((w, st),) = parts
                weights.append(w)
                if st.rank_bound == 1:
                    continue
                if st.orthonormal:
                    spectra.append(st.weights)
                    scales.append(np.full(st.rank_bound, w))
                    continue
                comps = st.scaled_components()
            ws, cs = groups.setdefault(comps.shape, ([], []))
            starts.setdefault(comps.shape, len(ws))
            ws.append(w)
            cs.append(comps)
        total = entropy_of_probs(np.array(weights)) if weights else 0.0
        if spectra:
            p = np.concatenate(spectra)
            total -= float(np.concatenate(scales) @ (p * np.log(np.where(p > 0.0, p, 1.0))))
        totals.append(total)
        spans.append([(shape, lo, len(groups[shape][0])) for shape, lo in starts.items()])
    ents = {shape: batched_mixture_entropies(cs) for shape, (_, cs) in groups.items()}
    for s, own in enumerate(spans):
        for shape, lo, hi in own:
            totals[s] += float(np.array(groups[shape][0][lo:hi]) @ ents[shape][lo:hi])
    return totals


def _label_groups(branches) -> list:
    """Branches (w, label, state) as [label, total weight, [(w, state)]], in first-seen order."""
    groups: dict = {}
    for w, lab, st in branches:
        ent = groups.setdefault(lab, [lab, 0.0, []])
        ent[1] += w
        ent[2].append((w, st))
    return list(groups.values())


def _mixed_hybrids(group_lists) -> list:
    """Per list of label groups, a state with one branch per group: its total
    weight and the mixture of its states.  The mixtures are built together, as
    ``group_lists`` yields each list, so a generator's lists are held in turn."""
    heads = []  # per list, its groups' labels and total weights

    def weighted():
        for groups in group_lists:
            heads.append([(lab, t) for lab, t, _ in groups])
            for _, t, parts in groups:
                yield [(w / t, st) for w, st in parts]

    mixtures = iter(batched_mixtures(weighted()))
    return [HybridState([(t, lab, next(mixtures)) for lab, t in head]) for head in heads]


def hybrid_fidelity(a: HybridState, b: HybridState) -> float:
    """Fidelity of two block-diagonal states (see ``hybrid_fidelities``)."""
    return float(hybrid_fidelities([(a, b)])[0])


def hybrid_fidelities(pairs) -> np.ndarray:
    """Fidelities of pairs of block-diagonal states of one dimension: per pair,
    the sum over shared labels of sqrt(w w') F(rho, rho').

    Pairs of pure branches take a vectorized overlap; the other pairs of
    branches go through :func:`~.linalg.factor_fidelity`, those of one shape
    across all the pairs in stacked SVDs.  A pair sums its SVD terms in label
    order, then adds the sum of its pure overlaps.
    """
    left, right, scales, spans = [], [], [], []
    shapes: dict = {}  # factor shapes -> [(term position, sa, sb)]
    for a, b in pairs:
        db = b.as_dict()
        lo, pure_lo = len(scales), len(left)
        for key, (wa, sa) in a.as_dict().items():
            hit = db.get(key)
            if hit is None:
                continue
            wb, sb = hit
            if sa.rank_bound == 1 and sb.rank_bound == 1:
                left.append(np.sqrt(wa) * sa.scaled_components()[0])
                right.append(np.sqrt(wb) * sb.scaled_components()[0])
            else:
                shapes.setdefault((sa.vecs.shape, sb.vecs.shape), []).append((len(scales), sa, sb))
                scales.append(np.sqrt(wa * wb))
        spans.append((lo, len(scales), pure_lo, len(left)))
    fids = np.empty(len(scales))
    for items in shapes.values():
        _, first_a, first_b = items[0]
        for run in stack_runs(items, first_a.vecs.size + first_b.vecs.size):
            fids[[i for i, _, _ in run]] = factor_fidelity(
                np.array([sa.scaled_components() for _, sa, _ in run]),
                np.array([sb.scaled_components() for _, _, sb in run]),
            )
    terms = (np.array(scales) * fids).tolist()
    runs = zip(stack_runs(left, 2 * left[0].size), stack_runs(right, 2 * left[0].size)) if left else []
    overlaps = np.concatenate([np.zeros(0)] + [
        np.abs((np.array(u) * np.array(v).conj()).sum(axis=1)) for u, v in runs
    ])
    out = []
    for lo, hi, pure_lo, pure_hi in spans:
        # a running sum in label order: bit-identical to adding each term as
        # its label is reached
        total = sum(terms[lo:hi])
        if pure_hi > pure_lo:
            total += float(overlaps[pure_lo:pure_hi].sum())
        out.append(min(1.0, total))
    return np.array(out)


# -- the shared profile -------------------------------------------------------------
# CqChannel and DiagonalChannel each supply ``pairwise_fidelity_matrix`` and
# ``_average_cells`` and assign the input index, these functionals and the
# quotients in their own class bodies.


def _frozen(mat: np.ndarray) -> np.ndarray:
    """The pairwise matrix as cached: diagonal exactly 1, read-only."""
    np.fill_diagonal(mat, 1.0)
    mat.flags.writeable = False
    return mat


def _profile_index(W, x) -> int:
    """The input index of ``x``: an element index, or a group element's index."""
    return x.index if isinstance(x, GroupElement) else int(x)


def _profile_fd(W, d) -> float:
    """F_d = (1/q) sum_x F(rho_x, rho_{x+d})."""
    shifted = W.alphabet.add_table[:, W._index(d)]
    return float(W.pairwise_fidelity_matrix()[np.arange(W.q), shifted].mean())


def _profile_fd_table(W) -> dict:
    return {d: _profile_fd(W, d) for d in range(W.q)}


def _profile_avg_fidelity(W) -> float:
    """Average pairwise fidelity; 0 by convention for a single-input channel."""
    q = W.q
    if q == 1:
        return 0.0
    upper = W.pairwise_fidelity_matrix()[np.triu_indices(q, 1)]
    return float(2.0 * upper.sum() / (q * (q - 1)))


def _profile_f_max(W) -> float:
    """max of F_d over d != 0; 0 for a single-input channel."""
    return max((_profile_fd(W, d) for d in range(1, W.q)), default=0.0)


def _profile_nested_fmax(W, M: Subgroup, H: Subgroup) -> float:
    """max of F_d over d in H but not in M."""
    require_subgroups_of(W.alphabet, M, H)
    if not M.is_subset_of(H):
        raise StructuralError("M must be a subgroup of H")
    ds = [i for i in H.indices if not M.contains_index(i)]
    return max((_profile_fd(W, d) for d in ds), default=0.0)


def _require_product_group(W) -> FiniteAbelianGroup:
    if isinstance(W.alphabet, FiniteAbelianGroup):
        return W.alphabet
    raise StructuralError("operation requires a product-group input alphabet")


def _profile_quotient(W, H: Subgroup):
    """W[H]: inputs are the cosets of H, outputs the coset-averaged outputs."""
    return W._average_cells(QuotientGroup(_require_product_group(W), H), H.partition[0])


class CqChannel:
    """A cq channel over a finite Abelian group (or a plain input alphabet).

    Parameters
    ----------
    alphabet : GroupOps
        Input structure.  Group operations are required only by the
        polarization transforms and the d-indexed fidelities.
    outputs : list of HybridState
        One output per input index.
    rules : dict, optional
        Value name ("avg_entropy", "cond_entropy" or "fidelity_matrix") ->
        a function that reads the value off a relative; see ``_derived``.
    """

    def __init__(self, alphabet: GroupOps, outputs, rules: dict = None):
        if len(outputs) != alphabet.order:
            raise StructuralError("channel must define an output for every input")
        dims = {h.dim for h in outputs}
        if len(dims) != 1:
            raise StructuralError("outputs have inconsistent quantum dimensions")
        self.alphabet = alphabet
        self.outputs = list(outputs)
        self.k = dims.pop()
        self._fidelity_matrix = None
        self._label_positions = None
        self._diag_flag = None
        self._avg_entropy = None
        self._cond_entropy = None
        self._rules = rules or {}

    # -- conveniences ---------------------------------------------------------
    @property
    def q(self) -> int:
        return self.alphabet.order

    def output_of(self, x) -> HybridState:
        return self.outputs[self._index(x)]

    _index = _profile_index

    def label_positions(self) -> dict:
        """Every output's labels, each once, in sorted order, mapped to their
        positions; cached."""
        if self._label_positions is None:
            union = sorted({lab for h in self.outputs for _, lab, _ in h.branches})
            self._label_positions = {lab: i for i, lab in enumerate(union)}
        return self._label_positions

    def is_diagonal(self) -> bool:
        if self._diag_flag is None:
            branches = (br for h in self.outputs for br in h.branches)
            self._diag_flag = all(state_is_diagonal(st) for _, _, st in branches)
        return self._diag_flag

    # -- information functionals ----------------------------------------------
    def holevo_information(self) -> float:
        """Symmetric Holevo information in nats: H(avg output) - avg H(output)."""
        return max(0.0, self.average_output_entropy() - self.conditional_output_entropy())

    def _derived(self, name: str, evaluate):
        """The value ``name`` read off a relative by its rule, which is dropped
        once read (and the relative with it), or, with no rule, ``evaluate()``."""
        rule = self._rules.pop(name, None)
        return evaluate() if rule is None else rule()

    def average_output_entropy(self) -> float:
        """H(avg output)."""
        if self._avg_entropy is None:
            self._avg_entropy = self._derived("avg_entropy", self._average_entropy_fast)
        return self._avg_entropy

    def _average_entropy_fast(self) -> float:
        # the average output's label blocks, their parts left unmixed
        q = self.q
        groups = _label_groups((w / q, lab, st) for h in self.outputs for w, lab, st in h.branches)
        return _block_entropies([[parts for _, _, parts in groups]])[0]

    def conditional_output_entropy(self) -> float:
        """H(W|X) = (1/q) sum_x H(W(x))."""
        if self._cond_entropy is None:
            self._cond_entropy = self._derived(
                "cond_entropy", lambda: sum(_hybrid_entropies(self.outputs)) / self.q
            )
        return self._cond_entropy

    def pairwise_fidelity(self, x, y) -> float:
        return hybrid_fidelity(self.output_of(x), self.output_of(y))

    def pairwise_fidelity_matrix(self) -> np.ndarray:
        """F(rho_x, rho_y) for all x, y: one evaluation per pair x < y, all
        pairs evaluated together."""
        if self._fidelity_matrix is None:
            self._fidelity_matrix = _frozen(
                self._derived("fidelity_matrix", self._evaluated_fidelity_matrix)
            )
        return self._fidelity_matrix

    def _evaluated_fidelity_matrix(self) -> np.ndarray:
        x, y = np.triu_indices(self.q, 1)
        mat = np.eye(self.q)
        out = self.outputs
        mat[x, y] = mat[y, x] = hybrid_fidelities([(out[i], out[j]) for i, j in zip(x, y)])
        return mat

    fd = _profile_fd
    fd_table = _profile_fd_table
    avg_fidelity = _profile_avg_fidelity
    f_max = _profile_f_max

    # -- quotient constructions --------------------------------------------------
    def _average_cells(self, alphabet: GroupOps, cells) -> "CqChannel":
        """The channel over ``alphabet`` whose i-th output averages cells[i]."""
        return CqChannel(alphabet, _mixed_hybrids([
            _label_groups((w / len(c), lab, st) for i in c for w, lab, st in self.outputs[i].branches)
            for c in cells
        ]))

    def quotient(self, H: Subgroup) -> "CqChannel":
        """W[H]; its average output is W's, so it reads H(avg output) off W."""
        quot = _profile_quotient(self, H)
        quot._rules["avg_entropy"] = self.average_output_entropy
        return quot

    nested_fmax = _profile_nested_fmax

    def restricted_quotient(self, M: Subgroup, D: Coset) -> "CqChannel":
        """W[M|D]: inputs are the cosets of M inside D.

        Its average output is the average over D, not W's, so unlike a full
        quotient it computes its own H(avg output).
        """
        require_subgroups_of(self.alphabet, M, D.subgroup)
        if not M.is_subset_of(D.subgroup):
            raise StructuralError("M must be contained in the subgroup defining D")
        cells = refine(D, M)
        return self._average_cells(
            PlainAlphabet(cells), [M.partition[0][c.position] for c in cells]
        )

    def nested_information(self, M: Subgroup, H: Subgroup):
        """I(W[M]) - I(W[H]) and its coset decomposition average.

        Returns (value, average of I(W[M|D]) over cosets D of H); the two
        agree by the conditional-information decomposition.
        """
        if not M.is_subset_of(H):
            raise StructuralError("M must be a subgroup of H")
        value = self.quotient(M).holevo_information() - self.quotient(H).holevo_information()
        decomp = float(
            np.mean([self.restricted_quotient(M, D).holevo_information() for D in H.cosets])
        )
        return value, decomp

    # -- representation changes ---------------------------------------------------
    def flatten_dense(self) -> "CqChannel":
        """Expand classical labels into one block-diagonal output state.

        Each branch's factor rows are placed in its label's block of the
        label-union space, so the result stays factored.
        """
        pos = self.label_positions()
        k = self.k
        outputs = []
        for h in self.outputs:
            weights, rows = [], []
            for w, lab, st in h.branches:
                j = pos[lab]
                block = np.zeros((st.rank_bound, len(pos) * k), dtype=complex)
                block[:, j * k : (j + 1) * k] = st.vecs
                weights.append(w * st.weights)
                rows.append(block)
            flat = PureMixture(np.concatenate(weights), np.vstack(rows))
            outputs.append(HybridState([(1.0, (), flat)]))
        return CqChannel(self.alphabet, outputs)


# -- random channels and presets ---------------------------------------------------


def random_density(rng, k: int) -> np.ndarray:
    """A Wishart-distributed k x k density matrix: A A† / Tr(A A†), A complex Gaussian."""
    a = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    m = a @ a.conj().T
    return m / np.real(np.trace(m))


def random_cq_channel(group, k: int, mixed: bool, rng) -> CqChannel:
    """One random output per input: Haar-like pure states, or Wishart mixed ones.

    Outputs are drawn from ``rng`` in input-index order; every seeded channel
    of the package and its tests depends on that order.
    """
    if k < 1:
        raise StructuralError(f"output dimension k must be >= 1, got {k}")
    if mixed:
        states = as_mixtures([random_density(rng, k) for _ in range(group.order)])
    else:
        states = [pure_state(rng.normal(size=k) + 1j * rng.normal(size=k))
                  for _ in range(group.order)]
    return CqChannel(group, [HybridState([(1.0, (), st)]) for st in states])


def preset_channel(name: str, seed=None, **params) -> CqChannel:
    """Construct one of the named channel families.

    classical-symmetric(q, p): uniform-error classical channel, diagonal states.
    pure-states(angles): qubit pure states [cos a, sin a] over Z_q, q = len(angles).
    depolarized-orthogonal(q, lam): (1-lam)|x><x| + lam I/q.
    random(q, k, seed, mixed=False): Haar-like random pure (or Wishart mixed) outputs.
    """

    def param(key: str, kind):
        if key not in params:
            raise LoadError(f"preset {name!r} needs the parameter {key!r}")
        try:
            return kind(params[key])
        except (TypeError, ValueError) as exc:
            raise LoadError(f"preset {name!r}: bad {key} {params[key]!r}") from exc

    if name == "classical-symmetric":
        q, p = param("q", int), param("p", float)
        if not 0.0 <= p <= 1.0:
            raise LoadError("flip probability must be in [0, 1]")
        if q == 1 and p > 0.0:
            raise LoadError(f"preset {name!r}: q = 1 leaves no symbol to flip to, so p = {p} "
                            "must be 0")
        g = FiniteAbelianGroup([q])
        outputs = []
        for x in range(q):
            probs = np.full(q, p / (q - 1) if q > 1 else 0.0)
            probs[x] = 1.0 - p
            outputs.append(HybridState([(1.0, (), np.diag(probs.astype(complex)))]))
        return CqChannel(g, outputs)
    if name == "pure-states":
        angles = param("angles", lambda v: [float(a) for a in v])
        if not np.isfinite(angles).all():
            raise LoadError(f"preset {name!r}: angles must be finite, got {angles}")
        g = FiniteAbelianGroup([len(angles)])
        outputs = [
            HybridState([(1.0, (), pure_state([np.cos(a), np.sin(a)]))]) for a in angles
        ]
        return CqChannel(g, outputs)
    if name == "depolarized-orthogonal":
        q, lam = param("q", int), param("lam", float)
        if not 0.0 <= lam <= 1.0:
            raise LoadError("depolarization weight must be in [0, 1]")
        g = FiniteAbelianGroup([q])
        outputs = []
        for x in range(q):
            m = np.full(q, lam / q, dtype=complex)
            m[x] += 1.0 - lam
            outputs.append(HybridState([(1.0, (), np.diag(m))]))
        return CqChannel(g, outputs)
    if name == "random":
        q, k = param("q", int), param("k", int)
        g = FiniteAbelianGroup(params.get("group", [q]))
        if g.order != q:
            raise LoadError("group order does not match q")
        mixed = bool(params.get("mixed", False))
        return random_cq_channel(g, k, mixed, np.random.default_rng(seed))
    raise LoadError(f"unknown preset {name!r}")


# -- JSON channel files -----------------------------------------------------------
# The type checks below serve channel files and plan files alike.

# A boolean is no integer or number here, though Python's bool is an int.
_SCALAR_KINDS = {"an integer": int, "a number": (int, float), "a string": str, "a boolean": bool}


def _expect(value, kind: type, what: str):
    """``value`` if it is a JSON object (``dict``) or array (``list``)."""
    if not isinstance(value, kind):
        name = "an object" if kind is dict else "an array"
        raise StructuralError(f"{what} must be {name}, got {type(value).__name__}")
    return value


def _is_kind(value, kind: str) -> bool:
    """Whether ``value`` is a JSON scalar of ``kind``, a key of _SCALAR_KINDS."""
    types = _SCALAR_KINDS[kind]
    return isinstance(value, types) and (types is bool or not isinstance(value, bool))


def _scalar(value, kind: str, what: str):
    """``value`` if it is a JSON scalar of ``kind``."""
    if not _is_kind(value, kind):
        raise StructuralError(f"{what} must be {kind}, got {value!r}")
    return value


def _integers(values, what: str) -> tuple:
    """``values`` as element indices; JSON floats, strings and booleans are refused."""
    for v in _expect(values, list, what):
        if not _is_kind(v, "an integer"):
            raise StructuralError(f"{what} entries must be integers, got {v!r}")
    return tuple(values)


def _parse_input_key(key: str, g: FiniteAbelianGroup) -> int:
    """The element index an input key names: one in-range residue per cyclic factor."""
    try:
        parsed = ast.literal_eval(key)
    except (SyntaxError, ValueError, TypeError, RecursionError):
        parsed = None
    if _is_kind(parsed, "an integer"):
        parsed = (parsed,)
    orders = g.cyclic_orders
    if not (
        isinstance(parsed, (tuple, list))
        and len(parsed) == len(orders)
        and all(_is_kind(r, "an integer") and 0 <= r < n for r, n in zip(parsed, orders))
    ):
        raise LoadError(f"bad input key {key!r}: want a residue in [0, n) for each n in {orders}")
    return g.index_of_residues(tuple(parsed))


def _real_matrix(value, k: int, what: str) -> np.ndarray:
    """A JSON k x k array of numbers as a float matrix."""
    rows = _expect(value, list, what)
    if len(rows) != k or any(len(_expect(row, list, f"{what} rows")) != k for row in rows):
        raise StructuralError(f"{what} is not {k}x{k}")
    for row in rows:
        for v in row:
            _scalar(v, "a number", f"{what} entries")
    return np.array(rows, dtype=float)


def _state_from_json(spec, k: int, name) -> HybridState:
    """Input ``name``'s state entry: weighted, labelled ``branches``, or one bare matrix.

    A branch keeps its file's label as a string (its position when it has
    none); a bare matrix reads as one branch of weight 1 labelled "()", the
    string ``channel_to_json`` writes for ().  Each weight must be finite and
    >= 0, and the weights must sum to 1 within LIKELIHOOD_SUM_TOL, as a
    diagonal channel's likelihood rows must: each transform multiplies the
    sums, and the dimension cap stops hybrid scans with k >= 2 at n = 3, where
    (1 + 1e-8)^8 - 1 is below EQ_TOL.
    """
    bare = "branches" not in _expect(spec, dict, "the state")
    raw = [dict(spec, w=1.0)] if bare else _expect(spec["branches"], list, "branches")
    branches = []
    for j, br in enumerate(raw):
        at = "" if bare else f"branch {j} "
        w = _scalar(_expect(br, dict, f"branch {j}").get("w"), "a number", f"{at}w")
        if not (np.isfinite(w) and w >= 0):
            raise StructuralError(f"{at}w must be finite and >= 0, got {w!r}")
        mat = _real_matrix(br.get("re"), k, f"{at}re").astype(complex)
        if br.get("im") is not None:
            mat.imag = _real_matrix(br["im"], k, f"{at}im")
        try:
            mat = validate_density_matrix(mat)
        except StructuralError as exc:
            raise StructuralError(f"{at}{exc}") from exc
        branches.append((float(w), "()" if bare else str(br.get("label", j)), mat))
    total = sum(w for w, _, _ in branches)
    if abs(total - 1.0) > LIKELIHOOD_SUM_TOL:
        raise LoadError(f"branch weights must sum to 1: input {name} sums to {total!r}")
    return HybridState(branches)


def is_json_text(source) -> bool:
    """Whether a channel or plan source is JSON text rather than a file path."""
    return isinstance(source, str) and source.startswith("{")


def read_json(source, what: str):
    """A dict as given; JSON text that starts with '{'; anything else is a file path.

    The one reader of channel and plan files.  An error names ``what`` and the
    path it could not read.
    """
    if isinstance(source, dict):
        return source
    is_text = is_json_text(source)
    try:
        if is_text:
            return json.loads(source)
        with open(source) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not JSON, or not UTF-8
        reason = exc.strerror if isinstance(exc, OSError) else exc
        where = "" if is_text else f" {source}"
        raise LoadError(f"cannot read {what} JSON{where}: {reason}") from exc


def load_channel(source) -> CqChannel:
    """Load and validate a channel from a dict, JSON text or a file path (see read_json)."""
    obj = read_json(source, "channel")
    try:
        g = FiniteAbelianGroup(_integers(obj["group"], "group"))
        k = _scalar(obj["k"], "an integer", "k")
        raw_states = _expect(obj["states"], dict, "states")
    except (KeyError, TypeError) as exc:
        raise LoadError(f"channel JSON missing required field: {exc}") from exc
    except StructuralError as exc:
        raise LoadError(f"channel JSON: {exc}") from exc
    outputs: list = [None] * g.order
    for key, spec in raw_states.items():
        idx = _parse_input_key(key, g)
        if outputs[idx] is not None:
            raise LoadError(f"input {key}: another key already names this input")
        try:
            outputs[idx] = _state_from_json(spec, k, g.label_of(idx))
        except LoadError:
            raise  # it names the input already
        except StructuralError as exc:
            raise LoadError(f"input {key}: {exc}") from exc
    missing = [i for i, h in enumerate(outputs) if h is None]
    if missing:
        shown = ", ".join(repr(g.element_by_index(i)) for i in missing[:5])
        more = ", ..." if len(missing) > 5 else ""
        raise LoadError(f"channel does not define inputs: {shown}{more} ({len(missing)} missing)")
    return CqChannel(g, outputs)


def channel_to_json(W: CqChannel) -> dict:
    """Serialize a channel for files and plans; each label is written as its
    ``str``, so a loaded channel's labels come back unchanged."""
    g = _require_product_group(W)
    states = {}
    for i in range(W.q):
        branches = []
        for w, lab, st in W.outputs[i].branches:
            m = to_dense(st)
            branches.append(
                {
                    "w": w,
                    "label": str(lab),
                    "re": np.real(m).tolist(),
                    "im": np.imag(m).tolist(),
                }
            )
        states[repr(g.element_by_index(i))] = {"branches": branches}
    return {"group": list(g.cyclic_orders), "k": W.k, "states": states}
