"""Classical-quantum channels with hybrid (classical-register) outputs.

A channel maps each group element to a :class:`HybridState`: a list of
``(weight, label, quantum state)`` branches representing a block-diagonal
output ``sum_l w_l |l><l| ⊗ rho_l``.  Labels stay symbolic instead of being
expanded into tensor factors, which is what keeps repeated plus-transforms
affordable.  Every branch state is a factored :class:`~.states.PureMixture`;
a dense matrix handed in is factored once, when its ``HybridState`` is built.
All information/fidelity functionals respect the block structure exactly.
A branch with orthonormal factor rows (see :mod:`.states`) has its weights
as spectrum, so its entropy needs no decomposition.

I(W) = H(avg output) - H(W|X), H(W|X) = (1/q) sum_x H(W(x)), and every
fidelity functional (F_d, F, F_max, nested F_max) reads one q x q matrix of
pairwise fidelities; all three are cached.  A full quotient and the
transforms of :mod:`.polarize` record (parent W, rule) as the child's
*origin* and read them off W, as entropy adds and fidelity multiplies over
tensor products: H(avg W[H]) = H(avg W); H(avg W^-) = 2 H(avg W); and, W^+(x)
being a uniform u1 register times rho_{u1+x} ⊗ rho_x, H(W^+|X) = log q +
2 H(W|X) and F_{W^+}(x, y) = F_W(x, y) F_{y-x}(W).  A child drops W once
every value its rule feeds is cached.  Siblings built together (see
:func:`~.polarize.children`) add one rule: the block of avg W^+ under
register u1 is W^-(u1)/q, so H(avg W^+) = log q + H(W^-|X), and W^+ drops its
minus sibling once it has read it.  A channel built from a child's outputs
has no origin: it evaluates everything itself (so do the checks).
"""

from __future__ import annotations

import ast
import itertools
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
)
from .linalg import (
    EQ_TOL,
    LIKELIHOOD_SUM_TOL,
    STACK_ENTRIES,
    entropy_of_probs,
    factor_fidelity,
    validate_density_matrix,
)
from .states import (
    PureMixture,
    as_mixture,
    batched_mixture_entropies,
    mix_states,
    pure_state,
    state_is_diagonal,
    to_dense,
)


#: How a branch label is keyed in dicts and ordered: by its repr.
_label_key = repr


class HybridState:
    """A block-diagonal output state: branches of (weight, label, state).

    Branch states may be given as mixtures or dense matrices; each is stored
    as a :class:`PureMixture`.
    """

    __slots__ = ("branches", "_dict")

    def __init__(self, branches):
        cleaned = [(float(w), lab, as_mixture(st)) for w, lab, st in branches if w > 0.0]
        cleaned.sort(key=lambda b: _label_key(b[1]))
        self.branches = cleaned
        self._dict = None
        labels = [lab for _, lab, _ in cleaned]
        if len(set(map(_label_key, labels))) != len(labels):
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
            self._dict = {_label_key(lab): (w, st) for w, lab, st in self.branches}
        return self._dict

    def entropy(self) -> float:
        """H(weights) + sum of weighted branch entropies (see ``_block_entropy``)."""
        return _block_entropy([((w, st),) for w, _, st in self.branches])


def _block_entropy(blocks) -> float:
    """Entropy of a block-diagonal state: the sum over its blocks X of -Tr X log X.

    A block is its weighted parts [(w, mixture)], X = sum of w rho.  A one-part
    block gives -w log w, summed as the Shannon entropy of those weights, plus
    w H(rho), read off the weights of an orthonormal mixture in one pass.  The
    other blocks are decomposed, those of one component shape in one stacked
    eigvalsh call (per-block dispatch would dominate channels with thousands of
    labels): the stacked components sqrt(w) V of its parts, or a mixture's own.
    """
    weights, spectra, scales = [], [], []
    groups: dict = {}
    for parts in blocks:
        if len(parts) > 1:
            comps = np.vstack([np.sqrt(w) * st.scaled_components() for w, st in parts])
            groups.setdefault(comps.shape, []).append((1.0, comps))
            continue
        ((w, st),) = parts
        weights.append(w)
        if st.rank_bound == 1:
            continue
        if st.orthonormal:
            spectra.append(st.weights)
            scales.append(np.full(st.rank_bound, w))
        else:
            groups.setdefault(st.vecs.shape, []).append((w, st.scaled_components()))
    total = entropy_of_probs(np.array(weights)) if weights else 0.0
    if spectra:
        p = np.concatenate(spectra)
        total -= float(np.concatenate(scales) @ (p * np.log(np.where(p > 0.0, p, 1.0))))
    for items in groups.values():
        ent = batched_mixture_entropies([c for _, c in items])
        total += float(np.array([w for w, _ in items]) @ ent)
    return total


def _label_groups(branches) -> list:
    """Branches (w, label, state) as [label, total weight, [(w, state)]], in first-seen order."""
    groups: dict = {}
    for w, lab, st in branches:
        ent = groups.setdefault(_label_key(lab), [lab, 0.0, []])
        ent[1] += w
        ent[2].append((w, st))
    return list(groups.values())


def _mixed_hybrid(groups) -> HybridState:
    """One branch per label group: its total weight and the mixture of its states."""
    return HybridState(
        [(t, lab, mix_states([(w / t, st) for w, st in parts])) for lab, t, parts in groups]
    )


def hybrid_fidelity(a: HybridState, b: HybridState) -> float:
    """Fidelity of two block-diagonal states: sum over shared labels of
    sqrt(w w') F(rho, rho').  Pairs of pure branches are batched into one
    vectorized overlap computation; the other pairs go through
    :func:`~.linalg.factor_fidelity`, pairs of one shape in stacked SVDs of
    at most ``STACK_ENTRIES`` factor entries (see :mod:`.linalg`), and are
    summed in label order."""
    db = b.as_dict()
    left, right, scales = [], [], []
    shapes: dict = {}  # (ra, rb) -> [(term position, sa, sb)]
    for key, (wa, sa) in a.as_dict().items():
        hit = db.get(key)
        if hit is None:
            continue
        wb, sb = hit
        if sa.rank_bound == 1 and sb.rank_bound == 1:
            left.append(np.sqrt(wa) * sa.scaled_components()[0])
            right.append(np.sqrt(wb) * sb.scaled_components()[0])
        else:
            shapes.setdefault((sa.rank_bound, sb.rank_bound), []).append((len(scales), sa, sb))
            scales.append(np.sqrt(wa * wb))
    fids = np.empty(len(scales))
    for items in shapes.values():
        _, first_a, first_b = items[0]
        chunk = max(1, STACK_ENTRIES // (first_a.vecs.size + first_b.vecs.size))
        for lo in range(0, len(items), chunk):
            part = items[lo : lo + chunk]
            fids[[i for i, _, _ in part]] = factor_fidelity(
                np.stack([sa.scaled_components() for _, sa, _ in part]),
                np.stack([sb.scaled_components() for _, _, sb in part]),
            )
    # a running sum in label order: the value is bit-identical to adding each
    # pair's term as its label is reached
    total = sum((np.array(scales) * fids).tolist())
    if left:
        overlaps = np.abs((np.stack(left) * np.stack(right).conj()).sum(axis=1))
        total += float(overlaps.sum())
    return float(min(1.0, total))


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
    origin : (CqChannel, str), optional
        The parent and the rule, "quotient", "minus" or "plus", that built it.
    """

    def __init__(self, alphabet: GroupOps, outputs, origin: tuple = None):
        if len(outputs) != alphabet.order:
            raise StructuralError("channel must define an output for every input")
        dims = {h.dim for h in outputs}
        if len(dims) != 1:
            raise StructuralError("outputs have inconsistent quantum dimensions")
        self.alphabet = alphabet
        self.outputs = list(outputs)
        self.k = dims.pop()
        self._fidelity_matrix = None
        self._label_union = None
        self._label_positions = None
        self._diag_flag = None
        self._avg_entropy = None
        self._cond_entropy = None
        self._origin = origin  # (parent, rule) until every value the rule feeds is read
        self._sibling = None  # a plus child's minus sibling, until H(avg output) is read
        self._pairs = None  # the pair products polarize.children stages for both children

    # -- conveniences ---------------------------------------------------------
    @property
    def q(self) -> int:
        return self.alphabet.order

    def output_of(self, x) -> HybridState:
        return self.outputs[self._index(x)]

    _index = _profile_index

    def label_union(self) -> list:
        """Every output's labels, each once, in key order; cached."""
        if self._label_union is None:
            seen = {_label_key(lab): lab for h in self.outputs for _, lab, _ in h.branches}
            self._label_union = [seen[key] for key in sorted(seen)]
        return self._label_union

    def label_positions(self) -> dict:
        """Map label key -> position in the sorted label union; cached."""
        if self._label_positions is None:
            union = self.label_union()
            self._label_positions = {_label_key(lab): i for i, lab in enumerate(union)}
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

    def average_output_entropy(self) -> float:
        """H(avg output); a quotient or minus child reads it off its parent, a
        plus child built with its sibling off that minus sibling."""
        if self._avg_entropy is None:
            parent, rule = self._origin or (None, None)
            if rule in ("quotient", "minus"):  # avg W[H] = avg W, avg W^- = avg W ⊗ avg W
                scale = 2.0 if rule == "minus" else 1.0
                self._avg_entropy = scale * parent.average_output_entropy()
                self._origin = None  # the one value these rules feed
            elif self._sibling is not None:  # avg W^+ = (1/q) sum_u1 |u1><u1| ⊗ W^-(u1)
                log_q = float(np.log(self.q))
                self._avg_entropy = log_q + self._sibling.conditional_output_entropy()
                self._sibling = None
            else:
                self._avg_entropy = self._average_entropy_fast()
        return self._avg_entropy

    def _average_entropy_fast(self) -> float:
        # the average output's label blocks, their parts left unmixed
        q = self.q
        groups = _label_groups((w / q, lab, st) for h in self.outputs for w, lab, st in h.branches)
        return _block_entropy([parts for _, _, parts in groups])

    def conditional_output_entropy(self) -> float:
        """H(W|X) = (1/q) sum_x H(W(x)); a plus child reads it off its parent."""
        if self._cond_entropy is None:
            parent, rule = self._origin or (None, None)
            if rule == "plus":
                log_q = float(np.log(self.q))
                self._cond_entropy = log_q + 2.0 * parent.conditional_output_entropy()
                if self._fidelity_matrix is not None:  # the plus rule feeds both
                    self._origin = None
            else:
                self._cond_entropy = sum(h.entropy() for h in self.outputs) / self.q
        return self._cond_entropy

    def pairwise_fidelity(self, x, y) -> float:
        return hybrid_fidelity(self.output_of(x), self.output_of(y))

    def pairwise_fidelity_matrix(self) -> np.ndarray:
        """F(rho_x, rho_y) for all x, y: one evaluation per pair x < y, or, for
        a plus child, F_W(x, y) F_{y-x}(W) on the upper triangle, mirrored."""
        if self._fidelity_matrix is None:
            parent, rule = self._origin or (None, None)
            if rule == "plus":
                fd = np.array([parent.fd(d) for d in range(self.q)])
                diff = self.alphabet.add_table[self.alphabet.neg_table]  # diff[x, y] = y - x
                upper = np.triu(parent.pairwise_fidelity_matrix() * fd[diff], 1)
                mat = upper + upper.T
            else:
                mat = np.eye(self.q)
                for x, y in itertools.combinations(range(self.q), 2):
                    mat[x, y] = mat[y, x] = self.pairwise_fidelity(x, y)
            self._fidelity_matrix = _frozen(mat)
            if rule == "plus" and self._cond_entropy is not None:
                self._origin = None
        return self._fidelity_matrix

    fd = _profile_fd
    fd_table = _profile_fd_table
    avg_fidelity = _profile_avg_fidelity
    f_max = _profile_f_max

    # -- quotient constructions --------------------------------------------------
    def _average_cells(self, alphabet: GroupOps, cells) -> "CqChannel":
        """The channel over ``alphabet`` whose i-th output averages cells[i]."""
        outputs = [_average_hybrid([self.outputs[i] for i in c]) for c in cells]
        return CqChannel(alphabet, outputs)

    def quotient(self, H: Subgroup) -> "CqChannel":
        """W[H]; it inherits H(avg output) from W (see average_output_entropy)."""
        quot = _profile_quotient(self, H)
        quot._origin = (self, "quotient")
        return quot

    nested_fmax = _profile_nested_fmax

    def restricted_quotient(self, M: Subgroup, D: Coset) -> "CqChannel":
        """W[M|D]: inputs are the cosets of M inside D.

        Its average output is the average over D, not W's, so unlike a full
        quotient it computes its own H(avg output).
        """
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
                j = pos[_label_key(lab)]
                block = np.zeros((st.rank_bound, len(pos) * k), dtype=complex)
                block[:, j * k : (j + 1) * k] = st.vecs
                weights.append(w * st.weights)
                rows.append(block)
            flat = PureMixture(np.concatenate(weights), np.vstack(rows))
            outputs.append(HybridState([(1.0, (), flat)]))
        return CqChannel(self.alphabet, outputs)


def _average_hybrid(hybrids) -> HybridState:
    n = len(hybrids)
    return _mixed_hybrid(
        _label_groups((w / n, lab, st) for h in hybrids for w, lab, st in h.branches)
    )


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
    outputs = []
    for _ in range(group.order):
        if mixed:
            state = random_density(rng, k)
        else:
            state = pure_state(rng.normal(size=k) + 1j * rng.normal(size=k))
        outputs.append(HybridState([(1.0, (), state)]))
    return CqChannel(group, outputs)


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

    A bare matrix reads as one branch of weight 1 labelled ().  The weights
    must sum to 1 within LIKELIHOOD_SUM_TOL, as a diagonal channel's likelihood
    rows must: each transform multiplies the sums, and the dimension cap stops
    hybrid scans with k >= 2 at n = 3, where (1 + 1e-8)^8 - 1 is below EQ_TOL.
    """
    bare = "branches" not in _expect(spec, dict, "the state")
    raw = [dict(spec, w=1.0)] if bare else _expect(spec["branches"], list, "branches")
    branches = []
    for j, br in enumerate(raw):
        at = "" if bare else f"branch {j} "
        w = _scalar(_expect(br, dict, f"branch {j}").get("w"), "a number", f"{at}w")
        if not np.isfinite(w):
            raise StructuralError(f"{at}w must be finite, got {w!r}")
        mat = _real_matrix(br.get("re"), k, f"{at}re").astype(complex)
        if br.get("im") is not None:
            mat.imag = _real_matrix(br["im"], k, f"{at}im")
        try:
            mat = validate_density_matrix(mat)
        except StructuralError as exc:
            raise StructuralError(f"{at}{exc}") from exc
        branches.append((float(w), () if bare else str(br.get("label", j)), mat))
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
    """Serialize a channel (labels flattened to strings) for files and plans."""
    g = _require_product_group(W)
    states = {}
    for i in range(W.q):
        branches = []
        for w, lab, st in W.outputs[i].branches:
            m = to_dense(st)
            branches.append(
                {
                    "w": w,
                    "label": _label_key(lab),
                    "re": np.real(m).tolist(),
                    "im": np.imag(m).tolist(),
                }
            )
        states[repr(g.element_by_index(i))] = {"branches": branches}
    return {"group": list(g.cyclic_orders), "k": W.k, "states": states}
