"""Quantum successive-cancellation decoding of polar plans, by Monte Carlo.

The decoder walks branches in decode order.  At each step it takes each
coset's probability given the decoded prefix (later symbols modeled uniform,
as the averaged section analysis prescribes), picks one, and lifts it through
the section the encoder used; steps with a single coset are skipped.  One
loop, ``SCDecoder._decode_batch``, decodes a batch of trials of any kind.  It
drives a step object that holds the received data, and it picks with doubles
drawn in advance, one per multi-coset step, as ``Generator.choice`` would.

- pure: every output is a pure state; a trial is a state vector and a step a
  ``_SubspacePovm`` in the small span of the component vectors (this is what
  makes N = 8 with 2000 trials cheap),
- mixed: some output is mixed; each use sends one of its output's components,
  drawn with the output's weights, so a trial is again a state vector, and a
  step a ``_SubspacePovm`` on the whole space, built from the densified
  conditional states,
- diagonal: classical channels; outputs are sampled, and the step object
  ``_Likelihoods`` runs Arikan's O(N log N) likelihood butterfly in the group
  form over the whole batch: SC with posterior sampling is the pretty-good
  measurement restricted to commuting states.

Drawing the components is exact: an SC outcome sequence has probability
Tr(K rho K†), K its Kraus product, linear in the received state rho, so the
decoded messages keep the distribution that decoding rho gives (cf. the cq
SC decoder of Wilde-Guha, arXiv:1109.2591).

The quantum step object, ``_QuantumTrials``, measures each trial with the PGM
of the conditional states and applies the sqrt(E) . sqrt(E) update to the
outcome picked; a trial whose state vanishes collapses and is skipped from
then on.  Trials that share a decided prefix share that POVM, so each step
measures and updates the trials group by group, one stack per prefix, and
builds the step's missing POVMs in stacked LAPACK calls.  Its candidate
states are branches of the synthetic channel W^s it faces (s the reversed
branch label, the decided prefix its classical register), built by the scans'
+/- transforms under the decoder's caps; the inner channels W^{s[:j]} stay
cached, W^s only until the step's POVMs are built, and POVMs are cached by
(step, prefix) across trials.  A channel whose outputs carry several
classical labels is first flattened into one block-diagonal state per input.

``error_experiment`` runs whole batches of trials as arrays: each trial's
randomness comes from two vectorized draws, and the batch is lifted through
one member table, encoded by the batched butterfly and transmitted in one
step before ``_decode_batch`` decodes it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import CqChannel
from .config import ResourceCaps, default_caps
from .diagonal import from_cq_channel
from .errors import StructuralError
from .linalg import RCOND, Povm, hermitize, pgm_effects
from .codes import (
    CodePlan,
    MessageVector,
    encode,
    plan_channel,
    polar_encode_indices,
    section_values,
)
from .polarize import MINUS, PLUS, _child, decode_index, format_label
from .states import batched_mixtures, to_dense

_SURVIVAL_FLOOR = 1e-300
#: Received data of the trials decoded together, and what one POVM builder call
#: stacks, in bytes; bounds memory, not results.
_BATCH_BYTES = 1 << 25


@dataclass
class JointOutputState:
    """The receiver's system for one transmission, plus provenance."""

    kind: str  # "pure" | "diagonal" | "mixed"
    data: object  # state vector (of the components sent) | sampled output columns (int array)
    codeword: np.ndarray
    message: MessageVector = None
    sections: list = None  # the encoder's section maps; None for the plan's own


@dataclass
class StepRecord:
    branch: tuple
    decoded_rep: int  # canonical representative index of the decoded coset
    p_step: float
    survival: float


@dataclass
class DecodeTrace:
    steps: list = field(default_factory=list)
    success: bool = False
    failed: bool = False  # numerical collapse


def _wilson(p_hat: float, n: int, z: float):
    denom = 1.0 + z * z / n
    center = (p_hat + z * z / (2 * n)) / denom
    half = z * np.sqrt(p_hat * (1 - p_hat) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


class _Likelihoods:
    """The diagonal step object: Arikan's likelihood butterfly over received words.

    Node p of level l covers channel uses [p*2^l, (p+1)*2^l); at decode step i
    it is at its local input i >> (n - l).  ``lik[l]`` holds, per trial and
    level-l node, the likelihoods of that input given the node's decided
    inputs, shape (trials, 2^(n-l), q), each node normalised to sum 1 (all
    zeros once the evidence is gone).  ``lik[0]`` reads the received outputs.
    ``at[l]`` is the position ``lik[l]`` was computed for: steps with a single
    coset never ask for likelihoods, so levels catch up lazily.  ``even[l]``
    holds each level-l node's input at its last even position.
    As in ``codes.polar_encode_indices``, pair (2t, 2t+1) of a node sends
    u_2t + u_2t+1 to its first child and u_2t+1 to its second.
    ``coset_sums[i]`` is the (q, cosets) indicator of step i's partition.
    """

    def __init__(self, group, table, y, coset_sums):
        y = np.asarray(y, dtype=np.int64)
        self.add = group.add_table
        self.coset_sums = coset_sums
        self.n = y.shape[1].bit_length() - 1
        self.lik = [table.T[y]] + [None] * self.n
        self.at = [0] + [None] * self.n
        self.even = [None] * (self.n + 1)

    def probabilities(self, i: int) -> np.ndarray:
        """Coset probabilities of step i given the decided prefix, (trials, cosets)."""
        n = self.n
        for level in range(1, n + 1):
            t = i >> (n - level)
            if self.at[level] == t:
                continue
            self.at[level] = t
            a, b = self.lik[level - 1][:, 0::2], self.lik[level - 1][:, 1::2]
            if t & 1:  # L(h) = L_A(k + h) L_B(h), k the decided even input
                out = np.take_along_axis(a, self.add[self.even[level]], axis=2) * b
            else:  # L(h) = sum_xi L_A(h + xi) L_B(xi)
                out = np.einsum("tphx,tpx->tph", a[:, :, self.add], b)
            total = out.sum(axis=2, keepdims=True)
            self.lik[level] = out / np.where(total > 0.0, total, 1.0)
        return self.lik[n][:, 0] @ self.coset_sums[i]

    def collapse(self, picks, failed) -> np.ndarray:
        """Sampled outputs are not disturbed by a pick: no trial collapses."""
        return np.zeros(len(picks), dtype=bool)

    def fix(self, i: int, u: np.ndarray) -> None:
        """Record input i's decided values (trials,) and pass completed pairs down."""
        n, level, v = self.n, self.n, np.asarray(u)[:, None]
        while (i >> (n - level)) & 1:
            pair = np.empty((v.shape[0], 2 * v.shape[1]), dtype=np.int64)
            pair[:, 0::2] = self.add[self.even[level], v]
            pair[:, 1::2] = v
            v, level = pair, level - 1
        self.even[level] = v


def _padded(rows, width: int) -> np.ndarray:
    """Ragged integer rows as one zero-padded (len(rows), width) array."""
    return np.array([list(r) + [0] * (width - len(r)) for r in rows], dtype=np.int64)


# -- step objects ------------------------------------------------------------------


def _sqnorms(rows: np.ndarray) -> np.ndarray:
    """The squared norm of each row of a (t, d) array, one dot product per row."""
    return (rows.conj()[:, None, :] @ rows[:, :, None])[:, 0, 0].real


def _groups(keys) -> list:
    """The positions of equal keys, one list per distinct key, in order of first appearance."""
    out = {}
    for j, key in enumerate(keys):
        out.setdefault(key, []).append(j)
    return list(out.values())


class _SubspacePovm:
    """A POVM stored in the span of its conditional-state components.

    E_u = Q M_u Q† + kernel_share (I - Q Q†), with Q an orthonormal basis of
    the joint support and M_u = U_u diag(vals_u) U_u†.  Initial states always
    lie in the support, so the kernel part never fires during decoding; it
    exists so densified effects sum to the identity exactly.  (``_dense_pgm``
    stores mixed candidates' PGMs with Q = I.)  It measures a stack of state
    vectors at once, the trials of one prefix group, with one product per
    trial, so that a trial's numbers do not depend on its group.
    """

    def __init__(self, basis, vecs, vals, kernel_share):
        self.basis = basis  # d x r, orthonormal columns
        self.vecs = vecs  # (outcomes, r, r): the eigenbases U_u
        self.vals = vals  # (outcomes, r): their eigenvalues, clipped at 0
        self.kernel_share = kernel_share

    def probabilities(self, psis) -> np.ndarray:
        """Outcome probabilities of (t, d) state vectors, (t, outcomes)."""
        coords = psis[:, None, :] @ self.basis.conj()  # (t, 1, r)
        leak = np.maximum(0.0, _sqnorms(psis) - _sqnorms(coords[:, 0]))
        weights = np.abs(coords[:, None] @ self.vecs.conj()) ** 2  # (t, outcomes, 1, r)
        inside = (weights @ self.vals[:, :, None])[:, :, 0, 0]
        return np.clip(inside + self.kernel_share * leak[:, None], 0.0, None)

    def post_measurement(self, psis, picks):
        """The normalised states after outcomes ``picks`` (t,), and which survived."""
        coords = psis[:, None, :] @ self.basis.conj()  # (t, 1, r)
        u = self.vecs[picks]
        scaled = (coords @ u.conj()) * np.sqrt(self.vals[picks])[:, None, :]
        inside = scaled @ u.swapaxes(-1, -2) @ self.basis.T
        inside += np.sqrt(self.kernel_share) * (psis[:, None, :] - coords @ self.basis.T)
        inside = inside[:, 0]
        nrm = _sqnorms(inside)
        kept = nrm > _SURVIVAL_FLOOR
        return inside / np.sqrt(np.where(kept, nrm, 1.0))[:, None], kept

    def to_povm(self) -> Povm:
        d = self.basis.shape[0]
        kern = (np.eye(d) - self.basis @ self.basis.conj().T) * self.kernel_share
        core = (self.vecs * self.vals[:, None, :]) @ self.vecs.conj().swapaxes(-1, -2)
        return Povm(list(hermitize(self.basis @ core @ self.basis.conj().T + kern)))


def _pgm_povms(ensembles, bases) -> list:
    """One ``_SubspacePovm`` per ensemble of a (b, m, r, r) stack, in its basis (d, r):
    the eigenbases of its PGM effects, from one stacked eigh."""
    vals, vecs = np.linalg.eigh(pgm_effects(ensembles))
    share = 1.0 / ensembles.shape[1]
    return [
        _SubspacePovm(basis, u, v, share)
        for basis, u, v in zip(bases, vecs, np.clip(vals, 0.0, None))
    ]


def _subspace_pgm(sigma_lists) -> list:
    """PGMs of equal-prior pure mixtures, one per list of candidate states, each in its span.

    The lists whose components stack to one shape are built together: their
    span SVDs, S^{-1/2} eighs and effect eighs run as stacked LAPACK calls,
    which decompose each matrix as a lone call would.
    """
    comps = [[s.scaled_components() for s in sigmas] for sigmas in sigma_lists]
    out = [None] * len(comps)
    for shaped in _groups([tuple(c.shape for c in cs) for cs in comps]):
        m = len(comps[shaped[0]])
        stack = np.array([np.vstack(comps[j]) for j in shaped])
        # basis of span{components}: SVD of each stacked component matrix
        ub, svals, _ = np.linalg.svd(stack.swapaxes(-1, -2), full_matrices=False)
        ranks = np.sum(svals > RCOND * svals[:, :1], axis=1)
        for ranked in _groups(ranks.tolist()):  # positions in ``shaped`` of one rank r
            r = int(ranks[ranked[0]])
            basis = ub[ranked, :, :r]  # (b, d, r)
            projected = []  # each candidate state in basis coordinates
            for c in range(m):
                b = np.array([comps[shaped[k]][c] for k in ranked]) @ basis.conj()
                projected.append(b.swapaxes(-1, -2) @ b.conj())
            # pgm_effects shares out the kernel of S inside the span; kernel_share the rest
            for k, povm in zip(ranked, _pgm_povms(np.stack(projected, axis=1), basis)):
                out[shaped[k]] = povm
    return out


def _dense_pgm(sigma_lists) -> list:
    """PGMs of the densified candidate states, one per list, on the whole space.

    Lists of one shape are built in one stack; each effect's eigh gives the
    ``_SubspacePovm`` its eigenbasis, and all of them share one identity basis.
    """
    dense = [np.array([to_dense(s) for s in sigmas]) for sigmas in sigma_lists]
    out = [None] * len(dense)
    for same in _groups([d.shape for d in dense]):
        identity = np.eye(dense[same[0]].shape[-1], dtype=complex)
        povms = _pgm_povms(np.array([dense[j] for j in same]), [identity] * len(same))
        for j, povm in zip(same, povms):
            out[j] = povm
    return out


class _QuantumTrials:
    """The quantum step object: the trials' received states, measured in prefix groups.

    At each step the live trials are grouped by their decided prefix.  A group
    shares one step POVM (the step's missing POVMs are built together, in one
    builder call) and is measured and updated with it as one stack.  A trial
    that collapses or fails leaves ``live`` and is skipped from then on.
    """

    def __init__(self, engine, states):
        self.engine = engine
        self.states = np.array(states, dtype=complex)
        self.live = np.ones(len(self.states), dtype=bool)
        self.prefixes = np.zeros((len(self.states), engine.N), dtype=np.int64)
        self.measured = []  # (trial rows, POVM) per prefix group of the step last measured

    def probabilities(self, i: int) -> np.ndarray:
        """Unnormalised coset probabilities of step i, (trials, cosets); 0 when skipped."""
        out = np.zeros((len(self.states), len(self.engine._cells[i])))
        rows = np.flatnonzero(self.live)
        # tuples, not integer codes: q^i overflows int64 for long prefixes
        keys = list(map(tuple, self.prefixes[rows, :i].tolist()))
        members = _groups(keys)
        prefixes = [keys[g[0]] for g in members]
        self.engine._build_povms(i, prefixes)
        self.measured = []
        for prefix, g in zip(prefixes, members):
            group = rows[g]
            povm = self.engine.step_povm_rep(i, prefix)
            out[group] = povm.probabilities(self.states[group])
            self.measured.append((group, povm))
        return out

    def collapse(self, picks, failed) -> np.ndarray:
        """Apply each group's picked state updates; which trials collapsed now."""
        lost = np.zeros(len(picks), dtype=bool)
        for group, povm in self.measured:
            go = group[~failed[group]]
            self.states[go], kept = povm.post_measurement(self.states[go], picks[go])
            lost[go[~kept]] = True
        self.live &= ~(failed | lost)
        return lost

    def fix(self, i: int, u) -> None:
        """Record step i's lifted values (trials,) in each trial's prefix."""
        self.prefixes[:, i] = u


# -- decoder engine -------------------------------------------------------------------


class SCDecoder:
    """Reusable decoder for one plan/channel pair; caches POVMs across trials."""

    def __init__(self, plan: CodePlan, channel: CqChannel = None, caps: ResourceCaps = None):
        self.plan = plan
        self.caps = caps or default_caps()
        self.channel = channel if channel is not None else plan_channel(plan)
        if self.channel.alphabet.order != plan.group.order:
            raise StructuralError("channel and plan disagree on the input group")
        self.group = plan.group
        self.n = plan.params.n
        self.N = plan.block_length
        self.kind = self._classify()
        self._cells = [d.subgroup.cosets for d in plan.decisions]
        self._members = [d.subgroup.partition[0] for d in plan.decisions]
        self._coset_sums = [  # (q, cosets) indicator of each step's partition
            np.eye(len(members))[list(d.subgroup.partition[1])]
            for d, members in zip(plan.decisions, self._members)
        ]
        self._draws = sum(len(cells) > 1 for cells in self._cells)
        q = self.group.order
        self._plan_lifts = _padded(section_values(plan), q)
        self._coset_counts = np.array([len(cells) for cells in self._cells])
        # member m of coset c at step i, zero-padded; column 0 holds the representatives
        self._lookup = np.zeros((self.N, q, q), dtype=np.int64)
        for i, members in enumerate(self._members):
            self._lookup[i, : len(members), : len(members[0])] = members
        # a random section draws one member per coset of every step, in step
        # order; _section_at[i, c] is the draw of step i's coset c (0 when padding)
        self._section_highs = np.repeat([len(m[0]) for m in self._members], self._coset_counts)
        starts = np.cumsum(self._coset_counts) - self._coset_counts
        cosets = np.arange(q)
        self._section_at = np.where(
            cosets < self._coset_counts[:, None], starts[:, None] + cosets, 0
        )
        self._povm_cache = {}
        self._prepare_states()

    # -- setup -------------------------------------------------------------------
    def _classify(self) -> str:
        ch = self.channel
        if ch.is_diagonal():
            return "diagonal"
        # one shared label (whatever its name) means one branch per output
        n_labels = len(ch.label_positions())
        if n_labels > 1:
            self.caps.check_dim(n_labels * ch.k, "hybrid flatten")
            self.channel = ch.flatten_dense()
        pure = all(h.branches[0][2].rank_bound == 1 for h in self.channel.outputs)
        return "pure" if pure else "mixed"

    def _prepare_states(self):
        if self.kind == "diagonal":
            self.table = rows = from_cq_channel(self.channel).table
        else:
            self.caps.check_dim(self.channel.k**self.N, "joint output state")
            self.leaf = [h.branches[0][2] for h in self.channel.outputs]
            # each input's components and their weights, zero-padded to (q, r, k) and (q, r)
            r = max(s.rank_bound for s in self.leaf)
            rows = np.zeros((len(self.leaf), r))
            self._leaves = np.zeros((len(self.leaf), r, self.channel.k), dtype=complex)
            for x, s in enumerate(self.leaf):
                rows[x, : s.rank_bound], self._leaves[x, : s.rank_bound] = s.weights, s.vecs
            self._synthetic = {(): self.channel}  # sign prefix -> W^signs
            # (signs, decided) -> label
            self._labels = {((), ()): next(iter(self.channel.label_positions()))}
        # Generator.choice(p=p) checks p once per call and draws one double u,
        # picking searchsorted(cdf, u, "right"); its cdf is kept per input row
        p = np.stack([row / row.sum() for row in rows])
        self._cdf = np.cumsum(p, axis=1)
        self._cdf /= self._cdf[:, -1:]

    def _lifts(self, sections) -> np.ndarray:
        """Section values by step and coset position, (N, q); None means the plan's."""
        if sections is None:
            return self._plan_lifts
        return _padded(section_values(self.plan, sections), self.group.order)

    # -- transmission ---------------------------------------------------------------
    def transmit(self, message: MessageVector, rng, sections=None) -> JointOutputState:
        """Encode a message and send it: a batch of one through ``_received``.

        Classical and mixed channels draw one double per use from ``rng``, pure ones none.
        """
        codeword = encode(self.plan, message, sections)
        noise = rng.random(codeword.size)[None] if self.kind != "pure" else None
        data = self._received(codeword[None], noise)[0]
        return JointOutputState(self.kind, data, codeword, message, sections)

    def _received(self, codewords: np.ndarray, noise) -> np.ndarray:
        """The received data of a batch of codewords (trials, N), one row per trial.

        At each use, a classical or mixed channel samples the first output
        (diagonal) or output component (mixed) whose cdf reaches that use's
        double in ``noise`` (trials, N), as ``Generator.choice`` samples; a
        pure channel sends its one component.  A quantum trial is the product
        of the components sent, built one use at a time from the outer
        products that ``np.kron`` takes, so the values are those of a kron chain.
        """
        picked = 0 if noise is None else np.sum(self._cdf[codewords] <= noise[:, :, None], axis=2)
        if self.kind == "diagonal":
            return picked
        trials = len(codewords)
        out = np.ones((trials, 1), dtype=complex)
        for leaf in self._leaves[codewords, picked].swapaxes(0, 1):
            out = (out[:, :, None] * leaf[:, None, :]).reshape(trials, -1)
        return out

    def _trial_bytes(self) -> int:
        """The size of one trial's received data."""
        if self.kind == "diagonal":
            return 8 * self.N  # int64 outputs
        return self._leaves.itemsize * self.channel.k**self.N

    def _trial_batch(self, seed, trials: range, randomize: bool) -> tuple:
        """Draw, lift, encode and transmit a batch of experiment trials, as arrays.

        Each trial makes the draws ``error_experiment`` lists, in two calls.  Returns
        the coset representatives sent (trials, N), the section values
        (trials, N, q), the received data and the decoder's doubles.
        """
        count, q = len(trials), self.group.order
        highs = self._coset_counts
        if randomize:
            highs = np.concatenate([highs, self._section_highs])
        uses = self.N if self.kind != "pure" else 0  # the noise doubles
        ints = np.empty((count, highs.size), dtype=np.int64)
        doubles = np.empty((count, uses + self._draws))
        for row, t in enumerate(trials):
            rng = np.random.default_rng([seed, t])
            ints[row] = rng.integers(highs)
            doubles[row] = rng.random(uses + self._draws)
        positions, members = ints[:, : self.N], ints[:, self.N :]
        noise, uniforms = (doubles[:, :uses] if uses else None), doubles[:, uses:]
        steps = np.arange(self.N)
        if randomize:
            lifts = self._lookup[steps[:, None], np.arange(q), members[:, self._section_at]]
        else:
            lifts = np.broadcast_to(self._plan_lifts, (count, self.N, q))
        u = np.take_along_axis(lifts, positions[:, :, None], axis=2)[:, :, 0]
        codewords, _ = polar_encode_indices(self.group, u)
        truth = self._lookup[steps, positions, 0]
        return truth, lifts, self._received(codewords, noise), uniforms

    # -- conditional states and POVMs ---------------------------------------------------
    def conditional_states(self, i: int, prefix: tuple):
        """The candidate states rho-bar_{coset, prefix} at step i, per coset.

        Each is the uniform mixture, over the coset's members v, of the branch
        of W^s(v), s = ``faced``, whose label the prefix names.  That label
        follows the last transform, which pairs two copies of W^{s[:-1]}: copy
        A decided the sum lanes prefix[2j] + prefix[2j+1], copy B the pass
        lanes prefix[2j+1]; each copy's label (this map, one level down) is
        replaced by its position in W^{s[:-1]}'s ``label_positions``, and a
        plus transform appends the last decided input.  W^s stays cached until
        the step's POVMs are built.
        """
        if self.kind == "diagonal":
            raise StructuralError(
                "a diagonal plan has no quantum step states: its decoder steps are "
                "classical likelihoods of sampled outputs"
            )
        prefix = self._checked_prefix(i, prefix)
        d = self.plan.decisions[i]
        label = self._label(d.faced, prefix)
        outputs, weight = self._faced(d.faced).outputs, 1.0 / d.subgroup.order
        return batched_mixtures([
            [(weight, outputs[v].as_dict()[label][1]) for v in members]
            for members in self._members[i]
        ])

    def _checked_prefix(self, i: int, prefix) -> tuple:
        """``prefix`` as element indices; refused unless step i is in [0, N) and
        the prefix is i integers in [0, q)."""
        if not 0 <= i < self.N:
            raise StructuralError(f"step {i} is outside [0, {self.N}), the block's decode steps")
        q = self.group.order
        ints = all(isinstance(x, (int, np.integer)) and not isinstance(x, bool) for x in prefix)
        if len(prefix) != i or not (ints and all(0 <= x < q for x in prefix)):
            msg = f"decided prefix {tuple(prefix)!r} is not {i} element indices in [0, {q})"
            raise StructuralError(f"step {i}: {msg}")
        return tuple(int(x) for x in prefix)

    def _faced(self, signs: tuple):
        """W^signs from its cached parent, by ``polarize._child`` under the decoder's caps."""
        out = self._synthetic.get(signs)
        if out is None:
            out = self._synthetic[signs] = _child(self._faced(signs[:-1]), signs, self.caps)
        return out

    def _label(self, signs: tuple, fixed: tuple):
        """The label of W^signs that its block's decided inputs ``fixed`` name; memoized."""
        out = self._labels.get((signs, fixed))
        if out is None:
            parent, t, add = signs[:-1], len(fixed) // 2, self.group.add_index
            pos = self._faced(parent).label_positions()
            sums = tuple(add(fixed[2 * j], fixed[2 * j + 1]) for j in range(t))
            a, b = self._label(parent, sums), self._label(parent, fixed[1 : 2 * t : 2])
            out = (pos[a], pos[b]) + fixed[2 * t :]
            self._labels[(signs, fixed)] = out
        return out

    def step_povm_rep(self, i: int, prefix: tuple):
        """The cached step-i POVM of one decoded prefix, built if missing."""
        self._build_povms(i, [prefix])
        return self._povm_cache[(i, prefix)]

    def _build_povms(self, i: int, prefixes) -> None:
        """Cache the step-i POVMs of the prefixes not cached yet, in builder calls
        that each stack at most _BATCH_BYTES (at least one prefix): stacked
        components (pure) or densified candidates (mixed)."""
        missing = [p for p in prefixes if (i, p) not in self._povm_cache]
        if not missing:
            return
        pure = self.kind == "pure"
        build = _subspace_pgm if pure else _dense_pgm
        run, stacked = {}, 0  # (i, prefix) -> candidate states, and their stacked bytes
        for p in missing:
            sigmas = self.conditional_states(i, p)
            size = 16 * sigmas[0].dim * sum(s.rank_bound if pure else s.dim for s in sigmas)
            if run and stacked + size > _BATCH_BYTES:
                self._povm_cache.update(zip(run, build(list(run.values()))))
                run, stacked = {}, 0
            run[(i, p)], stacked = sigmas, stacked + size
        self._povm_cache.update(zip(run, build(list(run.values()))))
        self._synthetic.pop(self.plan.decisions[i].faced)

    # -- decoding ------------------------------------------------------------------------
    def decode(self, received: JointOutputState, seed) -> tuple:
        """Decode one received system: the decoded message and its trace.

        The generator ends up having drawn one double per step with more than
        one coset that the decoder reached.
        """
        rng = np.random.default_rng(seed) if not hasattr(seed, "integers") else seed
        lifts = self._lifts(received.sections)[None]
        drawn_from = rng.bit_generator.state
        picks, p_step, fail_at, used = self._decode_batch(
            [received.data], lifts, rng.random(self._draws)[None]
        )
        if used[0] < self._draws:  # a failed trial draws only for the steps it reached
            rng.bit_generator.state = drawn_from
            rng.random(int(used[0]))
        stop = int(fail_at[0])
        return self._trace(
            received, picks[0, :stop].tolist(), p_step[0, :stop].tolist(), stop < self.N
        )

    def _step_object(self, data):
        """The step object that holds a batch's received data."""
        if self.kind == "diagonal":
            return _Likelihoods(self.group, self.table, data, self._coset_sums)
        return _QuantumTrials(self, data)

    def _decode_batch(self, data, lifts, uniforms):
        """Successive cancellation over a batch of trials, for every kind.

        ``data`` holds each trial's received data (sampled outputs or a state
        vector), ``lifts`` (trials, N, q) each trial's section values (see
        ``_lifts``) and ``uniforms`` (trials, draws) the doubles its picks
        consume, one per step with more than one coset: the pick is
        searchsorted(cdf, u, "right"), as in ``Generator.choice``.
        Returns the picked coset positions and their probabilities, both
        (trials, N), per trial the step at which its evidence vanished or its
        state collapsed (N when neither happened), and the doubles it used
        before then.
        """
        trials = len(data)
        rows = np.arange(trials)
        step = self._step_object(data)
        picks = np.zeros((trials, self.N), dtype=np.int64)
        p_step = np.ones((trials, self.N))
        fail_at = np.full(trials, self.N)
        used = np.full(trials, self._draws)
        draw = 0
        for i, cells in enumerate(self._cells):
            if len(cells) > 1:
                probs = step.probabilities(i)
                total = probs.sum(axis=1)
                dead = ~(total > _SURVIVAL_FLOOR)
                new = dead & (fail_at == self.N)
                fail_at[new], used[new] = i, draw
                probs[dead], total[dead] = 1.0, len(cells)  # a placeholder draw, never counted
                probs /= total[:, None]
                cdf = np.cumsum(probs, axis=1)
                cdf /= cdf[:, -1:]
                picks[:, i] = np.sum(cdf <= uniforms[:, draw, None], axis=1)
                p_step[:, i] = probs[rows, picks[:, i]]
                draw += 1
                lost = step.collapse(picks[:, i], fail_at < self.N)
                fail_at[lost], used[lost] = i, draw
            step.fix(i, lifts[rows, i, picks[:, i]])
        return picks, p_step, fail_at, used

    def _trace(self, received: JointOutputState, picks, p_steps, failed: bool) -> tuple:
        """The decoded message and the trace of the steps taken before any failure."""
        trace = DecodeTrace(failed=failed)
        survival = 1.0
        decoded = []
        for d, cells, pick, p_step in zip(self.plan.decisions, self._cells, picks, p_steps):
            survival *= p_step
            coset = cells[pick]
            decoded.append(coset)
            trace.steps.append(StepRecord(d.branch, coset.rep_index, p_step, survival))
        message = MessageVector(decoded)
        if received.message is not None and not failed:
            trace.success = all(
                a.rep_index == b.rep_index
                for a, b in zip(message.cosets, received.message.cosets)
            )
        return message, trace


# -- public operations ------------------------------------------------------------------


def step_povm(plan: CodePlan, i, decoded_prefix, channel: CqChannel = None) -> Povm:
    """The step-i POVM over G/H_s given a decoded prefix of lifted symbols.

    ``i`` may be a decode position or a branch label of n signs; the returned
    dense POVM is block-complete (effects sum to the identity).
    """
    if isinstance(i, tuple):
        n = plan.params.n
        if len(i) != n or any(s not in (MINUS, PLUS) for s in i):
            raise StructuralError(f"branch label {i!r} is not {n} signs from {{-, +}}")
        i = decode_index(i)
    engine = SCDecoder(plan, channel)
    prefix = engine._checked_prefix(i, [getattr(x, "index", x) for x in decoded_prefix])
    if len(engine._cells[i]) == 1:
        dim = engine.channel.k**engine.N
        return Povm([np.eye(dim, dtype=complex)])
    return engine.step_povm_rep(i, prefix).to_povm()


def decode(plan: CodePlan, received: JointOutputState, seed, channel: CqChannel = None):
    """One-shot decode; prefer SCDecoder for repeated use."""
    return SCDecoder(plan, channel).decode(received, seed)


def error_experiment(
    W: CqChannel,
    plan: CodePlan,
    trials: int,
    seed: int,
    caps: ResourceCaps = None,
    randomize_sections: bool = True,
) -> dict:
    """Monte-Carlo block-error estimation against the plan's bound.

    Messages are uniform; section mappings are redrawn per trial (matching
    the averaged analysis) unless randomize_sections is False.  Trial t draws
    from its own generator, ``default_rng([seed, t])``, in two vectorized
    calls:

    - ``integers(bounds)``: first one bound per step, the coset counts, for
      its message's coset position at every step; then (random sections only)
      one bound per coset of every step, its subgroup's order, for the member
      each coset's section picks;
    - ``random(uses + draws)``: first the channel noise, one double per use
      (classical and mixed channels); then the doubles its decoding may use, one
      per step with more than one coset.

    A generator keeps its leftover 32 random bits in its bit generator, so a
    call over concatenated bounds or lengths draws what separate calls would:
    these are the draws of ``random_message``, one ``random_section_map`` per
    step, ``SCDecoder.transmit`` and ``SCDecoder.decode`` in turn.  Each batch
    of trials is then lifted, encoded and transmitted as arrays and decoded
    together.  A batch holds at most _BATCH_BYTES of received data (at least
    one trial), and the results are those of running the trials one by one.
    """
    if trials < 1:
        raise StructuralError(f"an experiment needs at least one trial, got {trials}")
    engine = SCDecoder(plan, W, caps)
    N = plan.block_length
    truth = np.zeros((trials, N), dtype=np.int64)  # coset representatives sent
    decoded = np.zeros((trials, N), dtype=np.int64)
    failed = np.zeros(trials, dtype=bool)
    per_batch = int(min(trials, max(1, np.ceil(_BATCH_BYTES / engine._trial_bytes()))))
    for start in range(0, trials, per_batch):
        done = slice(start, min(start + per_batch, trials))
        truth[done], lifts, data, uniforms = engine._trial_batch(
            seed, range(trials)[done], randomize_sections
        )
        picks, _, fail_at, _ = engine._decode_batch(data, lifts, uniforms)
        decoded[done] = engine._lookup[np.arange(N), picks, 0]
        failed[done] = fail_at < N
    return _experiment_report(plan, truth, decoded, failed)


def _experiment_report(plan: CodePlan, truth, decoded, failed) -> dict:
    """The report of an experiment from its trials' sent and decoded representatives.

    ``truth`` and ``decoded`` are (trials, N) coset representatives per step;
    ``failed`` (trials,) flags the trials whose decoding failed.
    """
    trials, N = truth.shape
    bad = (decoded != truth) & ~failed[:, None]
    wrong = bad.any(axis=1)
    n_fail = int(failed.sum())
    n_err = n_fail + int(wrong.sum())
    first_error = np.bincount(bad[wrong].argmax(axis=1), minlength=N).astype(float)
    mismatch = bad.sum(axis=0).astype(float)
    p_hat = n_err / trials
    lo1, hi1 = (float(v) for v in _wilson(p_hat, trials, 1.0))
    lo3, hi3 = (float(v) for v in _wilson(p_hat, trials, 3.0))
    sigma = (hi1 - lo1) / 2.0
    return {
        "trials": trials,
        "errors": n_err,
        "decode_failures": n_fail,
        "block_error": p_hat,
        "wilson_1sigma": [lo1, hi1],
        "wilson_3sigma": [lo3, hi3],
        "wilson_sigma": sigma,
        "bound": float(plan.bound),
        "bound_holds_within_3sigma": bool(p_hat <= plan.bound + 3.0 * sigma),
        "rate_nats": float(plan.rate),
        "first_error_profile": (first_error / trials).tolist(),
        "step_mismatch_profile": (mismatch / trials).tolist(),
        "step_branches": [format_label(d.branch) for d in plan.decisions],
    }
