"""Independent reference implementations used as test oracles.

Everything here is deliberately written with different data structures and
code paths from the package (dicts and explicit loops instead of arrays and
einsum), so agreement is evidence rather than tautology.  The helpers at the
end are the tests' own conveniences, which the package does not use.
"""

import itertools
import math

import numpy as np

from cqpolar.channel import CqChannel, HybridState, _average_hybrid
from cqpolar.codes import random_message
from cqpolar.decoder import SCDecoder, _experiment_report
from cqpolar.diagonal import _MERGE_DECIMALS
from cqpolar.errors import StructuralError
from cqpolar.groups import FiniteAbelianGroup, random_section_map
from cqpolar.linalg import entropy_of_probs, hermitize


def mutual_information_table(table) -> float:
    """I(X;Y) in nats for uniform X and likelihood rows table[x][y]."""
    table = np.asarray(table, dtype=float)
    q, m = table.shape
    total = 0.0
    for y in range(m):
        p_y = sum(table[x][y] for x in range(q)) / q
        if p_y <= 0.0:
            continue
        for x in range(q):
            joint = table[x][y] / q
            if joint > 0.0:
                # p(x) = 1/q, so the log-ratio is joint / (p_y / q)
                total += joint * math.log(joint / (p_y / q))
    return total


def bhattacharyya(a, b) -> float:
    return float(sum(math.sqrt(x * y) for x, y in zip(a, b)))


def classical_fd(table, add, q, d) -> float:
    return sum(bhattacharyya(table[add(x, d)], table[x]) for x in range(q)) / q


def classical_minus(table, add, q):
    """Joint table of the worse half, outputs (y1, y2), no merging."""
    table = np.asarray(table, dtype=float)
    m = table.shape[1]
    out = np.zeros((q, m * m))
    for u1 in range(q):
        for u2 in range(q):
            for y1 in range(m):
                for y2 in range(m):
                    out[u1][y1 * m + y2] += table[add(u1, u2)][y1] * table[u2][y2] / q
    return out


def classical_plus(table, add, q):
    """Joint table of the better half, outputs (y1, y2, u1), no merging."""
    table = np.asarray(table, dtype=float)
    m = table.shape[1]
    out = np.zeros((q, m * m * q))
    for u2 in range(q):
        for u1 in range(q):
            for y1 in range(m):
                for y2 in range(m):
                    out[u2][(y1 * m + y2) * q + u1] += (
                        table[add(u1, u2)][y1] * table[u2][y2] / q
                    )
    return out


def merge_columns_unique(table, decimals=_MERGE_DECIMALS):
    """Reference for diagonal.merge_columns, grouped with np.unique(axis=1).

    Same keys as the package (posteriors rounded to _MERGE_DECIMALS), but the
    columns are sorted whole, as records.  Groups come out in the same order
    and np.add.at sums each in column order, so the package must match this
    bit for bit.  With ``decimals=None`` the posteriors are not rounded: only
    columns with float-equal posteriors merge, which leaves every functional
    exact up to summation order.
    """
    table = np.asarray(table, dtype=float)
    sums = table.sum(axis=0)
    keep = sums > 0.0
    table, sums = table[:, keep], sums[keep]
    if table.shape[1] == 0:
        raise StructuralError("channel has no outputs with positive probability")
    posteriors = table / sums
    if decimals is not None:
        posteriors = np.round(posteriors, decimals)
    _, inverse = np.unique(posteriors, axis=1, return_inverse=True)
    merged = np.zeros((table.shape[0], int(inverse.max()) + 1))
    np.add.at(merged.T, inverse, table.T)
    return merged


def bec_erasure(signs, eps: float) -> float:
    """Closed-form erasure-probability recursion for the erasure channel."""
    for s in signs:
        eps = 2 * eps - eps * eps if s == "-" else eps * eps
    return eps


class BinaryDictChannel:
    """A binary-input channel as {output key: (p0, p1)}, merged by posterior."""

    def __init__(self, likelihoods):
        self.lik = dict(likelihoods)

    @staticmethod
    def bsc(p: float) -> "BinaryDictChannel":
        return BinaryDictChannel({"same": (1 - p, p), "flip": (p, 1 - p)})

    def merged(self) -> "BinaryDictChannel":
        pooled = {}
        for (p0, p1) in self.lik.values():
            tot = p0 + p1
            if tot <= 0.0:
                continue
            key = round(p0 / tot, 11)
            acc = pooled.setdefault(key, [0.0, 0.0])
            acc[0] += p0
            acc[1] += p1
        return BinaryDictChannel({k: tuple(v) for k, v in pooled.items()})

    def minus(self) -> "BinaryDictChannel":
        out = {}
        items = list(self.lik.items())
        for k1, (a0, a1) in items:
            for k2, (b0, b1) in items:
                # u1 = 0: (x1, x2) in {(0,0),(1,1)}; u1 = 1: {(1,0),(0,1)}
                out[(k1, k2)] = (
                    0.5 * (a0 * b0 + a1 * b1),
                    0.5 * (a1 * b0 + a0 * b1),
                )
        return BinaryDictChannel(out).merged()

    def plus(self) -> "BinaryDictChannel":
        out = {}
        items = list(self.lik.items())
        for k1, (a0, a1) in items:
            for k2, (b0, b1) in items:
                out[(k1, k2, 0)] = (0.5 * a0 * b0, 0.5 * a1 * b1)
                out[(k1, k2, 1)] = (0.5 * a1 * b0, 0.5 * a0 * b1)
        return BinaryDictChannel(out).merged()

    def transformed(self, signs) -> "BinaryDictChannel":
        ch = self
        for s in signs:
            ch = ch.minus() if s == "-" else ch.plus()
        return ch

    def mutual_information(self) -> float:
        total = 0.0
        for p0, p1 in self.lik.values():
            py = (p0 + p1) / 2
            for px in (p0, p1):
                joint = px / 2
                if joint > 0.0:
                    total += joint * math.log(joint / (py / 2))
        return total

    def fidelity(self) -> float:
        return sum(math.sqrt(p0 * p1) for p0, p1 in self.lik.values())


def helstrom_pure(overlap: float) -> float:
    return 0.5 * (1.0 - math.sqrt(1.0 - overlap * overlap))


def sc_posteriors_bruteforce(table, add, encode, N, q, y, prefix, members_per_cell):
    """Step posterior over cells by enumerating every message completion."""
    i = len(prefix)
    weights = []
    for members in members_per_cell:
        w = 0.0
        for v in members:
            for suffix in itertools.product(range(q), repeat=N - 1 - i):
                u = list(prefix) + [v] + list(suffix)
                x = encode(u)
                like = 1.0
                for t in range(N):
                    like *= table[x[t]][y[t]]
                w += like
        weights.append(w)
    total = sum(weights)
    return [w / total for w in weights]


def qary_symmetric_information(q: int, p: float) -> float:
    """ln q - h(p) - p ln(q-1), in nats."""
    h = 0.0
    if 0.0 < p < 1.0:
        h = -(1 - p) * math.log(1 - p) - p * math.log(p)
    return math.log(q) - h - p * math.log(q - 1)


def qary_symmetric_pair_fidelity(q: int, p: float) -> float:
    """Bhattacharyya overlap of two distinct rows of the symmetric channel."""
    if q == 2:
        return 2 * math.sqrt(p * (1 - p))
    err = p / (q - 1)
    return 2 * math.sqrt((1 - p) * err) + (q - 2) * err


def residue_vectors(orders):
    """Elements of Z_{n1} x ... x Z_{nk} in index order (first factor most significant)."""
    return list(itertools.product(*(range(n) for n in orders)))


def residue_add(orders, a, b):
    return tuple((x + y) % n for x, y, n in zip(a, b, orders))


def coset_partition(orders, subgroup_indices):
    """Cosets of a subgroup as sorted index lists, by a seen-set loop over residues.

    The first unseen element of each coset is its smallest, so the cosets come
    out ordered by representative.
    """
    residues = residue_vectors(orders)
    index = {r: i for i, r in enumerate(residues)}
    seen, cells = set(), []
    for i, x in enumerate(residues):
        if i in seen:
            continue
        cell = sorted(index[residue_add(orders, x, residues[h])] for h in subgroup_indices)
        seen.update(cell)
        cells.append(cell)
    return cells


def polar_encode_recursive(add_table, u):
    """The butterfly encoder as a recursion over halves: (codeword, additions)."""
    u = np.asarray(u, dtype=np.int64)
    if u.size == 1:
        return u, 0
    sums, sum_adds = polar_encode_recursive(add_table, add_table[u[0::2], u[1::2]])
    passed, pass_adds = polar_encode_recursive(add_table, add_table[u[1::2], 0])
    return np.concatenate([sums, passed]), u.size + sum_adds + pass_adds


def conditional_states_bruteforce(leaves, add_table, n, prefix, members_per_cell):
    """The step-i candidate density matrices, one per cell, by enumerating words.

    ``leaves[x]`` is the density matrix input x sends.  A cell's state averages,
    uniformly over its members v and over every later input word, the np.kron
    chain of the codeword that polar_encode_recursive encodes from
    prefix + (v,) + the later inputs.
    """
    q, later = len(leaves), (1 << n) - 1 - len(prefix)
    out = []
    for members in members_per_cell:
        total, count = 0.0, 0
        for v in members:
            for suffix in itertools.product(range(q), repeat=later):
                word, _ = polar_encode_recursive(add_table, list(prefix) + [v] + list(suffix))
                rho = np.ones((1, 1), dtype=complex)
                for x in word:
                    rho = np.kron(rho, leaves[x])
                total, count = total + rho, count + 1
        out.append(total / count)
    return out


def sc_pick_distribution(rho, step_effects, lifts) -> dict:
    """The exact probability of every pick sequence of SC decoding a density matrix.

    ``step_effects(i, prefix)`` gives step i's POVM effects as dense matrices,
    given the decided prefix (a single-coset step has the identity alone), and
    ``lifts[i][c]`` is the value step i decides when it picks outcome c.  Each
    branch of the enumeration applies sqrt(E) . sqrt(E) of its outcome to the
    unnormalised state, so a sequence's probability is its final trace.
    Returns {picks: probability}, with every sequence of nonzero probability.
    """
    out = {}

    def walk(i, sigma, prefix, picks):
        if i == len(lifts):
            out[picks] = float(np.trace(sigma).real)
            return
        for c, effect in enumerate(step_effects(i, prefix)):
            vals, vecs = np.linalg.eigh(hermitize(effect))
            root = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T
            post = root @ sigma @ root
            if np.trace(post).real > 0.0:
                walk(i + 1, post, prefix + (int(lifts[i][c]),), picks + (c,))

    walk(0, np.asarray(rho, dtype=complex), (), ())
    return out


def experiment_one_trial_at_a_time(W, plan, trials, seed, randomize_sections=True) -> dict:
    """decoder.error_experiment as a loop of single trials through the public calls.

    Trial t runs random_message, random_section_map per decision (random
    sections only), SCDecoder.transmit and SCDecoder.decode, all on its own
    generator default_rng([seed, t]); the report is built from what decode
    returned.
    """
    engine = SCDecoder(plan, W)
    truth = np.zeros((trials, plan.block_length), dtype=np.int64)
    decoded = np.zeros_like(truth)
    failed = np.zeros(trials, dtype=bool)
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        message = random_message(plan, rng)
        sections = None
        if randomize_sections:
            sections = [random_section_map(d.subgroup, rng) for d in plan.decisions]
        estimate, trace = engine.decode(engine.transmit(message, rng, sections), rng)
        truth[t] = [c.rep_index for c in message.cosets]
        decoded[t, : len(estimate)] = [c.rep_index for c in estimate.cosets]
        failed[t] = trace.failed
    return _experiment_report(plan, truth, decoded, failed)


def subset_information_direct(mac, users) -> float:
    """I(X_S; B X_{S^c}) of a MAC evaluated as an average of restricted channels.

    The other users' residues are fixed coordinate by coordinate and the
    channel of the free coordinates is built from residue vectors, without the
    package's user subgroups, cosets or quotients.
    """
    users = set(users)
    if not users:
        return 0.0
    g = mac.group
    owner = [u for u, orders in enumerate(mac.user_orders) for _ in orders]
    fixed_coords = [c for c, u in enumerate(owner) if u not in users]
    free_coords = [c for c, u in enumerate(owner) if u in users]
    free_group = FiniteAbelianGroup([g.cyclic_orders[c] for c in free_coords])
    values = []
    fixed_space = FiniteAbelianGroup([g.cyclic_orders[c] for c in fixed_coords])
    for fixed in range(fixed_space.order):
        fres = fixed_space.label_of(fixed)
        outputs = []
        for xs in range(free_group.order):
            res = [0] * len(g.cyclic_orders)
            for c, r in zip(free_coords, free_group.label_of(xs)):
                res[c] = r
            for c, r in zip(fixed_coords, fres):
                res[c] = r
            outputs.append(mac.channel.outputs[g.element(res).index])
        values.append(CqChannel(free_group, outputs).holevo_information())
    return float(np.mean(values))


# -- test-only helpers ---------------------------------------------------------------


def state_entropy(state) -> float:
    """von Neumann entropy in nats of a mixture, from the spectrum of its Gram matrix."""
    v = state.scaled_components()
    vals = np.clip(np.linalg.eigvalsh(hermitize(v @ v.conj().T)), 0.0, None)
    return entropy_of_probs(vals)


def average_output(W) -> HybridState:
    """The average output (1/q) sum_x W(x) of a hybrid channel."""
    return _average_hybrid(W.outputs)


def scan_conservation_defect(records, base_I: float, n: int) -> float:
    """|sum_s I(W^s) - 2^n I(W)|; the total information is conserved."""
    return abs(sum(r.I for r in records) - (1 << n) * base_I)


def intermediate_fraction(records, log_q: float, delta: float) -> float:
    """Fraction of branches with I in (delta, log q - delta)."""
    inside = [r for r in records if delta < r.I < log_q - delta]
    return len(inside) / len(records)


def codeword_elements(plan, codeword) -> list:
    """A codeword's element indices as group elements."""
    return [plan.group.element_by_index(int(i)) for i in codeword]
