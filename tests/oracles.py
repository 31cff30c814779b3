"""Independent reference implementations used as test oracles.

Everything here is deliberately written with different data structures and
code paths from the package (dicts and explicit loops instead of arrays and
einsum), so agreement is evidence rather than tautology.
"""

import itertools
import math

import numpy as np

from cqpolar.diagonal import _MERGE_DECIMALS
from cqpolar.errors import StructuralError


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


def merge_columns_unique(table):
    """Reference for diagonal.merge_columns, grouped with np.unique(axis=1).

    Same keys as the package (posteriors rounded to _MERGE_DECIMALS), but the
    columns are sorted whole, as records.  Groups come out in the same order
    and np.add.at sums each in column order, so the package must match this
    bit for bit.
    """
    table = np.asarray(table, dtype=float)
    sums = table.sum(axis=0)
    keep = sums > 0.0
    table, sums = table[:, keep], sums[keep]
    if table.shape[1] == 0:
        raise StructuralError("channel has no outputs with positive probability")
    posteriors = np.round(table / sums, _MERGE_DECIMALS)
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
