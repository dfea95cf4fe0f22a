"""Two-block stochastic block model with the edge probabilities integrated out.

Labels live in {1,2}^p with a flat prior; integrating the uniform block
rates leaves a product of Beta integrals over the three unordered block
pairs, so the collapsed log posterior needs only pair counts and edge
counts.  Both are maintained incrementally under single-node flips through
one per-node tally, each node's neighbours in block 1 (its neighbours in
block 2 are its degree less that), and a vectorized scan evaluates all p
flips at once for informed proposals.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

from .core import DiscreteMHError, DiscreteTarget, Flips, InvalidInit, philox_rng

BLOCKS = (1, 2)  # two communities; counts are stored per unordered block pair


class InvalidGraph(DiscreteMHError):
    """An adjacency that is not a square, symmetric 0/1 matrix with a zero
    diagonal."""


@dataclass(frozen=True)
class SbmData:
    """Symmetric 0/1 adjacency with a zero diagonal, plus a float32 copy for
    the mat-vec that counts edges (sums of 0/1 below 2^24 are exact) and
    the int64 node degrees."""

    adjacency: np.ndarray
    p: int
    adjacency_f32: np.ndarray = field(init=False, repr=False, compare=False)
    degrees: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        given = np.asarray(self.adjacency)
        if given.shape != (self.p, self.p):
            raise InvalidGraph(f"adjacency must be p x p, got shape {given.shape} for p={self.p}")
        if ((given != 0) & (given != 1)).any():
            raise InvalidGraph("adjacency entries must be 0 or 1")
        adj = given.astype(np.uint8)
        if (adj != adj.T).any():
            raise InvalidGraph("adjacency must be symmetric")
        if adj.diagonal().any():
            raise InvalidGraph("adjacency must have a zero diagonal")
        object.__setattr__(self, "adjacency", adj)
        object.__setattr__(self, "adjacency_f32", adj.astype(np.float32))
        object.__setattr__(self, "degrees", adj.sum(axis=1, dtype=np.int64))

    @staticmethod
    def from_adjacency(adj: np.ndarray) -> "SbmData":
        adj = np.asarray(adj)
        return SbmData(adjacency=adj, p=adj.shape[0])


def _pair_count(c: int) -> int:
    return c * (c - 1) // 2


@dataclass(frozen=True)
class BlockCounts:
    """Block sizes, pair/edge counts and each node's neighbours in block 1.

    ``n_pairs``/``m_edges`` are keyed (1,1), (1,2), (2,2).  ``d1`` is the
    int64 vector of neighbours in block 1; a node's neighbours in block 2
    are ``data.degrees - d1``, and ``tallies`` stacks the two as a (p, 2)
    array.  The counts reconstruct exactly from adjacency plus labels.
    """

    data: SbmData
    sizes: tuple
    m_edges: tuple
    d1: np.ndarray

    @property
    def n_pairs(self) -> tuple:
        c1, c2 = self.sizes
        return (_pair_count(c1), c1 * c2, _pair_count(c2))

    @property
    def tallies(self) -> np.ndarray:
        """(p, 2) int64: each node's neighbours in block 1 and in block 2."""
        return np.stack([self.d1, self.data.degrees - self.d1], axis=1)

    @staticmethod
    def from_labels(data: SbmData, z) -> "BlockCounts":
        in1 = np.asarray(z) == 1
        d1 = (data.adjacency_f32 @ in1.astype(np.float32)).astype(np.int64)
        c1 = int(in1.sum())
        into1 = int(d1[in1].sum())  # edge ends inside block 1, each edge twice
        m12 = int(d1.sum()) - into1  # block-2 nodes' neighbours in block 1
        m11 = into1 // 2
        m22 = int(data.degrees.sum()) // 2 - m11 - m12
        return BlockCounts(data=data, sizes=(c1, data.p - c1), m_edges=(m11, m12, m22), d1=d1)

    def log_posterior(self) -> float:
        n11, n12, n22 = self.n_pairs
        m11, m12, m22 = self.m_edges
        g = gammaln(np.array([m11 + 1, n11 - m11 + 1, n11 + 2,
                              m12 + 1, n12 - m12 + 1, n12 + 2,
                              m22 + 1, n22 - m22 + 1, n22 + 2], dtype=float)).tolist()
        t11 = g[0] + g[1] - g[2]
        t12 = g[3] + g[4] - g[5]
        t22 = g[6] + g[7] - g[8]
        # combine the two within-block terms first so that swapping the block
        # labels gives bit-identical results
        return (t11 + t22) + t12

    def flip(self, z, j: int) -> "BlockCounts":
        return flip_update(self, z, j)

    def flip_log_pis(self, z) -> np.ndarray:
        """Log posteriors of all p single-flip neighbors of ``z``, from the
        node tallies in one vectorized pass."""
        p = self.data.p
        c1 = self.sizes[0]
        m11, m12, m22 = self.m_edges
        d1 = self.d1
        d2 = self.data.degrees - d1
        to2 = np.array(z) == 1  # nodes currently in block 1
        c1_new = np.where(to2, c1 - 1, c1 + 1)
        c2_new = p - c1_new
        m11_new = np.where(to2, m11 - d1, m11 + d1)
        m12_new = np.where(to2, m12 + d1 - d2, m12 - d1 + d2)
        m22_new = np.where(to2, m22 + d2, m22 - d2)
        n11_new = c1_new * (c1_new - 1) // 2
        n12_new = c1_new * c2_new
        n22_new = c2_new * (c2_new - 1) // 2

        def beta_term(n_uv, m_uv):
            return gammaln(m_uv + 1) + gammaln(n_uv - m_uv + 1) - gammaln(n_uv + 2)

        return (beta_term(n11_new, m11_new) + beta_term(n22_new, m22_new)) + beta_term(
            n12_new, m12_new
        )


def log_posterior_sbm(data: SbmData, z) -> float:
    """Collapsed log posterior of a label assignment (flat label prior)."""
    return BlockCounts.from_labels(data, z).log_posterior()


def flip_update(counts: BlockCounts, z, j: int) -> BlockCounts:
    """Counts after node ``j`` switches blocks, given pre-flip labels ``z``.

    The pair and edge counts move by the node's tallies in O(1); the block-1
    tallies move by the node's adjacency row, one vectorized add.
    """
    data = counts.data
    m11, m12, m22 = counts.m_edges
    c1 = counts.sizes[0]
    d1 = int(counts.d1[j])
    d2 = int(data.degrees[j]) - d1
    if z[j] == 1:
        c1 -= 1
        m11, m12, m22 = m11 - d1, m12 + d1 - d2, m22 + d2
        d1_after = counts.d1 - data.adjacency[j]
    else:
        c1 += 1
        m11, m12, m22 = m11 + d1, m12 - d1 + d2, m22 - d2
        d1_after = counts.d1 + data.adjacency[j]
    return BlockCounts(
        data=data,
        sizes=(c1, data.p - c1),
        m_edges=(m11, m12, m22),
        d1=d1_after,
    )


def sbm_target(data: SbmData, name: str = "") -> DiscreteTarget:
    coords = np.arange(data.p)  # every node flips; one read-only array serves all states
    coords.flags.writeable = False

    def flip_neighbors(z) -> Flips:
        return Flips(z, coords, 3)

    def stats_at(z):
        return BlockCounts.from_labels(data, z)

    return DiscreteTarget(
        log_pi=lambda z: log_posterior_sbm(data, z),
        neighbors=flip_neighbors,
        seed_state=tuple([1] * data.p),
        name=name or f"sbm(p={data.p})",
        stats_at=stats_at,
    )


def label_switched(z) -> tuple:
    return tuple(3 - lab for lab in z)


def true_labels(p: int) -> tuple:
    """Planted assignment: the first ceil(p/2) nodes form block 1."""
    half = math.ceil(p / 2)
    return tuple(1 if j < half else 2 for j in range(p))


def generate_sbm(
    p: int, p_within: float, p_between: float, seed=0
) -> tuple[SbmData, tuple]:
    """Independent Bernoulli edges with block-dependent rates."""
    if not (0 <= p_within <= 1 and 0 <= p_between <= 1):
        raise ValueError("edge probabilities must lie in [0, 1]")
    rng = philox_rng(seed)
    z_star = true_labels(p)
    # block 1 is the first ceil(p/2) nodes: compare each block pair's
    # uniforms with its rate in place; the lower-left block lies below the
    # diagonal, which triu drops
    h = math.ceil(p / 2)
    u = rng.random((p, p))
    edge = np.empty((p, p), dtype=bool)
    np.less(u[:h, :h], p_within, out=edge[:h, :h])
    np.less(u[:h, h:], p_between, out=edge[:h, h:])
    np.less(u[h:, h:], p_within, out=edge[h:, h:])
    adjacency = np.triu(edge, k=1)
    adjacency |= adjacency.T
    return SbmData(adjacency=adjacency.view(np.uint8), p=p), z_star


def corrupt_labels(z_star, k: int, rng: np.random.Generator) -> tuple:
    """Flip a uniformly random size-k subset of the labels."""
    p = len(z_star)
    if not 0 <= k <= p:
        raise ValueError(f"k={k} out of range")
    z = list(z_star)
    if k:
        for j in rng.choice(p, size=k, replace=False):
            z[j] = 3 - z[j]
    return tuple(z)


def sbm_init(kind: str, z_star, rng: np.random.Generator) -> tuple:
    """Corrupt the planted labels: flip a random half or third of the nodes."""
    p = len(z_star)
    if p < 3:
        raise InvalidInit("need p >= 3")
    if kind == "half-wrong":
        k = p // 2
    elif kind == "third-wrong":
        k = p // 3
    else:
        raise InvalidInit(f"unknown init scheme {kind!r}")
    return corrupt_labels(z_star, k, rng)


def save_sbm(data: SbmData, path, seed=None, rates: tuple | None = None) -> None:
    """Edge-list CSV with a JSON header line."""
    header = {"p": data.p, "seed": seed, "rates": list(rates) if rates else None}
    rows = np.argwhere(np.triu(data.adjacency, k=1))
    with open(path, "w") as fh:
        fh.write("# " + json.dumps(header) + "\n")
        fh.write("i,j\n")
        for i, j in rows:
            fh.write(f"{i},{j}\n")


def load_sbm(path) -> SbmData:
    with open(path) as fh:
        header = json.loads(fh.readline().lstrip("# "))
        fh.readline()
        p = header["p"]
        adjacency = np.zeros((p, p), dtype=np.uint8)
        for line in fh:
            if not line.strip():
                continue
            i, j = map(int, line.split(","))
            adjacency[i, j] = adjacency[j, i] = 1
    return SbmData(adjacency=adjacency, p=p)
