"""Two-block stochastic block model with the edge probabilities integrated out.

Labels live in {1,2}^p with a flat prior; integrating the uniform block
rates leaves a product of Beta integrals over the three unordered block
pairs, so the collapsed log posterior needs only pair counts and edge
counts.  Both are maintained incrementally under single-node flips through
per-node degree-into-block tallies, and a vectorized scan evaluates all p
flips at once for informed proposals.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

from .core import DiscreteTarget, Flips, InvalidInit, philox_rng

BLOCKS = (1, 2)  # two communities; counts are stored per unordered block pair


@dataclass(frozen=True)
class SbmData:
    """Symmetric 0/1 adjacency with a zero diagonal, plus a float32 copy for
    the mat-vecs that count edges (sums of 0/1 below 2^24 are exact)."""

    adjacency: np.ndarray
    p: int
    adjacency_f32: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        adj = np.asarray(self.adjacency)
        object.__setattr__(self, "adjacency", adj.astype(np.uint8))
        object.__setattr__(self, "adjacency_f32", adj.astype(np.float32))
        if adj.shape != (self.p, self.p):
            raise ValueError("adjacency must be p x p")
        if (adj != adj.T).any():
            raise ValueError("adjacency must be symmetric")
        if np.diag(adj).any():
            raise ValueError("adjacency must have a zero diagonal")

    @staticmethod
    def from_adjacency(adj: np.ndarray) -> "SbmData":
        adj = np.asarray(adj)
        return SbmData(adjacency=adj, p=adj.shape[0])


def _pair_count(c: int) -> int:
    return c * (c - 1) // 2


@dataclass(frozen=True)
class BlockCounts:
    """Block sizes, pair/edge counts and degree-into-block tallies.

    ``n_pairs``/``m_edges`` are keyed (1,1), (1,2), (2,2).  ``tallies`` has
    shape (p, 2): neighbors of each node inside block 1 and block 2.  The
    counts reconstruct exactly from adjacency plus labels.
    """

    data: SbmData
    sizes: tuple
    m_edges: tuple
    tallies: np.ndarray

    @property
    def n_pairs(self) -> tuple:
        c1, c2 = self.sizes
        return (_pair_count(c1), c1 * c2, _pair_count(c2))

    @staticmethod
    def from_labels(data: SbmData, z) -> "BlockCounts":
        in1 = np.asarray(z) == 1
        d1 = (data.adjacency_f32 @ in1.astype(np.float32)).astype(np.int64)
        d2 = (data.adjacency_f32 @ (~in1).astype(np.float32)).astype(np.int64)
        c1 = int(in1.sum())
        m11 = int(d1[in1].sum()) // 2
        m22 = int(d2[~in1].sum()) // 2
        m12 = int(d2[in1].sum())
        return BlockCounts(
            data=data,
            sizes=(c1, data.p - c1),
            m_edges=(m11, m12, m22),
            tallies=np.stack([d1, d2], axis=1),
        )

    def log_posterior(self) -> float:
        n_uv, m_uv = np.array(self.n_pairs), np.array(self.m_edges)
        terms = gammaln(m_uv + 1) + gammaln(n_uv - m_uv + 1) - gammaln(n_uv + 2)
        # combine the two within-block terms first so that swapping the block
        # labels gives bit-identical results
        return float((terms[0] + terms[2]) + terms[1])

    def flip(self, z, j: int) -> "BlockCounts":
        return flip_update(self, z, j)

    def flip_log_pis(self, z) -> np.ndarray:
        """Log posteriors of all p single-flip neighbors of ``z``, from the
        node tallies in one vectorized pass."""
        p = self.data.p
        c1 = self.sizes[0]
        m11, m12, m22 = self.m_edges
        d1, d2 = self.tallies[:, 0], self.tallies[:, 1]
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

    The pair and edge counts move by the node's tallies in O(1); tally
    maintenance touches only the node's neighbors.
    """
    data = counts.data
    m11, m12, m22 = counts.m_edges
    c1, c2 = counts.sizes
    d1 = int(counts.tallies[j, 0])
    d2 = int(counts.tallies[j, 1])
    if z[j] == 1:
        c1 -= 1
        m11, m12, m22 = m11 - d1, m12 + d1 - d2, m22 + d2
        old_col, new_col = 0, 1
    else:
        c1 += 1
        m11, m12, m22 = m11 + d1, m12 - d1 + d2, m22 - d2
        old_col, new_col = 1, 0
    tallies = counts.tallies.copy()
    nbr = np.flatnonzero(data.adjacency[j])
    tallies[nbr, old_col] -= 1
    tallies[nbr, new_col] += 1
    return BlockCounts(
        data=data,
        sizes=(c1, data.p - c1),
        m_edges=(m11, m12, m22),
        tallies=tallies,
    )


def flip_neighbors(z) -> Flips:
    return Flips(z, np.arange(len(z)), 3)


def sbm_target(data: SbmData, name: str = "") -> DiscreteTarget:
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
    same = np.equal.outer(z_star, z_star)
    rates = np.where(same, p_within, p_between)
    upper = np.triu(rng.random((p, p)) < rates, k=1)
    adjacency = (upper | upper.T).astype(np.uint8)
    return SbmData(adjacency=adjacency, p=p), z_star


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
