"""Small table-driven targets for exact verification runs.

These spaces use integer states and explicit log-probability tables, so
every quantity (gaps, flows, drift rates) can be engineered: paths, stars
and trees with chosen uphill ratios are unimodal with known R and M, and
the bimodal builder plants a low-mass secondary mode behind a weak bridge
for warm-start analyses.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from discretemh.core import DiscreteTarget


def table_target(log_pis: dict, edges: list[tuple], name: str = "table") -> DiscreteTarget:
    """Target from an explicit state table and undirected edge list."""
    adjacency: dict = defaultdict(list)
    for a, b in edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    adjacency = {s: sorted(ns) for s, ns in adjacency.items()}
    missing = set(adjacency) - set(log_pis)
    if missing:
        raise ValueError(f"edges mention states without log_pi: {sorted(missing)}")
    seed = min(log_pis)
    return DiscreteTarget(
        log_pi=lambda s: log_pis.get(s, -np.inf),
        neighbors=lambda s: adjacency.get(s, []),
        seed_state=seed,
        name=name,
    )


def path_target(log_steps, name: str = "path") -> DiscreteTarget:
    """A line with the mode at state 0; log_steps are the downhill gaps."""
    log_pis = {0: 0.0}
    edges = []
    for i, step in enumerate(log_steps):
        log_pis[i + 1] = log_pis[i] - float(step)
        edges.append((i, i + 1))
    return table_target(log_pis, edges, name=name)


def star_target(log_drops, name: str = "star") -> DiscreteTarget:
    """A hub at state 0 with one leaf per drop; M is the leaf count."""
    log_pis = {0: 0.0}
    edges = []
    for i, drop in enumerate(log_drops):
        log_pis[i + 1] = -float(drop)
        edges.append((0, i + 1))
    return table_target(log_pis, edges, name=name)


def tree_target(parents, log_drops, name: str = "tree") -> DiscreteTarget:
    """Rooted tree, mode at the root; each node sits ``drop`` below its parent.

    ``parents[i]`` is the parent of state ``i + 1`` and must be a smaller
    index, so R is exactly exp(min drop) and M the maximum degree.
    """
    if len(parents) != len(log_drops):
        raise ValueError("parents and log_drops must align")
    log_pis = {0: 0.0}
    edges = []
    for i, (parent, drop) in enumerate(zip(parents, log_drops)):
        child = i + 1
        if not 0 <= parent < child:
            raise ValueError("parents must precede children")
        log_pis[child] = log_pis[parent] - float(drop)
        edges.append((parent, child))
    return table_target(log_pis, edges, name=name)


def random_tree_target(
    n_states: int,
    rng: np.random.Generator,
    min_log_ratio: float,
    max_log_ratio: float,
    max_children: int = 3,
    name: str = "random-tree",
) -> DiscreteTarget:
    """Random rooted tree with uphill log ratios in a chosen band."""
    parents = []
    child_counts = defaultdict(int)
    for child in range(1, n_states):
        candidates = [v for v in range(child) if child_counts[v] < max_children]
        parent = int(rng.choice(candidates))
        child_counts[parent] += 1
        parents.append(parent)
    drops = rng.uniform(min_log_ratio, max_log_ratio, size=n_states - 1)
    return tree_target(parents, drops, name=name)


def bimodal_target(
    main_drops,
    bridge_drop: float,
    secondary_rises,
    name: str = "bimodal",
) -> tuple[DiscreteTarget, list]:
    """A unimodal main path plus a planted local mode across a weak bridge.

    The secondary arm hangs off the far end of the main path, drops by
    ``bridge_drop``, then climbs by ``secondary_rises`` to a local peak.
    Returns the target together with the main-cluster state list (the
    restriction on which the target is unimodal).
    """
    log_pis = {0: 0.0}
    edges = []
    k = len(main_drops)
    for i, step in enumerate(main_drops):
        log_pis[i + 1] = log_pis[i] - float(step)
        edges.append((i, i + 1))
    attach = k
    prev = k + 1
    log_pis[prev] = log_pis[attach] - float(bridge_drop)
    edges.append((attach, prev))
    for rise in secondary_rises:
        log_pis[prev + 1] = log_pis[prev] + float(rise)
        edges.append((prev, prev + 1))
        prev += 1
    target = table_target(log_pis, edges, name=name)
    return target, list(range(k + 1))


def two_state_target(log_ratio: float = 0.0) -> DiscreteTarget:
    return table_target({0: 0.0, 1: -log_ratio}, [(0, 1)], name="two-state")
