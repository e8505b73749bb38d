"""Decision DAGs: the exploration testbed.

Reasoning is modeled as traversal of a directed acyclic graph from a start
node toward a target set; at each node a policy assigns a categorical
distribution over that node's ordered successor list.  A policy is just its
tuple of rows, one per node (None at a childless node), so ``policy[v]`` is
node v's distribution and ``max(policy[v])`` its symbolic index.

The module provides graph builders (chain, diamond, trap, layered random),
policy constructors for three certainty regimes, a divergence-from-uniform
metric, a Monte Carlo searcher that walks each trial until a target or a
dead end, and an exact dynamic-programming oracle for the success
probability, so every sampled statistic can be checked against a closed
answer.

Graphs are immutable after construction, and each block of search trials
owns a seeded stream, so reruns give identical results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import categorical as cat
from .errors import EnumerationTooLargeError, InfiniteDivergenceError, InvalidInputError
from .seeding import rng_for

ENUMERATION_NODE_CAP = 10**6
# Trials per run_search block and stream; changing it changes every search result.
SEARCH_BLOCK = 8192
# Most block-steps (blocks times the longest walk) one run_search may take.  One
# step of a full block took about 0.24 ms on a 2-core Xeon, so the cap bounds a
# search near 24 s there.
SEARCH_STEP_CAP = 10**5
# A capped policy's top probability is at most 1 - CAP_DELTA.
CAP_DELTA = 0.3


@dataclass(frozen=True)
class DecisionDag:
    """Immutable DAG with a start node and a set of target nodes.

    ``successors[v]`` is the ordered tuple of valid next steps from node
    ``v``; policies index their per-node distributions by this order.
    Construction verifies acyclicity (topological sort) and that every
    target is reachable from the start.
    """

    successors: tuple[tuple[int, ...], ...]
    start: int
    targets: frozenset[int]
    _topo: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = len(self.successors)
        if not (0 <= self.start < n):
            raise InvalidInputError(f"start node {self.start} out of range 0..{n - 1}")
        if not self.targets:
            raise InvalidInputError("target set must be non-empty")
        for t in self.targets:
            if not (0 <= t < n):
                raise InvalidInputError(f"target node {t} out of range 0..{n - 1}")
        for v, succ in enumerate(self.successors):
            for u in succ:
                if not (0 <= u < n):
                    raise InvalidInputError(f"edge {v}->{u} leaves node range 0..{n - 1}")
        object.__setattr__(self, "_topo", self._topological_order())
        reachable = self.reachable_from_start()
        missing = [t for t in self.targets if t not in reachable]
        if missing:
            raise InvalidInputError(f"targets not reachable from start: {sorted(missing)}")

    def _topological_order(self) -> tuple[int, ...]:
        n = len(self.successors)
        indegree = [0] * n
        for succ in self.successors:
            for u in succ:
                indegree[u] += 1
        queue = [v for v in range(n) if indegree[v] == 0]
        order: list[int] = []
        while queue:
            v = queue.pop()
            order.append(v)
            for u in self.successors[v]:
                indegree[u] -= 1
                if indegree[u] == 0:
                    queue.append(u)
        if len(order) != n:
            raise InvalidInputError("graph contains a cycle")
        return tuple(order)

    @property
    def n_nodes(self) -> int:
        return len(self.successors)

    @property
    def topological_order(self) -> tuple[int, ...]:
        return self._topo

    def reachable_from_start(self) -> set[int]:
        seen = {self.start}
        stack = [self.start]
        while stack:
            v = stack.pop()
            for u in self.successors[v]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        return seen

    def decision_nodes(self) -> list[int]:
        """Nodes with at least one successor, in index order."""
        return [v for v in range(self.n_nodes) if self.successors[v]]


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def chain_dag(length: int) -> DecisionDag:
    """Single path 0 -> 1 -> ... -> length; the last node is the target."""
    if length < 1:
        raise InvalidInputError(f"chain length must be >= 1, got {length}")
    succ = tuple((v + 1,) for v in range(length)) + ((),)
    return DecisionDag(successors=succ, start=0, targets=frozenset({length}))


def diamond_dag() -> DecisionDag:
    """start -> {a, b} -> target; both branches succeed."""
    return DecisionDag(successors=((1, 2), (3,), (3,), ()), start=0, targets=frozenset({3}))


def trap_dag(depth: int, branching: int) -> DecisionDag:
    """Depth-``depth`` trap: one of ``branching`` successors continues.

    At each level exactly one successor leads onward; the others are dead
    ends (childless non-targets).  The continuing successor is placed
    first in each node's successor list.  A uniform walker reaches the
    target with probability ``(1/branching) ** depth``.
    """
    if depth < 1 or branching < 2:
        raise InvalidInputError(f"need depth >= 1 and branching >= 2, got {depth}, {branching}")
    # ids 0..depth are the spine; spine level l's dead ends follow, level by level
    dead = branching - 1
    spine = tuple(
        (level + 1, *range(depth + 1 + level * dead, depth + 1 + (level + 1) * dead)) for level in range(depth)
    )
    # the target and every dead end are childless
    return DecisionDag(successors=spine + ((),) * (1 + depth * dead), start=0, targets=frozenset({depth}))


def layered_dag(
    n_layers: int, width: int, max_out_degree: int, seed: int
) -> DecisionDag:
    """Random layered DAG: every node links to 1..max_out_degree next-layer nodes.

    The final layer is collapsed into a single target node, so all paths of
    length ``n_layers`` succeed; the graph is used for divergence metrics
    rather than trap-style search.
    """
    if n_layers < 1 or width < 1 or max_out_degree < 1:
        raise InvalidInputError("layers, width and out-degree must all be >= 1")
    rng = rng_for(seed, "layered-dag")
    # node ids: 0 = start, then layers of `width`, then the target
    ids = [[0]]
    next_id = 1
    for _ in range(n_layers - 1):
        ids.append(list(range(next_id, next_id + width)))
        next_id += width
    target = next_id
    ids.append([target])
    succ: dict[int, tuple[int, ...]] = {target: ()}
    for layer, nodes in enumerate(ids[:-1]):
        nxt = ids[layer + 1]
        for v in nodes:
            k = int(rng.integers(1, min(max_out_degree, len(nxt)) + 1))
            chosen = sorted(rng.choice(len(nxt), size=k, replace=False).tolist())
            succ[v] = tuple(nxt[i] for i in chosen)
    successors = tuple(succ.get(v, ()) for v in range(target + 1))
    return DecisionDag(successors=successors, start=0, targets=frozenset({target}))


# ---------------------------------------------------------------------------
# Plain-text serialization: one line per node `id: s1,s2`, plus
# `start: id` and `targets: id,id` header lines.
# ---------------------------------------------------------------------------


def format_dag(dag: DecisionDag) -> str:
    lines = [f"start: {dag.start}", "targets: " + ",".join(str(t) for t in sorted(dag.targets))]
    for v, succ in enumerate(dag.successors):
        lines.append(f"{v}: " + ",".join(str(u) for u in succ))
    return "\n".join(lines) + "\n"


def _node_ids(lineno: int, text: str) -> tuple[int, ...]:
    """The comma-separated node ids after a line's colon."""
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise InvalidInputError(f"line {lineno}: bad node id in {text.strip()!r}") from exc


def parse_dag(text: str) -> DecisionDag:
    start: int | None = None
    targets: frozenset[int] | None = None
    succ: dict[int, tuple[int, ...]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, rest = line.partition(":")
        key = key.strip()
        ids = _node_ids(lineno, rest)
        if key == "start":
            if start is not None:
                raise InvalidInputError(f"line {lineno}: duplicate start: line")
            if len(ids) != 1:
                raise InvalidInputError(f"line {lineno}: start: needs one node id, got {rest.strip()!r}")
            start = ids[0]
        elif key == "targets":
            if targets is not None:
                raise InvalidInputError(f"line {lineno}: duplicate targets: line")
            targets = frozenset(ids)
        else:
            try:
                node = int(key)
            except ValueError as exc:
                raise InvalidInputError(f"line {lineno}: bad node id {key!r}") from exc
            if node < 0:
                raise InvalidInputError(f"line {lineno}: bad node id {key!r}")
            if node in succ:
                raise InvalidInputError(f"line {lineno}: duplicate node {node}")
            succ[node] = ids
    if start is None or targets is None:
        raise InvalidInputError("missing start: or targets: header line")
    n = max(succ) + 1 if succ else 0
    if n > ENUMERATION_NODE_CAP:
        raise EnumerationTooLargeError(
            f"node id {n - 1} makes {n} nodes, over the {ENUMERATION_NODE_CAP} cap"
        )
    successors = tuple(succ.get(v, ()) for v in range(n))
    return DecisionDag(successors=successors, start=start, targets=targets)


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------


# A policy is one row per node: the distribution over ``successors[v]``, or None at a childless node.
Policy = tuple[np.ndarray | None, ...]


def make_policy(dag: DecisionDag, kind: str, *, kappa: float | None = None, seed: int = 0) -> Policy:
    """Construct a policy in one of three certainty regimes.

    kind:
      * ``uniform``: 1/|successors| on each successor, the ideal explorer.
      * ``concentrated``: each node's distribution is one draw from the
        concentrated Dirichlet family at ``kappa``, its dominant parameter
        placed on a successor chosen uniformly at random.
      * ``non_degenerate``: a uniform simplex draw per node, with the
        maximum capped at ``1 - CAP_DELTA`` and the remainder renormalized
        proportionally, so the top probability never exceeds the cap.
    """
    rows: list[np.ndarray | None] = []
    if kind == "concentrated":
        if kappa is None:
            raise InvalidInputError("concentrated policy needs kappa")
    elif kind not in ("uniform", "non_degenerate"):
        raise InvalidInputError(f"unknown policy kind {kind!r}")
    rng = None if kind == "uniform" else rng_for(seed, "policy", kind)  # a uniform policy draws nothing

    for v in range(dag.n_nodes):
        k = len(dag.successors[v])
        if k == 0:
            rows.append(None)
            continue
        if kind == "uniform" or k == 1:
            rows.append(np.full(k, 1.0 / k))
            continue
        if kind == "concentrated":
            params = cat.DirichletConcentration(kappa=kappa, n_options=k)
            row = cat.dirichlet_sample(params, rng, 1)[0]
            dominant = int(rng.integers(k))
            # row[0] carries the dominant parameter; swap it into place
            row[0], row[dominant] = row[dominant], row[0]
            rows.append(row)
        else:  # non_degenerate
            rows.append(cap_distribution(rng.dirichlet(np.ones(k)), 1.0 - CAP_DELTA))
    return tuple(rows)


def cap_distribution(probs: np.ndarray, cap: float) -> np.ndarray:
    """Cap the max entry and renormalize the remainder proportionally."""
    p = np.asarray(probs, dtype=np.float64)
    top = int(np.argmax(p))
    if p[top] <= cap:
        return p / p.sum()
    rest = 1.0 - p[top]
    out = p * ((1.0 - cap) / rest) if rest > 0 else np.full(p.size, (1.0 - cap) / (p.size - 1))
    out[top] = cap
    return out / out.sum()


# ---------------------------------------------------------------------------
# Metrics and search
# ---------------------------------------------------------------------------


def exploration_divergence(dag: DecisionDag, policy: Policy) -> float:
    """Mean divergence of the uniform prior from the policy across decision nodes.

    Per node this is D(uniform || policy); a policy that zeroes out a valid
    successor raises InfiniteDivergenceError naming the node.
    """
    nodes = dag.decision_nodes()
    if not nodes:
        raise InvalidInputError("graph has no decision nodes")
    divergences = []
    for v in nodes:
        row = policy[v]
        if row.size == 1:  # forced moves carry no exploration signal
            divergences.append(0.0)
            continue
        try:
            divergences.append(cat.kl_divergence(np.full(row.size, 1.0 / row.size), row))
        except InfiniteDivergenceError as exc:
            raise InfiniteDivergenceError(f"node {v}: {exc}") from exc
    return float(np.mean(divergences))


def longest_walk(dag: DecisionDag) -> int:
    """Most steps a walk from the start can take: a walk ends at a target or a dead end.

    One pass in reverse topological order, so each node's successors are done first.
    """
    steps = [0] * dag.n_nodes
    for v in reversed(dag.topological_order):
        if v not in dag.targets and dag.successors[v]:
            steps[v] = 1 + max(steps[u] for u in dag.successors[v])
    return steps[dag.start]


def price_search(dag: DecisionDag, trials: int) -> None:
    """Refuse a search of ``trials`` walks whose blocks times longest walk exceeds ``SEARCH_STEP_CAP``.

    Each ``SEARCH_BLOCK`` of trials steps until its last walk ends, so the
    product bounds the steps ``run_search`` takes whatever the draws.
    """
    blocks = -(-trials // SEARCH_BLOCK)
    longest = longest_walk(dag)
    if blocks * longest > SEARCH_STEP_CAP:
        raise EnumerationTooLargeError(
            f"{trials} trials make {blocks} blocks of walks up to {longest} steps: "
            f"{blocks * longest} block-steps, over the cap {SEARCH_STEP_CAP}"
        )


class TraversalStats(NamedTuple):
    trials: int
    successes: int
    mean_path_length: float
    success_rate: float


def run_search(
    dag: DecisionDag,
    policy: Policy,
    trials: int,
    seed: int,
) -> TraversalStats:
    """Monte Carlo traversal: sample successors until a target or a dead end.

    Trials walk in lockstep, ``SEARCH_BLOCK`` at a time; at each step block
    ``b`` draws one uniform per live trial, in trial order, from
    ``rng_for(seed, "trial-block", b)``.  The trials at one node invert that
    node's CDF together, exactly as a single trial's ``searchsorted`` would.
    ``price_search`` refuses an oversized search before the first draw.
    """
    if trials < 1:
        raise InvalidInputError(f"need trials >= 1, got {trials}")
    price_search(dag, trials)
    is_target = np.zeros(dag.n_nodes, dtype=bool)
    is_target[sorted(dag.targets)] = True
    moves = np.array([bool(succ) for succ in dag.successors]) & ~is_target
    # Inverse-CDF sampling against precomputed per-node cumulative tables.
    cumulative = {v: np.cumsum(policy[v]) for v in dag.decision_nodes()}
    successors = {v: np.array(dag.successors[v]) for v in cumulative}
    successes = 0
    total_steps = 0
    for block, first in enumerate(range(0, trials, SEARCH_BLOCK)):
        rng = rng_for(seed, "trial-block", block)
        node = np.full(min(SEARCH_BLOCK, trials - first), dag.start)
        while True:  # the graph is acyclic, so every walk ends within its longest path
            moving = moves[node]
            if not moving.all():  # trials at a target or a dead end stop here
                successes += int(is_target[node[~moving]].sum())
                node = node[moving]
                if not node.size:
                    break
            u = rng.random(node.size)
            total_steps += node.size
            order = np.argsort(node)
            ranked = node[order]
            starts = np.flatnonzero(np.r_[True, ranked[1:] != ranked[:-1]])
            for v, rows in zip(ranked[starts].tolist(), np.split(order, starts[1:])):
                succ = successors[v]
                pick = np.minimum(np.searchsorted(cumulative[v], u[rows], side="right"), succ.size - 1)
                node[rows] = succ[pick]
    return TraversalStats(
        trials=trials,
        successes=successes,
        mean_path_length=total_steps / trials,
        success_rate=successes / trials,
    )


def enumerate_paths(dag: DecisionDag, policy: Policy) -> float:
    """Exact probability of reaching a target, by backward induction.

    Dynamic programming over the reverse topological order; linear in the
    number of edges, with a node-count cap to keep the oracle honest about
    its intended desk scale.
    """
    if dag.n_nodes > ENUMERATION_NODE_CAP:
        raise EnumerationTooLargeError(
            f"{dag.n_nodes} nodes exceeds the {ENUMERATION_NODE_CAP} cap"
        )
    reach = np.zeros(dag.n_nodes)
    for v in reversed(dag.topological_order):
        if v in dag.targets:
            reach[v] = 1.0
        elif dag.successors[v]:
            row = policy[v]
            reach[v] = float(
                sum(row[i] * reach[u] for i, u in enumerate(dag.successors[v]))
            )
    return float(reach[dag.start])
