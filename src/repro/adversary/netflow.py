"""Min-cost network-flow matching of broken FEOL connections.

The greedy proximity attack commits the globally closest feasible pair
first and never reconsiders; the network-flow adversary is strictly
stronger on hint 1-2 information: it matches broken sink pins to
driver nets (with hint-3 load capacities) under per-pair proximity
costs and extracts the *globally* cheapest assignment that connects
as many sinks as capacity allows.  This is the classic network-flow
formulation of split-manufacturing attacks (cf. Wang et al.'s
proximity-attack family and the survey's network-flow matchers).

**The optimum is defined, not found.**  Each deduped (sink, net) arc
gets the integer cost ``base * M + w(sink stub id, net)``: ``base`` is
the fixed-point proximity cost, ``w`` a fixed 64-bit splitmix64 mix of
the sink's stub id and the net name's rank among the instance's nets
(never ``hash()``, so ``PYTHONHASHSEED`` cannot move it), and
``M = (num_sinks + 1) * 2**64`` so no sum of tie weights outweighs one
unit of ``base``.  The optimum under these costs is unique in
practice, so any exact solver returns the same matching, and the
reported ``flow_cost`` (the sum of ``base``) is the unperturbed
optimum.

**Solver: incremental successive shortest path.**  Sinks are inserted
one at a time in index order.  Each insertion runs one Dijkstra over
the residual graph (sinks, nets, and a terminal reachable from every
net below capacity) on reduced costs under global potentials, stops as
soon as the terminal is reached, moves only the settled nodes'
potentials, and augments along the parent chain.  An overflow net of
unbounded capacity, costlier than any feasible total, keeps every
search feasible; sinks that land on it are reported unmatched, which
keeps the min-cost *max-flow* meaning.  With unbounded capacity (no
hints) each search ends at the sink's cheapest net.  :class:`MinCostFlow`,
a whole-graph successive-shortest-path solver, is kept only as the
differential oracle (:func:`reference_match`).

Combinational-loop avoidance (hint 4) is not expressible as flow
capacity, so it runs as a deterministic repair pass over the decoded
matching: loop-closing edges are re-routed to the sink's next-cheapest
loop-free candidate.

The module is engine-agnostic on purpose: :func:`flow_assignment` takes
any per-pair cost vector, so the learned scorer reuses the same
globally-optimal matcher with model-derived costs.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.adversary.features import CandidateSet
from repro.attacks.hints import creates_loop
from repro.attacks.proximity import commit_edge, initial_reachability
from repro.phys.split import FeolView

#: Fixed-point scale for float costs; integer arc costs keep every
#: comparison exact and platform-independent.
COST_SCALE = 1024


class MinCostFlow:
    """Successive-shortest-path min-cost max-flow (integer costs).

    One Dijkstra over the whole graph per unit of flow: the reference
    solver :func:`reference_match` runs to check :func:`incremental_ssp`
    in the tests and the matcher benchmark; the campaign path never
    calls it.
    """

    def __init__(self, num_nodes: int) -> None:
        self.num_nodes = num_nodes
        self.graph: list[list[int]] = [[] for _ in range(num_nodes)]
        self.to: list[int] = []
        self.cap: list[int] = []
        self.cost: list[int] = []

    def add_edge(self, u: int, v: int, cap: int, cost: int) -> int:
        """Add arc u->v; returns the arc index (reverse is index ^ 1)."""
        index = len(self.to)
        self.graph[u].append(index)
        self.to.append(v)
        self.cap.append(cap)
        self.cost.append(cost)
        self.graph[v].append(index + 1)
        self.to.append(u)
        self.cap.append(0)
        self.cost.append(-cost)
        return index

    def solve(self, s: int, t: int, max_flow: int) -> tuple[int, int]:
        """Push up to *max_flow* units; returns (flow, total_cost).

        All arc costs are non-negative, so Dijkstra with potentials is
        valid from the first iteration.
        """
        n = self.num_nodes
        potential = [0] * n
        flow = total_cost = 0
        while flow < max_flow:
            dist = [None] * n
            parent_edge = [-1] * n
            dist[s] = 0
            heap: list[tuple[int, int]] = [(0, s)]
            while heap:
                d, u = heapq.heappop(heap)
                if dist[u] is None or d > dist[u]:
                    continue
                for index in self.graph[u]:
                    if self.cap[index] <= 0:
                        continue
                    v = self.to[index]
                    nd = d + self.cost[index] + potential[u] - potential[v]
                    if dist[v] is None or nd < dist[v]:
                        dist[v] = nd
                        parent_edge[v] = index
                        heapq.heappush(heap, (nd, v))
            if dist[t] is None:
                break  # no augmenting path: capacity exhausted
            for u in range(n):
                if dist[u] is not None:
                    potential[u] += dist[u]
            # Bottleneck along the path (arc capacities here are >= 1).
            push = max_flow - flow
            v = t
            while v != s:
                index = parent_edge[v]
                push = min(push, self.cap[index])
                v = self.to[index ^ 1]
            v = t
            while v != s:
                index = parent_edge[v]
                self.cap[index] -= push
                self.cap[index ^ 1] += push
                total_cost += push * self.cost[index]
                v = self.to[index ^ 1]
            flow += push
        return flow, total_cost


@dataclass(frozen=True)
class FlowArcs:
    """Deduped candidate arcs of one matching instance.

    Arc ``k`` joins sink ``sink[k]`` to net ``net[k]`` at the fixed-point
    cost ``base[k]`` and the canonical tie-broken cost ``cost[k]``.
    ``tie[j]`` marks TIE nets, whose capacity is never limited.
    """

    nets: list[str]
    tie: list[bool]
    num_sinks: int
    sink: list[int]
    net: list[int]
    base: list[int]
    cost: list[int]

    def capacities(self, load_limit: int | None) -> list[int | None]:
        """Per-net capacity; ``None`` is unbounded."""
        return [
            None if tie or load_limit is None else load_limit
            for tie in self.tie
        ]


@dataclass
class FlowMatch:
    """Decoded matching plus accounting for diagnostics."""

    matched_net: list[str | None]  # per sink index
    flow: int
    cost: int
    nodes: int
    arcs: int


_MIX_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)


def _splitmix64(z: np.ndarray) -> np.ndarray:
    z = z + _MIX_GAMMA
    z = (z ^ (z >> np.uint64(30))) * _MIX_1
    z = (z ^ (z >> np.uint64(27))) * _MIX_2
    return z ^ (z >> np.uint64(31))


def _tie_weights(stub_ids: np.ndarray, net_ranks: np.ndarray) -> list[int]:
    """``splitmix64(splitmix64(stub_id) ^ net_rank)``, as Python ints.

    Mixing the stub id before folding in the rank keeps all 64 bits of
    both keys (uint64 arithmetic wraps by design).
    """
    mixed = _splitmix64(stub_ids.astype(np.uint64))
    return _splitmix64(mixed ^ net_ranks.astype(np.uint64)).tolist()


def canonical_arcs(candidates: CandidateSet, costs: np.ndarray) -> FlowArcs:
    """Deduped arcs of *candidates* with fixed-point and canonical costs.

    The first pair of each (sink, net) in hand-score order wins the
    dedupe, and its cost, clamped at zero, is the arc's ``base``.
    """
    nets: list[str] = []
    net_index: dict[str, int] = {}
    tie: list[bool] = []
    for src in candidates.sources:
        if src.net not in net_index:
            net_index[src.net] = len(nets)
            nets.append(src.net)
            tie.append(False)
        tie[net_index[src.net]] |= src.is_tie

    # np.rint rounds half to even, like Python's round().
    int_costs = (
        np.rint(np.asarray(costs, dtype=np.float64) * COST_SCALE)
        .astype(np.int64)
        .tolist()
    )
    net_of_source = [net_index[net] for net in candidates._net_of_source]
    seen: set[tuple[int, int]] = set()
    arc_sink: list[int] = []
    arc_net: list[int] = []
    base: list[int] = []
    for sink_i, src_i, cost in zip(
        candidates.pairs[:, 0].tolist(),
        candidates.pairs[:, 1].tolist(),
        int_costs,
    ):
        key = (sink_i, net_of_source[src_i])
        if key in seen:
            continue
        seen.add(key)
        arc_sink.append(sink_i)
        arc_net.append(key[1])
        base.append(max(0, cost))

    num_sinks = len(candidates.sinks)
    rank = {net: r for r, net in enumerate(sorted(nets))}
    stub_ids = np.array(
        [candidates.sinks[i].stub_id for i in arc_sink], dtype=np.int64
    )
    net_ranks = np.array([rank[nets[j]] for j in arc_net], dtype=np.int64)
    scale = (num_sinks + 1) << 64
    cost = [
        b * scale + w
        for b, w in zip(base, _tie_weights(stub_ids, net_ranks))
    ]
    return FlowArcs(nets, tie, num_sinks, arc_sink, arc_net, base, cost)


def incremental_ssp(
    arcs: FlowArcs, load_limit: int | None
) -> list[int | None]:
    """Min-cost max-flow matching; the net index per sink (or ``None``).

    Node ids: sinks ``0..n-1``, nets ``n..n+m-1``, the overflow net
    ``n+m``.  Potentials start at zero and only fall.  A net below
    capacity keeps potential zero (its arc to the terminal has reduced
    cost equal to its potential), so the terminal's distance is that
    of the first such net popped and the search stops there.  Loads
    never drop, because an augmenting path only rotates sinks between
    the nets it passes, so a full net's arc to the terminal never
    comes back with a negative reduced cost.
    """
    n = arcs.num_sinks
    m = len(arcs.nets)
    overflow = n + m
    room = arcs.capacities(load_limit) + [None]
    # Costlier than any feasible matching, so a sink overflows only
    # when no augmenting path to real capacity exists.
    overflow_cost = n * max(arcs.cost, default=0) + 1
    out: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for sink_i, net_i, cost in zip(arcs.sink, arcs.net, arcs.cost):
        out[sink_i].append((n + net_i, cost))
    for sink_i in range(n):
        out[sink_i].append((overflow, overflow_cost))

    potential = [0] * (n + m + 1)
    match = [-1] * n  # node id of each sink's net
    # Per net node: matched sink -> cost of its arc.
    members: list[dict[int, int]] = [{} for _ in range(m + 1)]
    for root in range(n):
        dist = {root: 0}
        parent: dict[int, tuple[int, int]] = {}
        settled: list[int] = []
        heap = [(0, root)]
        while True:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            settled.append(u)
            if u >= n:
                free = room[u - n]
                if free is None or free > 0:
                    end, reach = u, d
                    break
                # Residual arcs net -> sink run against matched units.
                base_d = d + potential[u]
                for v, cost in members[u - n].items():
                    nd = base_d - cost - potential[v]
                    if v not in dist or nd < dist[v]:
                        dist[v] = nd
                        parent[v] = (u, cost)
                        heapq.heappush(heap, (nd, v))
            else:
                base_d = d + potential[u]
                own = match[u]
                for v, cost in out[u]:
                    if v == own:
                        continue
                    nd = base_d + cost - potential[v]
                    if v not in dist or nd < dist[v]:
                        dist[v] = nd
                        parent[v] = (u, cost)
                        heapq.heappush(heap, (nd, v))
        for x in settled:
            potential[x] += dist[x] - reach
        if room[end - n] is not None:
            room[end - n] -= 1
        net = end
        while True:
            sink, cost = parent[net]
            previous = match[sink]
            match[sink] = net
            members[net - n][sink] = cost
            if sink == root:
                break
            del members[previous - n][sink]
            net = previous
    return [None if j == overflow else j - n for j in match]


def reference_match(
    arcs: FlowArcs, load_limit: int | None, costs: list[int]
) -> tuple[list[int | None], int, int]:
    """Differential oracle: whole-graph SSP on :class:`MinCostFlow`.

    Returns ``(net index per sink or None, flow, total cost)`` under
    the per-arc *costs* (``arcs.cost`` or ``arcs.base``).
    """
    n = arcs.num_sinks
    m = len(arcs.nets)
    s_node, t_node = 0, 1 + m + n
    flow = MinCostFlow(t_node + 1)
    for net_i, capacity in enumerate(arcs.capacities(load_limit)):
        flow.add_edge(s_node, 1 + net_i, n if capacity is None else capacity, 0)
    edge = [
        flow.add_edge(1 + net_i, 1 + m + sink_i, 1, cost)
        for sink_i, net_i, cost in zip(arcs.sink, arcs.net, costs)
    ]
    for sink_i in range(n):
        flow.add_edge(1 + m + sink_i, t_node, 1, 0)
    pushed, total = flow.solve(s_node, t_node, n)
    matched: list[int | None] = [None] * n
    for sink_i, net_i, index in zip(arcs.sink, arcs.net, edge):
        if flow.cap[index] == 0:  # saturated candidate arc carries the unit
            matched[sink_i] = net_i
    return matched, pushed, total


def _match_nets(
    candidates: CandidateSet,
    costs: np.ndarray,
    load_limit: int | None,
) -> FlowMatch:
    """Min-cost matching sink pin -> driver net over *candidates*."""
    arcs = canonical_arcs(candidates, costs)
    matched = incremental_ssp(arcs, load_limit)
    base_of = dict(zip(zip(arcs.sink, arcs.net), arcs.base))
    pairs = [(i, j) for i, j in enumerate(matched) if j is not None]
    num_nets = len(arcs.nets)
    return FlowMatch(
        matched_net=[None if j is None else arcs.nets[j] for j in matched],
        flow=len(pairs),
        cost=sum(base_of[pair] for pair in pairs),
        # Counted as the whole-graph network: S, nets, sinks, T, and
        # S->net, net->sink and sink->T arcs.
        nodes=num_nets + arcs.num_sinks + 2,
        arcs=num_nets + len(arcs.sink) + arcs.num_sinks,
    )


def flow_assignment(
    view: FeolView,
    candidates: CandidateSet,
    costs: np.ndarray,
    load_limit: int | None = None,
) -> tuple[dict[int, str], dict[str, object]]:
    """Globally-optimal assignment under *costs*, loop-repaired.

    Returns ``(assignment, diagnostics)`` where *assignment* maps sink
    stub ids to net names, covering every sink with at least one
    loop-free candidate.
    """
    match = _match_nets(candidates, costs, load_limit)
    num_sinks = len(candidates.sinks)
    source_of_net_for_sink: list[dict[str, int]] = [
        {} for _ in range(num_sinks)
    ]
    order_for_sink: list[list[tuple[float, str, int]]] = [
        [] for _ in range(num_sinks)
    ]
    cost_col = np.asarray(costs, dtype=np.float64).tolist()
    net_names = candidates._net_of_source
    for sink_i, src_i, cost in zip(
        candidates.pairs[:, 0].tolist(),
        candidates.pairs[:, 1].tolist(),
        cost_col,
    ):
        net = net_names[src_i]
        source_of_net_for_sink[sink_i].setdefault(net, src_i)
        order_for_sink[sink_i].append((cost, net, src_i))
    for ranked in order_for_sink:
        ranked.sort()

    reaches = initial_reachability(view)
    assignment: dict[int, str] = {}
    loop_repairs = 0
    unmatched_fallbacks = 0
    # Deterministic commit order: sink stub id.
    commit_order = sorted(
        range(len(candidates.sinks)),
        key=lambda i: candidates.sinks[i].stub_id,
    )
    for sink_i in commit_order:
        sink = candidates.sinks[sink_i]
        committed = False
        trial: list[tuple[str, int]] = []
        net = match.matched_net[sink_i]
        if net is not None:
            trial.append((net, source_of_net_for_sink[sink_i][net]))
        else:
            unmatched_fallbacks += 1
        for _cost, other_net, src_i in order_for_sink[sink_i]:
            if net is not None and other_net == net:
                continue
            trial.append((other_net, src_i))
        for position, (candidate_net, src_i) in enumerate(trial):
            source = candidates.sources[src_i]
            if creates_loop(reaches, source, sink):
                continue
            if position > 0 and net is not None:
                loop_repairs += 1
            assignment[sink.stub_id] = candidate_net
            commit_edge(reaches, view, source, sink)
            committed = True
            break
        if not committed and trial:
            # Every candidate loops: geometric fallback inside
            # rebuild_netlist takes over (assignment left empty).
            loop_repairs += 1
    diagnostics: dict[str, object] = {
        "flow": match.flow,
        "flow_cost": match.cost,
        "flow_nodes": match.nodes,
        "flow_arcs": match.arcs,
        "loop_repairs": loop_repairs,
        "unmatched": unmatched_fallbacks,
    }
    return assignment, diagnostics
