"""Integer flow network backing the constrained assignment queries.

One network per query.  Layout: source -> agent node (exact endowment size) ->
two tier nodes per agent (attractive tier with lower/upper bounds, bearable
tier absorbing the remainder) -> object nodes (capacity 1) -> sink (each object
assigned exactly once).  Lower bounds are removed by the standard circulation
transformation with a super source/sink and a sink->source return edge.

A network gets its first feasible circulation in one of two ways: from a
matching known to satisfy the constraints (the mechanism's incumbent), or by
augmenting along residual paths from the super source to the super sink.
Beyond feasibility the network supports the operations the mechanism needs:
maximize the attractive-tier flow of one agent (augmenting cycles through its
tier edge), freeze that edge, test single-unit improvability without mutating
the flow, and extract the lexicographically least witness matching by pinning
objects one at a time, rerouting the circulation when a pin needs it.  Every
one of them searches the residual graph with the same shortest-path BFS.

Everything is integral; no floating point.
"""

from __future__ import annotations

from .model import MechanismInvariantError

INF = 1 << 30


class ExchangeFlow:
    """Flow network over agent tiers and objects for one constraint system.

    Per agent, `attractive` and `allowed` are object bitmasks; allowed objects
    inside the attractive mask go to the attractive tier, the rest to the
    bearable tier.
    """

    def __init__(
        self,
        sizes: list[int],
        attractive: list[int],
        allowed: list[int],
        lo: list[int],
        hi: list[int] | None = None,
        *,
        n_objects: int,
    ) -> None:
        n = len(sizes)
        m = n_objects
        allowed_a = [s & a for s, a in zip(allowed, attractive)]
        allowed_b = [s & ~a for s, a in zip(allowed, attractive)]
        self.n = n
        self.m = m
        self.sizes = sizes
        self.allowed_a = allowed_a
        self.allowed_b = allowed_b
        self.src = 0
        self.snk = 1
        self.agent0 = 2
        self.tier_a0 = 2 + n
        self.tier_b0 = 2 + 2 * n
        self.obj0 = 2 + 3 * n
        self.ss = 2 + 3 * n + m
        self.tt = self.ss + 1
        self.nn = self.tt + 1

        self.to: list[int] = []
        self.cap: list[int] = []
        self.cap0: list[int] = []
        self.low: list[int] = []
        self.adj: list[list[int]] = [[] for _ in range(self.nn)]
        self.frozen = bytearray()
        self._excess = [0] * self.nn

        self.tier_edge_a: list[int] = []
        self.obj_edge: dict[tuple[int, int], int] = {}  # (tier node, obj idx) -> edge id
        self._structurally_infeasible = False

        if hi is None:
            hi = [min(sizes[i], bin(allowed_a[i]).count("1")) for i in range(n)]
        for i in range(n):
            cap_a = min(hi[i], sizes[i], bin(allowed_a[i]).count("1"))
            if lo[i] > cap_a:
                self._structurally_infeasible = True
                cap_a = lo[i]
            self._add(self.src, self.agent0 + i, sizes[i], sizes[i])
            self.tier_edge_a.append(
                self._add(self.agent0 + i, self.tier_a0 + i, lo[i], cap_a)
            )
            self._add(self.agent0 + i, self.tier_b0 + i, 0, sizes[i])
            for tier, rem in (
                (self.tier_a0 + i, allowed_a[i]),
                (self.tier_b0 + i, allowed_b[i]),
            ):
                while rem:
                    bit = rem & -rem
                    j = bit.bit_length() - 1
                    self.obj_edge[(tier, j)] = self._add(tier, self.obj0 + j, 0, 1)
                    rem ^= bit
        for j in range(m):
            self._add(self.obj0 + j, self.snk, 1, 1)
        self._return_edge = self._add(self.snk, self.src, 0, INF)

        # every edge after the return edge leaves SS or enters TT
        self._need = 0
        for x in range(self.nn):
            e = self._excess[x]
            if e > 0:
                self._add(self.ss, x, 0, e)
                self._need += e
            elif e < 0:
                self._add(x, self.tt, 0, -e)
        self.queries = 0

    # -- construction ------------------------------------------------------

    def _add(self, u: int, v: int, low: int, cap: int) -> int:
        eid = len(self.to)
        self.to.append(v)
        self.cap.append(cap - low)
        self.cap0.append(cap - low)
        self.low.append(low)
        self.adj[u].append(eid)
        self.to.append(u)
        self.cap.append(0)
        self.cap0.append(0)
        self.low.append(0)
        self.adj[v].append(eid + 1)
        self.frozen.append(0)
        self._excess[v] += low
        self._excess[u] -= low
        return eid

    def _push(self, edges: list[int], amount: int = 1) -> None:
        cap = self.cap
        for e in edges:
            cap[e] -= amount
            cap[e ^ 1] += amount

    # -- the first feasible circulation -------------------------------------

    def start_from(self, bundles: list[int]) -> bool:
        """Make the balanced matching `bundles` (one object mask per agent) the
        circulation of this new network; False, leaving the network unusable,
        when the matching leaves an allowed set or breaks a tier bound."""
        if self._structurally_infeasible:
            return False
        taken = 0
        for i, bundle in enumerate(bundles):
            eid = self.tier_edge_a[i]
            count_a = bin(bundle & self.allowed_a[i]).count("1")
            if (
                bundle & taken
                or bundle & ~(self.allowed_a[i] | self.allowed_b[i])
                or bin(bundle).count("1") != self.sizes[i]
                or not self.low[eid] <= count_a <= self.low[eid] + self.cap0[eid]
            ):
                return False
            taken |= bundle
            self._push([eid], count_a - self.low[eid])
            # the bearable-tier edge is added right after the attractive one
            self._push([eid + 2], self.sizes[i] - count_a)
            for tier, rem in (
                (self.tier_a0 + i, bundle & self.allowed_a[i]),
                (self.tier_b0 + i, bundle & self.allowed_b[i]),
            ):
                while rem:
                    bit = rem & -rem
                    self._push([self.obj_edge[(tier, bit.bit_length() - 1)]])
                    rem ^= bit
        if taken != (1 << self.m) - 1:
            return False
        self._push([self._return_edge], self.m)
        for eid in range(self._return_edge + 2, len(self.to), 2):
            self._push([eid], self.cap0[eid])
        return True

    def solve_feasible(self) -> bool:
        """Establish a feasible circulation honoring all lower bounds by
        augmenting along shortest paths from the super source to the super sink."""
        if self._structurally_infeasible:
            return False
        flow = 0
        while flow < self._need:
            path = self._find_path(self.ss, self.tt)
            if path is None:
                return False
            pushed = min(self.cap[e] for e in path)
            self._push(path, pushed)
            flow += pushed
        return True

    # -- residual search -----------------------------------------------------

    def _find_path(self, s: int, t: int, skip_pair: int = -1) -> list[int] | None:
        """Shortest residual path s -> t as a list of edge ids, or None."""
        to, cap, adj, frozen = self.to, self.cap, self.adj, self.frozen
        parent = [-1] * self.nn
        parent[s] = -2
        queue = [s]
        for u in queue:
            for eid in adj[u]:
                v = to[eid]
                if (
                    cap[eid] > 0
                    and parent[v] == -1
                    and not frozen[eid >> 1]
                    and (eid >> 1) != skip_pair
                ):
                    parent[v] = eid
                    if v == t:
                        path = []
                        while v != s:
                            path.append(parent[v])
                            v = to[parent[v] ^ 1]
                        path.reverse()
                        return path
                    queue.append(v)
        return None

    # -- mechanism-facing operations ----------------------------------------

    def tier_count(self, i: int) -> int:
        eid = self.tier_edge_a[i]
        return self.low[eid] + (self.cap0[eid] - self.cap[eid])

    def maximize(self, i: int) -> int:
        """Raise agent i's attractive-tier flow as far as feasibility allows."""
        self.queries += 1
        eid = self.tier_edge_a[i]
        a_node = self.agent0 + i
        t_node = self.tier_a0 + i
        while self.cap[eid] > 0:
            path = self._find_path(t_node, a_node, skip_pair=eid >> 1)
            if path is None:
                break
            path.append(eid)
            self._push(path)
        return self.tier_count(i)

    def freeze(self, i: int) -> None:
        self.frozen[self.tier_edge_a[i] >> 1] = 1

    def can_improve(self, i: int) -> bool:
        """Whether some feasible point gives agent i strictly more than its lower bound."""
        self.queries += 1
        eid = self.tier_edge_a[i]
        if self.tier_count(i) > self.low[eid]:
            return True
        if self.cap[eid] == 0:
            return False
        return (
            self._find_path(self.tier_a0 + i, self.agent0 + i, skip_pair=eid >> 1)
            is not None
        )

    def extract_canonical(self, order: list[int]) -> list[int]:
        """Pin the lexicographically least witness matching; returns bundle masks.

        Agents are processed in `order`; for each, objects in index order are
        pinned whenever the current circulation can be rerouted to place the
        object in that agent's (unique) tier for it.  The object's only residual
        exit leads back to the tier holding it, so a residual path from that
        tier to the agent's tier exists iff such a rerouting does.
        """
        cur_edge: dict[int, int] = {}
        for (tier, j), eid in self.obj_edge.items():
            if self.cap0[eid] - self.cap[eid] == 1:
                cur_edge[j] = eid
        if len(cur_edge) != self.m:
            raise MechanismInvariantError("canonical extraction needs a feasible circulation")
        pinned = bytearray(self.m)
        bundles = [0] * self.n
        for i in order:
            need = self.sizes[i]
            got = 0
            rem = self.allowed_a[i] | self.allowed_b[i]
            while rem and got < need:
                bit = rem & -rem
                rem ^= bit
                j = bit.bit_length() - 1
                if pinned[j]:
                    continue
                t_node = self.tier_a0 + i if bit & self.allowed_a[i] else self.tier_b0 + i
                cur = cur_edge[j]
                src_tier = self.to[cur ^ 1]
                if src_tier == t_node:
                    target = cur
                else:
                    path = self._find_path(src_tier, t_node)
                    if path is None:
                        continue
                    self._push(path)
                    for e in path:
                        # rebalancing may hand other objects to new tiers
                        if e % 2 == 0 and self.obj0 <= self.to[e] < self.obj0 + self.m:
                            cur_edge[self.to[e] - self.obj0] = e
                    # take the object away from its old tier, give it to t_node
                    target = self.obj_edge[(t_node, j)]
                    self._push([cur ^ 1, target])
                    cur_edge[j] = target
                self.frozen[target >> 1] = 1
                pinned[j] = 1
                bundles[i] |= bit
                got += 1
            if got != need:
                raise MechanismInvariantError("canonical extraction lost feasibility")
        return bundles

    def dump(self) -> str:
        """Debug listing of the network: one `u -> v low/flow/cap [frozen]` line per edge."""
        names: dict[int, str] = {self.src: "S", self.snk: "T", self.ss: "SS", self.tt: "TT"}
        for i in range(self.n):
            names[self.agent0 + i] = f"agent{i}"
            names[self.tier_a0 + i] = f"tierA{i}"
            names[self.tier_b0 + i] = f"tierB{i}"
        for j in range(self.m):
            names[self.obj0 + j] = f"obj{j}"
        lines = []
        for eid in range(0, len(self.to), 2):
            u = self.to[eid + 1]
            v = self.to[eid]
            flow = self.low[eid] + self.cap0[eid] - self.cap[eid]
            capacity = self.low[eid] + self.cap0[eid]
            mark = " frozen" if self.frozen[eid >> 1] else ""
            lines.append(
                f"{names[u]} -> {names[v]} low={self.low[eid]} flow={flow} cap={capacity}{mark}"
            )
        return "\n".join(lines)
