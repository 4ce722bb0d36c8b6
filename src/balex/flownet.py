"""Integer flow network backing the constrained assignment queries.

Layout: agent node -> two tier nodes per agent (attractive tier with lower and
upper bounds, bearable tier absorbing the remainder) -> objects.  Every agent
sends exactly its endowment size and every object is assigned exactly once;
once a network holds a feasible point, every operation pushes flow around
residual cycles, which keeps both.

Only the agent -> tier arcs are an explicit edge list.  An edge's residual
capacity is hi - flow forwards and flow - lo backwards, so a lower bound is a
plain integer, and a negative backward residual means flow below the bound.
The arcs at the objects are masks: each tier node keeps the mask of objects it
may take (`allow`) and the mask of objects it holds (`held`), and each object
its holder.  An object therefore has exactly one residual exit: back to the
tier that holds it, or, while no tier holds it, to the `free` node, the holder
of the unassigned objects.  A pinned object has none.

A network gets its first feasible point in one of two ways: from a matching
known to satisfy the constraints (the mechanism's incumbent), or in the two
phases of `solve_feasible`.  One network then serves a whole mechanism run:
`retarget` makes the matching it holds the incumbent of the next constraint
system.  The layout depends only on the agents' sizes and the object count,
so `restart` installs a new run's system on the same network, and one
network serves every run of a misreport search.  Installing a system is one
pass per agent, with or without a starting matching.  Beyond feasibility the
network supports the operations the mechanism needs: maximize the
attractive-tier flow of one agent (augmenting cycles through its tier edge),
freeze that edge, test single-unit improvability without mutating the flow,
and extract the lexicographically least witness matching by pinning objects
one at a time, rerouting the flow when a pin needs it.  Every one of them
searches the residual graph with the same shortest-path BFS, which takes a
tier's object arcs with one big-int operation (the bit-parallel search of
Alt, Blum, Mehlhorn and Paul, IPL 37(4), 1991).

Most candidate objects in an extraction cannot be pinned.  Once an agent's
attractive-tier edge is frozen, a tier of its that holds only pinned objects
is full: no search can enter it, so its remaining candidates take none.

Everything is integral; no floating point.
"""

from __future__ import annotations

from .model import MechanismInvariantError

_OBJECTS = -1  # adjacency entry: where a node's object arcs sit among its edges

# A residual path: the explicit edge ids it crosses, and for each object it
# crosses, (object, node it enters the object from); pushing the path hands
# the object to that node.
Path = tuple[list[int], list[tuple[int, int]]]


class ExchangeFlow:
    """Flow network over agent tiers and objects for one constraint system.

    Per agent, `attractive` and `allowed` are object bitmasks; allowed objects
    inside the attractive mask go to the attractive tier, the rest to the
    bearable tier.  `lo` and `hi` bound the attractive tier's flow.
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
        self.n = n
        self.m = n_objects
        self.sizes = sizes
        self.agent0 = 0
        self.tier_a0 = n
        self.tier_b0 = 2 * n
        self.free = 3 * n
        self.nn = self.free + 1

        # per agent i, edge pairs 2i (agent -> attractive tier, the tier edge)
        # and 2i + 1 (agent -> bearable tier), each forwards then backwards
        self.to: list[int] = []
        for i in range(n):
            self.to += (self.tier_a0 + i, i, self.tier_b0 + i, i)
        self.adj: list[list[int]] = (
            [[4 * i, 4 * i + 2] for i in range(n)]
            + [[4 * i + 1, _OBJECTS] for i in range(n)]
            + [[4 * i + 3, _OBJECTS] for i in range(n)]
            + [[]]
        )
        self.tier_edge_a = list(range(0, 4 * n, 4))
        self._install(attractive, allowed, lo, hi)

    def _install(
        self,
        attractive: list[int],
        allowed: list[int],
        lo: list[int] | None,
        hi: list[int] | None,
        bundles: list[int] | None = None,
    ) -> bool:
        """Give the network a constraint system in one pass per agent: its
        allowed masks and its four residuals, and, from the balanced matching
        `bundles` when one is given, the held masks and the holders.  The
        layout, which depends only on the sizes and the object count, stays.

        Without `bundles` the flow is 0.  With them the matching is the flow,
        the lower bounds default to its attractive counts, and the result is
        False, leaving the network unusable until the next install, when the
        matching leaves an allowed set or breaks a tier bound."""
        n, sizes, free = self.n, self.sizes, self.free
        tier_a0, tier_b0 = self.tier_a0, self.tier_b0
        self.allowed_a = allowed_a = [0] * n
        self.allowed_b = allowed_b = [0] * n
        self.cap = cap = []
        # per node: the objects it has arcs to and the objects it holds
        self.allow = allow = [0] * self.nn
        self.held = held = [0] * self.nn
        self.holder = holder = [free] * self.m
        self.frozen = bytearray(2 * n)
        self.pinned = self.queries = 0
        taken = 0
        for i in range(n):
            size, mask = sizes[i], allowed[i]
            a = mask & attractive[i]
            allowed_a[i] = allow[tier_a0 + i] = a
            allowed_b[i] = allow[tier_b0 + i] = mask & ~a
            top = min(size if hi is None else hi[i], size, a.bit_count())
            if bundles is None:
                cap += (top, -lo[i], size, 0)
                continue
            bundle = bundles[i]
            if bundle & taken or bundle & ~mask or bundle.bit_count() != size:
                return False
            taken |= bundle
            mine = bundle & a
            held[tier_a0 + i], held[tier_b0 + i] = mine, bundle & ~a
            count = mine.bit_count()
            low = count if lo is None else lo[i]
            if not low <= count <= top:
                return False
            cap += (top - count, count - low, count, size - count)
            while bundle:
                bit = bundle & -bundle
                holder[bit.bit_length() - 1] = tier_a0 + i if bit & a else tier_b0 + i
                bundle ^= bit
        if bundles is None:
            held[free] = (1 << self.m) - 1
            return True
        return taken == (1 << self.m) - 1

    # -- moving flow ---------------------------------------------------------

    def _push_edge(self, e: int, amount: int) -> None:
        self.cap[e] -= amount
        self.cap[e ^ 1] += amount

    def _move(self, j: int, node: int) -> None:
        """Hand object j to `node`."""
        bit = 1 << j
        self.held[self.holder[j]] ^= bit
        self.held[node] |= bit
        self.holder[j] = node

    def _push(self, path: Path) -> None:
        edges, moves = path
        for e in edges:
            self._push_edge(e, 1)
        for j, node in moves:
            self._move(j, node)

    # -- the first feasible point --------------------------------------------

    def restart(self, attractive: list[int], allowed: list[int], bundles: list[int]) -> bool:
        """Install the system under these attractive and allowed masks whose
        lower bounds are the attractive counts of the balanced matching
        `bundles`, with that matching as the flow; False as `start_from`.
        The layout stays; the query count starts again at 0."""
        return self._install(attractive, allowed, None, None, bundles)

    def start_from(self, bundles: list[int]) -> bool:
        """Make the balanced matching `bundles` (one object mask per agent) the
        flow of this network's newly installed system, which holds no flow
        yet, so its bounds read back from its residuals; False, leaving the
        network unusable until the next install, when the matching leaves an
        allowed set or breaks a tier bound."""
        cap, attractive = self.cap, self.allowed_a
        allowed = [a | b for a, b in zip(attractive, self.allowed_b)]
        return self._install(attractive, allowed, [-c for c in cap[1::4]], cap[::4], bundles)

    def solve_feasible(self) -> bool:
        """Find a feasible point of this new network, or False.

        The repair of a flow that breaks lower bounds (Ahuja, Magnanti and
        Orlin, Network Flows, 1993, ch. 6), in two phases.  First, with the
        lower bounds set aside, fill each agent by shortest augmenting paths
        to `free`.  Second, raise each attractive tier below its lower bound
        by cycles through its tier edge.  A cycle never takes an edge below a
        bound it meets, nor further below one it does not, so when no cycle
        raises a tier, the nodes the search reached form a cut that no
        feasible point crosses.
        """
        lows = [-self.cap[e ^ 1] for e in self.tier_edge_a]  # the flow is still 0
        for e in self.tier_edge_a:
            self.cap[e ^ 1] = 0
        filled = self._fill()
        for e, lo in zip(self.tier_edge_a, lows):
            self.cap[e ^ 1] -= lo
        if not filled:
            return False
        for i, e in enumerate(self.tier_edge_a):
            while self.cap[e ^ 1] < 0:
                if not self._cycle(i):
                    return False
        return True

    def _fill(self) -> bool:
        """Give every agent its size in objects by augmenting paths to `free`."""
        for i in range(self.n):
            for _ in range(self.sizes[i]):
                path = self._find_path(self.agent0 + i, self.free)
                if path is None:
                    return False
                self._push(path)
        return True

    # -- residual search -----------------------------------------------------

    def _find_path(self, s: int, t: int, skip_pair: int = -1) -> Path | None:
        """Shortest residual path s -> t (see `Path`), or None.

        Breadth-first.  A node expands its explicit arcs in edge-list order and,
        at the `_OBJECTS` entry of its adjacency, its arcs to objects as one
        batch taken with one big-int operation, `allow[u] & ~covered`.
        `covered` holds the pinned objects and every object whose holder the
        search has reached: none of them leads to a new node.  When the batch
        comes off the queue, its objects in index order send the search on to
        their holders.  So nodes are reached in the order, and the path found
        is the one, of a search over every object arc.
        """
        to, cap, adj, frozen = self.to, self.cap, self.adj, self.frozen
        allow, held, holder = self.allow, self.held, self.holder
        seen = bytearray(self.nn)
        covered = self.pinned | held[s]
        seen[s] = 1
        parent = [0] * self.nn  # edge id into the node, or ~j for object j
        entered: dict[int, int] = {}  # object -> node the path enters it from
        batches: dict[int, int] = {}  # node -> objects its arcs reached
        queue = [s]  # nodes, and ~u for the object batch of node u
        for u in queue:
            if u < 0:
                u = ~u
                rem = batches[u] & ~covered
                while rem:
                    j = (rem & -rem).bit_length() - 1
                    v = holder[j]
                    seen[v] = 1
                    parent[v] = ~j
                    entered[j] = u
                    if v == t:
                        return self._path(s, t, parent, entered)
                    queue.append(v)
                    covered |= held[v]
                    rem &= ~covered
                continue
            for eid in adj[u]:
                if eid == _OBJECTS:
                    batch = allow[u] & ~covered
                    if batch:
                        batches[u] = batch
                        queue.append(~u)
                    continue
                v = to[eid]
                if (
                    cap[eid] > 0
                    and not seen[v]
                    and not frozen[eid >> 1]
                    and (eid >> 1) != skip_pair
                ):
                    seen[v] = 1
                    parent[v] = eid
                    if v == t:
                        return self._path(s, t, parent, entered)
                    queue.append(v)
                    covered |= held[v]
        return None

    def _path(self, s: int, t: int, parent: list[int], entered: dict[int, int]) -> Path:
        edges: list[int] = []
        moves: list[tuple[int, int]] = []
        v = t
        while v != s:
            p = parent[v]
            if p >= 0:
                edges.append(p)
                v = self.to[p ^ 1]
            else:
                v = entered[~p]
                moves.append((~p, v))
        return edges, moves

    def _cycle(self, i: int) -> bool:
        """Push one unit around a residual cycle through agent i's
        attractive-tier edge; False when there is none."""
        eid = self.tier_edge_a[i]
        if self.cap[eid] <= 0:
            return False
        path = self._find_path(self.tier_a0 + i, self.agent0 + i, skip_pair=eid >> 1)
        if path is None:
            return False
        path[0].append(eid)
        self._push(path)
        return True

    # -- mechanism-facing operations ----------------------------------------

    def matching(self) -> list[int]:
        """The bundle masks of the matching the network holds, one per agent."""
        held = self.held
        return [held[self.tier_a0 + i] | held[self.tier_b0 + i] for i in range(self.n)]

    def tier_count(self, i: int) -> int:
        return self.held[self.tier_a0 + i].bit_count()

    def maximize(self, i: int) -> int:
        """Raise agent i's attractive-tier flow as far as feasibility allows."""
        self.queries += 1
        while self._cycle(i):
            pass
        return self.tier_count(i)

    def freeze(self, i: int) -> None:
        self.frozen[self.tier_edge_a[i] >> 1] = 1

    def freeze_all(self) -> None:
        """Freeze every agent's attractive-tier edge (edge pair 2i of agent i)."""
        self.frozen[::2] = b"\x01" * self.n

    def can_improve(self, i: int) -> bool:
        """Whether some feasible point gives agent i strictly more than its lower bound."""
        self.queries += 1
        eid = self.tier_edge_a[i]
        if self.cap[eid ^ 1] > 0:
            return True
        if self.cap[eid] == 0:
            return False
        return (
            self._find_path(self.tier_a0 + i, self.agent0 + i, skip_pair=eid >> 1)
            is not None
        )

    def retarget(self, bearable: list[int]) -> None:
        """Make the matching this network holds the incumbent of the next
        constraint system of a mechanism run.  That system differs only in the
        bearable tiers' allowed masks, `bearable` (disjoint from the attractive
        tiers'), and in its lower bounds: each agent's attractive count.
        Pins and freezes go."""
        for i, mask in enumerate(bearable):
            tier = self.tier_b0 + i
            if self.held[tier] & ~mask:
                raise MechanismInvariantError(
                    f"the incumbent matching leaves agent {i}'s new bearable set"
                )
            self.allow[tier] = mask
            self.cap[self.tier_edge_a[i] ^ 1] = 0
        self.allowed_b = bearable
        self.pinned = 0
        self.frozen = bytearray(len(self.frozen))

    def extract_canonical(self, order: list[int]) -> list[int]:
        """Pin the lexicographically least witness matching; returns bundle masks.

        Agents are processed in `order`; for each, objects in index order are
        pinned whenever the current flow can be rerouted to place the object
        in that agent's (unique) tier for it.  The object's only residual exit
        leads back to its holder, so a residual path from the holder to the
        agent's tier exists iff such a rerouting does.  A pinned object stays
        with its tier: it joins the `pinned` mask, and no search crosses it
        again.

        Once an agent's attractive-tier edge is frozen, as in the mechanism,
        its agent node can be reached only through that edge or from its
        bearable tier, so each of its tiers can be entered only through an
        object the tier holds.  A tier whose held objects are all pinned is
        full: no search reaches it, and its remaining candidates are dropped
        without one.  A reroute for the other tier cannot enter it either, so
        it stays full.
        """
        if self.held[self.free]:
            raise MechanismInvariantError("canonical extraction needs a feasible flow")
        bundles = [0] * self.n
        for i in order:
            need = self.sizes[i]
            got = 0
            frozen = self.frozen[self.tier_edge_a[i] >> 1]
            rem = (self.allowed_a[i] | self.allowed_b[i]) & ~self.pinned
            while rem and got < need:
                bit = rem & -rem
                rem ^= bit
                j = bit.bit_length() - 1
                t_node = self.tier_a0 + i if bit & self.allowed_a[i] else self.tier_b0 + i
                src_tier = self.holder[j]
                if src_tier != t_node:
                    if frozen and not self.held[t_node] & ~self.pinned:
                        rem &= ~self.allow[t_node]  # a full tier: no search can enter it
                        continue
                    path = self._find_path(src_tier, t_node)
                    if path is None:
                        continue
                    self._push(path)
                    # take the object away from its old tier, give it to t_node
                    self._move(j, t_node)
                self.pinned |= bit
                bundles[i] |= bit
                got += 1
            if got != need:
                raise MechanismInvariantError("canonical extraction lost feasibility")
        return bundles

    def dump(self) -> str:
        """Debug listing of the network: one `u -> v low/flow/cap [frozen]` line
        per edge, the object arcs included, in the order they were built."""

        def edge(eid: int, u: str, v: str) -> str:
            flow = self.held[self.to[eid]].bit_count()
            mark = " frozen" if self.frozen[eid >> 1] else ""
            return (
                f"{u} -> {v} low={flow - self.cap[eid ^ 1]} flow={flow} "
                f"cap={flow + self.cap[eid]}{mark}"
            )

        lines = []
        for i in range(self.n):
            eid = self.tier_edge_a[i]
            lines += [
                edge(eid, f"agent{i}", f"tierA{i}"),
                edge(eid + 2, f"agent{i}", f"tierB{i}"),
            ]
            for name, tier in ((f"tierA{i}", self.tier_a0 + i), (f"tierB{i}", self.tier_b0 + i)):
                rem = self.allow[tier]
                while rem:
                    bit = rem & -rem
                    rem ^= bit
                    j = bit.bit_length() - 1
                    flow = int(self.holder[j] == tier)
                    mark = " frozen" if flow and self.pinned & bit else ""
                    lines.append(f"{name} -> obj{j} low=0 flow={flow} cap=1{mark}")
        return "\n".join(lines)
