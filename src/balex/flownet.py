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

A network is built for one market shape, the agents' sizes and the object
count, and `install` gives it a constraint system: either with a matching
known to satisfy it (the mechanism's incumbent) as its first feasible point,
or with no flow, and then `solve_feasible` finds one in two phases.  One
network then serves a whole mechanism run: `retarget` makes the matching it
holds the incumbent of the next constraint system.  Another install serves
the next run, so one network serves every run of a misreport search.
Installing a system is one pass per agent, except that an install from the
matching of the network's first install under that matching's own bounds
copies back the state the first one set and reinstalls only the agents whose
masks differ: a misreport run pays for the one agent whose report changed.
Beyond feasibility the network supports the operations the mechanism needs:
maximize the attractive-tier flow of one agent (augmenting cycles through its
tier edge), freeze that edge, test single-unit improvability without mutating
the flow, and extract the lexicographically least witness matching by
pinning objects one at a time, rerouting the flow when a pin needs it.  Every
one of them searches the residual graph with the same shortest-path BFS,
which takes a tier's object arcs with one big-int operation (the bit-parallel
search of Alt, Blum, Mehlhorn and Paul, IPL 37(4), 1991).

Most paths are one or two object moves, and two searches find those by mask
tests before they run the queue.  An improvement cycle through agent i's
tier edge can close only over its bearable tier's edge back to agent i, and
it enters that tier only through an object the tier holds.  An extraction
search with every attractive-tier edge frozen meets agent nodes only as dead
ends.  Either way the queue reaches its target through an object, first in
the batch of the source's objects, then in the batches of the tiers that
batch reached, in the order they were reached, and no node it meets on the
way holds an object of the target.  So the lowest unpinned object of the
target that the source allows is the queue's one-move path, and else the
lowest that the first such tier allows is its two-move path (`_chain`).

Most candidate objects in an extraction cannot be pinned.  Once an agent's
attractive-tier edge is frozen, a tier of its that holds only pinned objects
is full: no search can enter it, so its remaining candidates take none.
Likewise most improvement searches find nothing.  A cycle through an agent's
tier edge must enter its bearable tier through an object that another tier
allows too (`contested`), so without such an object held there and unpinned
it is not searched for.

Everything is integral; no floating point.
"""

from __future__ import annotations

from typing import Sequence

from .model import MechanismInvariantError

_OBJECTS = -1  # adjacency entry: where a node's object arcs sit among its edges

# A residual path: the explicit edge ids it crosses, and for each object it
# crosses, (object, node it enters the object from); pushing the path hands
# the object to that node.
Path = tuple[list[int], list[tuple[int, int]]]


class ExchangeFlow:
    """Flow network over agent tiers and objects for the constraint systems
    of one market shape, one system at a time."""

    def __init__(self, sizes: Sequence[int], *, n_objects: int) -> None:
        """The layout for agents of these sizes and `n_objects` objects; it
        holds no constraint system until `install` gives it one."""
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
        self.order = list(range(n))  # the agents in priority order
        # the first install from a matching under its own bounds: its
        # matching, its attractive and allowed masks, and copies of the state
        # it set (see `install`)
        self._kept: tuple[list[int], list[int], list[int], tuple] | None = None

    def install(
        self,
        attractive: list[int],
        allowed: list[int],
        lo: list[int] | None = None,
        hi: list[int] | None = None,
        bundles: list[int] | None = None,
    ) -> bool:
        """Give the network a constraint system, one `_install_agent` per
        agent.  The layout stays; freezes, pins and the query count start
        again.  Per agent, `attractive` and `allowed` are object bitmasks:
        allowed objects inside the attractive mask go to the attractive tier,
        the rest to the bearable tier.  `lo` and `hi` bound the attractive
        tier's flow; `hi` defaults to the sizes.

        Without `bundles` the flow is 0 and `lo` defaults to 0; `solve_feasible`
        then finds a first feasible point.  With them the balanced matching
        `bundles` is the flow, `lo` defaults to its attractive counts, and the
        result is False, leaving the network unusable until the next install,
        when the matching is not a partition of the objects into bundles of
        the agents' sizes, leaves an allowed set or breaks a tier bound.

        The first install from a matching under its own bounds (`lo` and `hi`
        omitted) that succeeds keeps a copy of the state it set.  A later such
        install from an equal matching copies that state back and reinstalls
        only the agents whose attractive or allowed mask differs from the kept
        system's: the rest of the state depends on nothing else.  Installs
        with explicit bounds neither take nor use the copy."""
        n, sizes = self.n, self.sizes
        self.frozen = bytearray(2 * n)
        self.pinned = self.queries = 0
        own_bounds = bundles is not None and lo is None and hi is None
        kept = self._kept
        if own_bounds and kept is not None and bundles == kept[0]:
            _, kept_attractive, kept_allowed, state = kept
            allowed_a, allowed_b, cap, allow, held, holder, self.contested = state
            self.allowed_a, self.allowed_b = allowed_a.copy(), allowed_b.copy()
            self.cap, self.allow = cap.copy(), allow.copy()
            self.held, self.holder = held.copy(), holder.copy()
            changed = [
                i for i in range(n)
                if attractive[i] != kept_attractive[i] or allowed[i] != kept_allowed[i]
            ]
            for i in changed:
                bundle = bundles[i]
                if not self._install_agent(i, attractive[i], allowed[i], None, sizes[i], bundle):
                    return False
            if changed:
                self._contest()
            return True
        self.allowed_a = [0] * n
        self.allowed_b = [0] * n
        self.cap = [0] * (4 * n)
        # per node: the objects it has arcs to and the objects it holds
        self.allow = [0] * self.nn
        self.held = [0] * self.nn
        self.holder = [self.free] * self.m
        full = (1 << self.m) - 1
        if hi is None:
            hi = sizes
        if bundles is None:
            for i in range(n):
                low = 0 if lo is None else lo[i]
                self._install_agent(i, attractive[i], allowed[i], low, hi[i], None)
            self.held[self.free] = full
            self._contest()
            return True
        taken = 0
        for i in range(n):
            bundle = bundles[i]
            if bundle & taken or bundle.bit_count() != sizes[i]:
                return False
            taken |= bundle
            low = None if lo is None else lo[i]
            if not self._install_agent(i, attractive[i], allowed[i], low, hi[i], bundle):
                return False
        self._contest()
        if taken != full:
            return False
        if own_bounds and kept is None:
            state = (
                self.allowed_a.copy(), self.allowed_b.copy(), self.cap.copy(),
                self.allow.copy(), self.held.copy(), self.holder.copy(), self.contested,
            )
            self._kept = (list(bundles), list(attractive), list(allowed), state)
        return True

    def _install_agent(
        self, i: int, attractive: int, allowed: int, lo: int | None, hi: int, bundle: int | None
    ) -> bool:
        """Install agent i's part of a system: both tiers' allowed masks and its
        four residuals and, from its `bundle` when one is given, both tiers'
        held masks and its objects' holders.  Without a bundle the flow is 0;
        with one, `lo` None is the bundle's attractive count, and the result
        is False when the bundle leaves `allowed` or breaks a tier bound."""
        size = self.sizes[i]
        tier_a, tier_b = self.tier_a0 + i, self.tier_b0 + i
        a = allowed & attractive
        self.allowed_a[i] = self.allow[tier_a] = a
        self.allowed_b[i] = self.allow[tier_b] = allowed & ~a
        top = min(hi, size, a.bit_count())
        if bundle is None:
            self.cap[4 * i : 4 * i + 4] = top, -lo, size, 0
            return True
        if bundle & ~allowed:
            return False
        mine = bundle & a
        count = mine.bit_count()
        low = count if lo is None else lo
        if not low <= count <= top:
            return False
        self.held[tier_a], self.held[tier_b] = mine, bundle & ~a
        self.cap[4 * i : 4 * i + 4] = top - count, count - low, count, size - count
        holder = self.holder
        while bundle:
            bit = bundle & -bundle
            holder[bit.bit_length() - 1] = tier_a if bit & a else tier_b
            bundle ^= bit
        return True

    def _contest(self) -> None:
        """Set `contested`, the objects that two or more tiers allow."""
        once = twice = 0
        for mask in self.allow:
            twice |= once & mask
            once |= mask
        self.contested = twice

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

    def solve_feasible(self) -> bool:
        """Find a feasible point of a system installed without a matching, or
        False.

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

    def _find_path(
        self, s: int, t: int, skip_pair: int = -1, all_frozen: bool = False
    ) -> Path | None:
        """Shortest residual path s -> t (see `Path`), or None.

        Breadth-first.  A node expands its explicit arcs in edge-list order and,
        at the `_OBJECTS` entry of its adjacency, its arcs to objects as one
        batch taken with one big-int operation, `allow[u] & ~covered`.
        `covered` holds the pinned objects and every object whose holder the
        search has reached: none of them leads to a new node.  When the batch
        comes off the queue, its objects in index order send the search on to
        their holders.  So nodes are reached in the order, and the path found
        is the one, of a search over every object arc.

        Two searches first try `_chain`, which returns the queue's own path
        when it is one or two object moves long.  A cycle search (`skip_pair`
        set: s is the attractive tier of agent t, and skip_pair its tier edge
        pair) can reach agent t only from its bearable tier, over edge
        4t + 3, and that tier only through an object it holds; so with that
        edge open, its path is a chain into the bearable tier and the edge.
        A search with every attractive-tier edge frozen (`all_frozen`, from
        extraction) meets agent nodes only as dead ends, so its path is a
        chain into t.  Otherwise, or when no such chain exists, the queue
        runs.
        """
        if skip_pair >= 0:
            i = skip_pair >> 1
            if self.cap[4 * i + 3] > 0:
                moves = self._chain(s, self.tier_b0 + i)
                if moves:
                    return [4 * i + 3], moves
        elif all_frozen:
            moves = self._chain(s, t)
            if moves:
                return [], moves
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

    def _chain(self, s: int, target: int) -> list[tuple[int, int]] | None:
        """The moves of the queue's path from tier s into tier `target` when
        it is one or two object moves, by mask tests alone; else None.

        Two mask tests, for a search whose explicit arcs near s reach no node
        that could enter `target` before its object batches do (see
        `_find_path`).  Such a search enters `target` only through an
        unpinned object `target` holds.  The first batch is s's, and its
        objects in index order reach their holders (level 1), each covering
        what it holds.  So one move takes the lowest unpinned object of
        `target` that s allows.  Failing that, the level-1 holders' batches
        come off the queue in the order they were reached, each in index
        order, and no node reached in between holds an object of `target`:
        two moves take the lowest such object that the first of them allows.
        """
        pinned, allow, held, holder = self.pinned, self.allow, self.held, self.holder
        goal = held[target] & ~pinned
        rem = allow[s] & ~(pinned | held[s])
        hit = rem & goal
        if hit:
            return [((hit & -hit).bit_length() - 1, s)]
        while rem:
            j = (rem & -rem).bit_length() - 1
            y = holder[j]
            hit = allow[y] & goal
            if hit:
                return [((hit & -hit).bit_length() - 1, y), (j, s)]
            rem &= ~held[y]
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

    def _enterable(self, i: int) -> bool:
        """Whether a residual cycle through agent i's attractive-tier edge can
        exist at all.  It must end at agent i's bearable tier, back over the
        tier's own edge, and the tier can be entered only through an unpinned
        object it holds, from another tier that allows that object too."""
        return bool(self.held[self.tier_b0 + i] & self.contested & ~self.pinned)

    def _cycle(self, i: int) -> bool:
        """Push one unit around a residual cycle through agent i's
        attractive-tier edge; False when there is none, without a search when
        `_enterable` says so."""
        eid = self.tier_edge_a[i]
        if self.cap[eid] <= 0 or not self._enterable(i):
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
        """Whether some feasible point gives agent i strictly more than its
        lower bound: from the tier edge's residuals when they tell, else False
        when `_enterable` rules a cycle out, else by one residual search."""
        self.queries += 1
        eid = self.tier_edge_a[i]
        if self.cap[eid ^ 1] > 0:
            return True
        if self.cap[eid] == 0 or not self._enterable(i):
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
        self._contest()
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
        all_frozen = all(self.frozen[::2])
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
                    path = self._find_path(src_tier, t_node, all_frozen=all_frozen)
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
