"""Instance-generic engine for the cubical complex of an expansion system.

Vertices are the full-support vertices of the system; two vertices are
adjacent when one is obtained from the other by a single expand or
contract move.  A cube is a pair (base vertex, active subset): toggling
any subset of the active elements between their collapsed and expanded
states sweeps out the cube's vertex set.  The routines here enumerate
moves, cubes, and links, intersect cubes, join vertices through
ascending paths, explore the 1-skeleton, and compute vertex stabilizers
by assembling transfer pieces.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import (
    CapExceeded,
    InputError,
    Move,
    NotABijection,
    Vertex,
    _vertex_unchecked,
    apply_move,
)


@dataclass(frozen=True)
class Cube:
    """The cube determined by a base vertex and its active elements."""

    base: Vertex
    active: tuple  # sorted tuple of base elements, each with children

    @classmethod
    def make(cls, base, active):
        active = tuple(sorted(set(active), key=lambda b: b.key()))
        for b in active:
            if b not in base:
                raise InputError("active element not in the base vertex")
            if b.children() is None:
                raise InputError("active element admits no expansion")
        return cls(base, active)

    @property
    def dim(self):
        return len(self.active)

    def key(self):
        return self.base.key() + "#" + "|".join(b.key() for b in self.active)


def cube_vertices(c):
    """All 2^dim vertices of the cube, sorted by canonical key."""
    out = []
    for r in range(c.dim + 1):
        for on in itertools.combinations(c.active, r):
            elements = [b for b in c.base if b not in on]
            elements += [kid for b in on for kid in b.children()]
            out.append(_vertex_unchecked(elements))
    out.sort(key=Vertex.key)
    if len(set(out)) != len(out):
        raise InputError("cube has coincident corners")
    return out


def vertex_on_set(c, w):
    """The active elements expanded to reach w, or None if w is not in c:
    only those missing from w can be, so w is in c iff expanding them in
    the base gives w."""
    members = w.as_set()
    on = frozenset(b for b in c.active if b not in members)
    kids = (kid for b in on for kid in b.children())
    corner = c.base.as_set().difference(on).union(kids)
    return on if corner == members else None


def vertex_in_cube(c, w):
    return vertex_on_set(c, w) is not None


def cube_intersection(c1, c2):
    """The cube carrying the common vertices of c1 and c2, or None.

    Finds the minimal-height common vertex v and returns the cube based
    at v whose active set collects the elements still unexpanded in v on
    both sides; its vertex set equals the literal intersection of the
    two cubes' vertex sets.
    """
    small, large = (c1, c2) if c1.dim <= c2.dim else (c2, c1)
    common = [w for w in cube_vertices(small) if vertex_in_cube(large, w)]
    if not common:
        return None
    v = min(common, key=lambda w: (w.height, w.key()))
    on1 = vertex_on_set(c1, v)
    on2 = vertex_on_set(c2, v)
    active = (set(c1.active) - on1) & (set(c2.active) - on2)
    return Cube.make(v, active)


@dataclass(frozen=True)
class LemmaReport:
    """Result of the shared-element check on a pair of cubes.

    For every base element of the first cube lying in the basin of an
    active element of the second, that element must belong to every
    vertex the cubes share.
    """

    hypotheses: tuple
    shared: int
    violations: tuple

    @property
    def passed(self):
        return not self.violations


def intersection_lemma_check(c1, c2):
    hypotheses = tuple(
        (b, b2)
        for b in c1.base
        for b2 in c2.active
        if b in b2.children()
    )
    shared = [w for w in cube_vertices(c1) if vertex_in_cube(c2, w)]
    violations = tuple(
        (b, w) for b, _ in hypotheses for w in shared if b not in w
    )
    return LemmaReport(hypotheses, len(shared), violations)


def _cliques(moves, max_size):
    """Index tuples of the cliques of moves with pairwise disjoint basins,
    up to max_size, in depth-first order from the empty clique."""

    def extend(clique, start):
        yield tuple(clique)
        if len(clique) >= max_size:
            return
        for i in range(start, len(moves)):
            basin = moves[i].basin
            if all(basin.isdisjoint(moves[j].basin) for j in clique):
                clique.append(i)
                yield from extend(clique, i + 1)
                clique.pop()

    return extend([], 0)


@dataclass(frozen=True)
class LinkGraph:
    """Moves at a vertex, with edges between moves whose basins are disjoint."""

    vertex: Vertex
    nodes: tuple  # Moves, sorted
    edges: frozenset  # pairs (i, j) with i < j
    neighbors: tuple  # neighbor vertex per node

    def adjacent(self, i, j):
        return (min(i, j), max(i, j)) in self.edges


@dataclass(frozen=True)
class FlagReport:
    vertex: Vertex
    node_count: int
    edge_count: int
    cliques_checked: int
    failures: tuple
    square_mismatches: tuple
    neighbor_map_injective: bool

    @property
    def passed(self):
        return (
            not self.failures
            and not self.square_mismatches
            and self.neighbor_map_injective
        )


@dataclass(frozen=True)
class ExplorationGraph:
    """BFS ball in the 1-skeleton; vertices in discovery order."""

    vertices: tuple
    heights: tuple
    edges: tuple  # sorted (i, j) pairs with i < j
    radius: int


class CubeComplex:
    """Complex operations for one expansion system."""

    def __init__(self, system):
        self.system = system

    # -- moves and neighbors ----------------------------------------------

    def moves_at(self, v, glued=None):
        """All moves applicable at a full-support vertex; always finite.

        `glued` is passed on to `ExpansionSystem.moves`.
        """
        return sorted(self.system.moves(v, glued), key=Move.sort_key)

    def neighbors(self, v):
        return [(m, apply_move(v, m)) for m in self.moves_at(v)]

    # -- cubes --------------------------------------------------------------

    def cube_from_moves(self, v, moves):
        """The cube spanned at v by moves with pairwise disjoint basins."""
        cur = v
        for m in moves:
            if m.kind == "contract":
                cur = apply_move(cur, m)
        return Cube.make(cur, [m.target for m in moves])

    def cubes_at(self, v, max_dim):
        """One cube per clique of disjoint-basin moves at v, up to max_dim.

        Every returned cube contains v; the empty clique contributes the
        0-cube at v, and the all-expansions clique realizes the maximal
        cube of the ascending star.
        """
        moves = self.moves_at(v)
        return [
            self.cube_from_moves(v, [moves[i] for i in clique])
            for clique in _cliques(moves, max_dim)
        ]

    # -- link and flag condition ---------------------------------------------

    def link_graph(self, v):
        moves = self.moves_at(v)
        edges = frozenset(
            (i, j)
            for i in range(len(moves))
            for j in range(i + 1, len(moves))
            if moves[i].basin.isdisjoint(moves[j].basin)
        )
        neighbors = tuple(apply_move(v, m) for m in moves)
        if len(set(neighbors)) != len(neighbors):
            raise RuntimeError("distinct moves reached the same neighbor")
        return LinkGraph(v, tuple(moves), edges, neighbors)

    def check_flag(self, v, max_clique=6):
        """Constructively verify the flag condition at v.

        Every clique in the link must span a cube containing v and all of
        the clique's neighbor vertices, and adjacency must coincide with
        the existence of a 2-cube through v and both neighbors.
        """
        lg = self.link_graph(v)
        injective = len(set(lg.neighbors)) == len(lg.neighbors)
        failures = []
        checked = 0
        two_cliques = {}
        n = len(lg.nodes)
        for clique in _cliques(lg.nodes, max_clique):
            if not clique:
                continue
            checked += 1
            moves = [lg.nodes[i] for i in clique]
            try:
                cube = self.cube_from_moves(v, moves)
                ok = vertex_in_cube(cube, v) and all(
                    vertex_in_cube(cube, lg.neighbors[i]) for i in clique
                )
            except InputError:
                ok = False
            if not ok:
                failures.append(tuple(moves))
            elif len(clique) == 2:
                two_cliques[clique] = set(cube_vertices(cube))

        mismatches = []
        for i in range(n):
            for j in range(i + 1, n):
                wanted = {v, lg.neighbors[i], lg.neighbors[j]}
                square = any(
                    wanted <= verts for verts in two_cliques.values()
                )
                if square != lg.adjacent(i, j):
                    mismatches.append((lg.nodes[i], lg.nodes[j]))
        return FlagReport(
            v,
            n,
            len(lg.edges),
            checked,
            tuple(failures),
            tuple(mismatches),
            injective,
        )

    # -- joins ---------------------------------------------------------------

    def join(self, v1, v2):
        """A common upper bound of v1 and v2 with ascending paths from each."""
        p1 = self.system.standardize(v1)
        p2 = self.system.standardize(v2)
        w, q1, q2 = self.system.join_standard(p1.end, p2.end)
        return w, p1 + q1, p2 + q2

    # -- exploration -----------------------------------------------------------

    def bfs(self, start, radius, cap=100_000):
        """Vertices within `radius` moves of `start`, with incident edges.

        Deterministic for a fixed start: frontiers are expanded in
        canonical vertex order.  Raises CapExceeded (carrying the partial
        graph) if more than `cap` vertices would be collected.

        One `glued` dict (see `ExpansionSystem.moves`) serves the whole
        traversal, so each candidate basin is glued, and its contraction
        moves built, once per call rather than once per frontier vertex
        that holds it.  It has at most one entry per candidate of a
        frontier vertex, so `cap` bounds it too, and it is dropped on
        return: nothing is kept between calls.

        Vertices are indexed by the element sets they keep.  A move's
        neighbour is looked up by `Move.after` before anything is built,
        so each vertex of the ball is built once, by `apply_move` and
        `validate_vertex`, when it is first reached; an edge back to a
        known vertex builds nothing.
        """
        glued = {}
        index = {start.as_set(): 0}
        order = [start]
        edges = set()
        frontier = [start]
        for _ in range(radius):
            frontier.sort(key=Vertex.key)
            next_frontier = []
            for v in frontier:
                members = v.as_set()
                a = index[members]
                for m in self.moves_at(v, glued):
                    after = m.after(members)
                    b = index.get(after)
                    if b is None:
                        if len(order) >= cap:
                            raise CapExceeded(
                                f"exploration exceeded {cap} vertices",
                                partial=self._graph(order, edges, radius),
                            )
                        w = apply_move(v, m)
                        b = index[w.as_set()] = len(order)
                        order.append(w)
                        next_frontier.append(w)
                    edges.add((min(a, b), max(a, b)))
            frontier = next_frontier
        return self._graph(order, edges, radius)

    @staticmethod
    def _graph(order, edges, radius):
        return ExplorationGraph(
            tuple(order),
            tuple(v.height for v in order),
            tuple(sorted(edges)),
            radius,
        )

    # -- stabilizers -------------------------------------------------------------

    def stabilizer(self, v, cap=100_000):
        """All group elements fixing v, sorted by key.

        The k x k table of `transfer(els[i], els[j])` pieces is built
        once.  The search then walks, depth-first and in lexicographic
        order, only the permutations whose every piece exists: exactly
        those a loop over all k! permutations would not abandon at a
        missing piece.  Each one is assembled, and the result is kept
        iff it fixes v, so the list equals that loop's.  Raises
        CapExceeded (carrying the sorted elements found so far) if more
        than `cap` distinct elements would be collected.  The list is
        then checked to be closed under inversion and, through the span
        of a generating set drawn from it, under composition
        (`_check_closed`): the same statement that checking all |G|^2
        products makes.
        """
        els = list(v)
        table = [[self.system.transfer(a, b) for b in els] for a in els]
        found = {}
        for perm in _admissible(table):
            try:
                g = self.system.assemble(
                    [row[j] for row, j in zip(table, perm)]
                )
            except NotABijection:
                continue
            if self.system.act_vertex(g, v) == v:
                key = g.key()
                if key not in found and len(found) >= cap:
                    raise CapExceeded(
                        f"stabilizer exceeded {cap} elements",
                        partial=[found[k] for k in sorted(found)],
                    )
                found[key] = g
        group = [found[k] for k in sorted(found)]
        _check_closed(group, self.system.identity())
        return group


def _admissible(table):
    """Index tuples p with `table[i][p[i]]` not None for every i: the
    permutations admitting a piece per row, in lexicographic order."""
    k = len(table)
    perm = []
    used = [False] * k

    def extend(i):
        if i == k:
            yield tuple(perm)
            return
        for j in range(k):
            if not used[j] and table[i][j] is not None:
                used[j] = True
                perm.append(j)
                yield from extend(i + 1)
                perm.pop()
                used[j] = False

    return extend(0)


def _check_closed(group, identity):
    """Raise InputError unless `group` is closed under inversion and
    composition.

    Inversion is checked element by element.  For composition, the
    elements are walked in order, and one not yet in the span of the
    generators taken so far becomes a generator; the span is then
    regrown from the identity by right multiplication by every
    generator, and each product must lie in the group.  At the end every
    element lies in the span.  For a generator t, t^-1 is a member and
    so lies in the span, and the product t^-1 * t is formed: the
    identity is a member too.  So each h in the group is a product of
    generators t1...tm, and g*h = (...(g*t1)...)*tm stays in the group.
    This proves what checking all |G|^2 products proves, with about
    |G| log2 |G| products.
    """
    members = {g.key() for g in group}
    for g in group:
        if g.inverse().key() not in members:
            raise InputError("stabilizer not closed under inversion")
    generators = []
    span = {identity.key()}
    for g in group:
        if g.key() in span:
            continue
        generators.append(g)
        span = {identity.key()}
        frontier = [identity]
        while frontier:
            grown = []
            for s in frontier:
                for t in generators:
                    st = s * t
                    key = st.key()
                    if key not in members:
                        raise InputError(
                            "stabilizer not closed under composition"
                        )
                    if key not in span:
                        span.add(key)
                        grown.append(st)
            frontier = grown


# -- exports ----------------------------------------------------------------


def graph_to_dot(graph):
    """DOT text: one node per vertex labeled by height, undirected edges."""
    lines = ["graph {"]
    for i, h in enumerate(graph.heights):
        lines.append(f'  {i} [label="{h}"];')
    for i, j in graph.edges:
        lines.append(f"  {i} -- {j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_json_obj(system, graph):
    return {
        "vertices": [
            [system.element_to_obj(b) for b in v] for v in graph.vertices
        ],
        "edges": [list(e) for e in graph.edges],
        "heights": list(graph.heights),
    }
