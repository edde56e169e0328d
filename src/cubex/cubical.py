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
    DuplicateElement,
    InputError,
    Move,
    NotABijection,
    Vertex,
    _in_key_order,
    _reached,
    _vertex_unchecked,
    apply_move,
    ascend,
)


@dataclass(frozen=True)
class Cube:
    """The cube determined by a base vertex and its active elements.

    The constructor trusts its caller: the engine builds its cubes from
    moves at a vertex, whose targets are distinct base elements with
    children by construction, and passes them in key order.  `make` is
    the checked builder, for cubes that enter from outside.
    """

    base: Vertex
    active: tuple  # base elements with children, in key order

    @classmethod
    def make(cls, base, active):
        """The cube, checked: DuplicateElement names the first repeated
        pair of positions in `active`, as `validate_vertex` does, and an
        element outside the base or with no children is an InputError."""
        active = list(active)
        for j, b in enumerate(active):
            if active.index(b) != j:
                raise DuplicateElement(active.index(b), j)
            if b not in base:
                raise InputError("active element not in the base vertex")
            if b.children() is None:
                raise InputError("active element admits no expansion")
        return cls(base, _in_key_order(active))

    @property
    def dim(self):
        return len(self.active)

    def key(self):
        return self.base.key() + "#" + "|".join(b.key() for b in self.active)


def _corner(c, on):
    """The element set of c's corner with the active elements `on`
    expanded: the base without them, with their children."""
    return _reached(c.base, on, [kid for b in on for kid in b.children()])


def cube_vertices(c):
    """All 2^dim vertices of the cube, sorted by canonical key.  Only for
    callers that want the list: no cube question below enumerates."""
    out = [
        _vertex_unchecked(_corner(c, on))
        for r in range(c.dim + 1)
        for on in itertools.combinations(c.active, r)
    ]
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
    return on if _corner(c, on) == members else None


def vertex_in_cube(c, w):
    return vertex_on_set(c, w) is not None


def cube_intersection(c1, c2):
    """The cube carrying the common vertices of c1 and c2, or None.

    A walk from both bases expands only what it is forced to.  Side i
    can ever hold only its base and the children of its active
    elements; call that its reach.  An element of side i's corner that
    side j's reach lacks is in no common vertex, so it is forced: every
    common vertex expands it on side i, and if it is not an active
    element there (a child, or an inactive base element), no common
    vertex exists.  Forcing depends on the reach alone, so each element
    is looked at once, as it enters its side's corner.

    When nothing is left to force, the two corners are equal.  Were x in
    corner 1 and not in corner 2, then x, in reach 2, is not a base
    element of side 2 (side 2 expands only what reach 1 lacks), so it is
    a child of an active a2 side 2 has not expanded.  That a2 is in
    corner 2, not in corner 1 (it overlaps x), and so, by the same
    argument, a child of an unexpanded active a1 in corner 1, whose
    support then strictly holds x's, also in corner 1: impossible.

    The walk ends at a common vertex v, and every common vertex expands
    at least what it expanded, so v is the one of least height.  The
    common vertices are then exactly v with any subset of the elements
    both sides still may expand: the cube returned, whose vertex set
    equals the literal intersection of the two cubes' vertex sets.
    """
    cubes = (c1, c2)
    reach = [
        c.base.as_set().union(kid for b in c.active for kid in b.children())
        for c in cubes
    ]
    collapsed = [set(c.active) for c in cubes]
    entered = [(i, b) for i, c in enumerate(cubes) for b in c.base]
    while entered:
        i, b = entered.pop()
        if b in reach[1 - i]:
            continue
        if b not in collapsed[i]:
            return None
        collapsed[i].remove(b)
        entered += ((i, kid) for kid in b.children())
    v = _vertex_unchecked(_corner(c1, set(c1.active) - collapsed[0]))
    return Cube(v, _in_key_order(collapsed[0] & collapsed[1]))


@dataclass(frozen=True)
class LemmaReport:
    """Result of the shared-element check on a pair of cubes.

    For every base element of the first cube lying in the basin of an
    active element of the second, that element must belong to every
    vertex the cubes share.  `violations` holds the hypotheses that
    fail.
    """

    hypotheses: tuple
    shared: int
    violations: tuple

    @property
    def passed(self):
        return not self.violations


def intersection_lemma_check(c1, c2):
    """The shared vertices are the corners of the meet, so the elements
    in all of them are the meet's base elements that are not active."""
    hypotheses = tuple(
        (b, b2)
        for b in c1.base
        for b2 in c2.active
        if b in b2.children()
    )
    meet = cube_intersection(c1, c2)
    if meet is None:
        return LemmaReport(hypotheses, 0, ())
    kept = meet.base.as_set().difference(meet.active)
    violations = tuple(h for h in hypotheses if h[0] not in kept)
    return LemmaReport(hypotheses, 2**meet.dim, violations)


def _disjoint_pairs(moves):
    """The index pairs (i, j), i < j, of moves with disjoint basins."""
    return frozenset(
        (i, j)
        for i, j in itertools.combinations(range(len(moves)), 2)
        if moves[i].basin.isdisjoint(moves[j].basin)
    )


def _cliques(n, pairs, max_size):
    """Index tuples of the cliques, up to max_size, of the graph on
    range(n) whose edges are the pairs i < j in `pairs`, in depth-first
    order from the empty clique.  A clique's candidates are the later
    indices adjacent to all its members, so each extension only filters
    its parent's list."""

    def extend(clique, candidates):
        yield tuple(clique)
        if len(clique) < max_size:
            for i in candidates:
                clique.append(i)
                yield from extend(
                    clique, [j for j in candidates if (i, j) in pairs]
                )
                clique.pop()

    return extend([], range(n))


def _neighbor(v, m):
    """The vertex the move m reaches from v, unchecked: m is a move at v."""
    return _vertex_unchecked(_reached(v, m.basin, m.gain))


def _clique_cubes(v, moves, neighbors=()):
    """A function from a clique, a sequence of indices into `moves`, to
    the cube its moves span at v.  The base is v after the clique's
    contractions, and each distinct set of them is built into a base
    once; with none, the base is v itself.  `neighbors`, if given, are
    the vertices the moves reach from v, so those of the contractions
    are the bases of their one-move cliques.  A clique's moves must be
    moves at v with pairwise disjoint basins, as the link's cliques are.
    Only the contractions' basins are checked here (MoveNotApplicable if
    v lacks one or two overlap), so a caller with other cliques checks
    every basin first, as `cube_from_moves` does."""
    bases = {(): v}
    for i, w in enumerate(neighbors):
        if moves[i].kind == "contract":
            bases[(i,)] = w

    def cube(clique):
        down = tuple(i for i in clique if moves[i].kind == "contract")
        if down not in bases:
            out = [b for i in down for b in moves[i].basin]
            into = [moves[i].target for i in down]
            bases[down] = _vertex_unchecked(_reached(v, out, into))
        active = _in_key_order(moves[i].target for i in clique)
        return Cube(bases[down], active)

    return cube


@dataclass(frozen=True)
class LinkGraph:
    """Moves at a vertex, with edges between moves whose basins are disjoint."""

    vertex: Vertex
    nodes: tuple  # Moves, sorted
    edges: frozenset  # pairs (i, j) with i < j
    neighbors: tuple  # neighbor vertex per node


@dataclass(frozen=True)
class FlagReport:
    vertex: Vertex
    node_count: int
    edge_count: int
    cliques_checked: int
    failures: tuple
    square_mismatches: tuple

    @property
    def passed(self):
        return not self.failures and not self.square_mismatches


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
        return [(m, _neighbor(v, m)) for m in self.moves_at(v)]

    # -- cubes --------------------------------------------------------------

    def cube_from_moves(self, v, moves):
        """The cube spanned at v by moves with pairwise disjoint basins;
        MoveNotApplicable unless v holds each basin and none overlap."""
        _reached(v, [b for m in moves for b in m.basin], ())
        return _clique_cubes(v, moves)(range(len(moves)))

    def cubes_at(self, v, max_dim):
        """One cube per clique of disjoint-basin moves at v, up to max_dim.

        Every returned cube contains v; the empty clique contributes the
        0-cube at v, and the all-expansions clique realizes the maximal
        cube of the ascending star.
        """
        moves = self.moves_at(v)
        cube = _clique_cubes(v, moves)
        cliques = _cliques(len(moves), _disjoint_pairs(moves), max_dim)
        return [cube(clique) for clique in cliques]

    # -- link and flag condition ---------------------------------------------

    def link_graph(self, v):
        moves = self.moves_at(v)
        edges = _disjoint_pairs(moves)
        neighbors = tuple(_neighbor(v, m) for m in moves)
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
        cube_of = _clique_cubes(v, lg.nodes, lg.neighbors)
        failures = []
        checked = 0
        squares = set()
        for clique in _cliques(len(lg.nodes), lg.edges, max_clique):
            if not clique:
                continue
            checked += 1
            moves = [lg.nodes[i] for i in clique]
            try:
                cube = cube_of(clique)
                ok = vertex_in_cube(cube, v) and all(
                    vertex_in_cube(cube, lg.neighbors[i]) for i in clique
                )
            except InputError:
                ok = False
            if not ok:
                failures.append(tuple(moves))
            elif len(clique) == 2:
                squares.add(clique)

        # A passed 2-cube of clique (i, j) has corners v, neighbours i
        # and j, and a fourth that differs from v in two disjoint basins,
        # so it is no neighbour.  Neighbours are distinct (`link_graph`
        # raises otherwise), so a 2-cube through v and neighbours i and j
        # exists iff (i, j) passed; a clique is an edge, so every
        # mismatch is an edge that did not pass.
        mismatches = [
            (lg.nodes[i], lg.nodes[j]) for i, j in sorted(lg.edges - squares)
        ]
        return FlagReport(
            v,
            len(lg.nodes),
            len(lg.edges),
            checked,
            tuple(failures),
            tuple(mismatches),
        )

    # -- joins ---------------------------------------------------------------

    def join(self, v1, v2):
        """A common upper bound of v1 and v2 with ascending paths from each."""
        p1 = self.system.standardize(v1)
        p2 = self.system.standardize(v2)
        w = self.system.join_standard(p1.end, p2.end)
        members = w.as_set()
        q1, q2 = (ascend(p.end, lambda b: b not in members) for p in (p1, p2))
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
        neighbour is looked up by its set (`core._reached`) before
        anything is built, so each vertex of the ball is built once, by
        `apply_move` and `validate_vertex`, when it is first reached; an
        edge back to a known vertex builds nothing.
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
                a = index[v.as_set()]
                for m in self.moves_at(v, glued):
                    b = index.get(_reached(v, m.basin, m.gain))
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
        iff it fixes v, so the list equals that loop's.  g fixes v iff
        every g·b lies in v: v's k elements are distinct and g is a
        bijection, so k images in v are v.  Raises CapExceeded
        (carrying the sorted elements found so far) if more than `cap`
        distinct elements would be collected.  The list is then checked
        to be closed under inversion and, through the span of a
        generating set drawn from it, under composition
        (`_check_closed`): the same statement that checking all |G|^2
        products makes.  The elements that the `_class_generators`
        permutations assembled to are walked first.  They generate the
        product of the classes' symmetric groups, so the walk forms |G|
        products per class generator: two per element when one class
        holds every element v's stabilizer moves.
        """
        els = list(v)
        members = v.as_set()
        table = [[self.system.transfer(a, b) for b in els] for a in els]
        seeds = dict.fromkeys(_class_generators(table))
        found = {}
        for perm in _admissible(table):
            try:
                g = self.system.assemble(
                    [row[j] for row, j in zip(table, perm)]
                )
            except NotABijection:
                continue
            if all(self.system.act(g, b) in members for b in els):
                key = g.key()
                if key not in found and len(found) >= cap:
                    raise CapExceeded(
                        f"stabilizer exceeded {cap} elements",
                        partial=[found[k] for k in sorted(found)],
                    )
                found[key] = g
                if perm in seeds:
                    seeds[perm] = g
        group = [found[k] for k in sorted(found)]
        first = [g for g in seeds.values() if g is not None]
        _check_closed(group, self.system.identity(), first)
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


def _class_generators(table):
    """For each class of indices, the j with `table[i][j]` not None for
    one i, the permutation that swaps its first two members and the one
    that cycles it, each fixing every other index (both the identity,
    for a class of one).  A transposition and a cycle generate the
    symmetric group of their class."""
    classes = dict.fromkeys(
        tuple(j for j, piece in enumerate(row) if piece is not None)
        for row in table
    )
    for members in classes:
        swap = members[1::-1] + members[2:]
        for images in (swap, members[1:] + members[:1]):
            perm = list(range(len(table)))
            for j, image in zip(members, images):
                perm[j] = image
            yield tuple(perm)


def _check_closed(group, identity, first=()):
    """Raise InputError unless `group` is closed under inversion and
    composition.

    Inversion is checked element by element.  For composition, the
    entries of `first` that lie in `group`, then the elements of
    `group`, are walked in order, and one not yet in the span of the
    generators taken so far becomes a generator; each product formed
    must lie in the group.  The span starts as the identity and stays closed
    under right multiplication by every generator: when t joins, each
    old member is multiplied by t, and each new member by every
    generator, until none is new.  An old member times an old generator
    was formed before, so the span is closed again: it is the span of
    the generators.  At the end every element lies in the span.  For a
    generator t, t^-1 is a member and so lies in the span, and the
    product t^-1 * t is formed: the identity is a member too.  So each
    h in the group is a product of generators t1...tm, and
    g*h = (...(g*t1)...)*tm stays in the group.  Nothing here used the
    order of the walk, only that every generator is drawn from the
    group: so the verdict depends on `group` alone, and any such
    generating set proves what checking all |G|^2 products proves, with
    |G| products per generator.

    Elements are compared as values, and the span is a dict, so the
    products are formed in insertion order whatever the hash seed.
    """
    members = set(group)
    for g in group:
        if g.inverse() not in members:
            raise InputError("stabilizer not closed under inversion")
    generators = []
    span = {identity: None}
    for g in itertools.chain([t for t in first if t in members], group):
        if g in span:
            continue
        generators.append(g)
        frontier, factors = list(span), [g]
        while frontier:
            grown = []
            for s in frontier:
                for t in factors:
                    st = s * t
                    if st not in members:
                        raise InputError(
                            "stabilizer not closed under composition"
                        )
                    if st not in span:
                        span[st] = None
                        grown.append(st)
            frontier, factors = grown, generators


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
