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

import gc
import itertools
import math
from contextlib import contextmanager
from dataclasses import dataclass
from operator import attrgetter, methodcaller

from .core import (
    CapExceeded,
    DuplicateElement,
    InputError,
    Vertex,
    _in_key_order,
    _reached,
    _vertex_unchecked,
    apply_move,
    ascend,
)


@dataclass(unsafe_hash=True)
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


@dataclass(unsafe_hash=True)
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


_target_key = attrgetter("target._key")


def _neighbor(v, m):
    """The vertex the move m reaches from v, unchecked: m is a move at v."""
    return _vertex_unchecked(_reached(v, m.basin, m.gain))


def _bits(mask):
    """The positions of the set bits of `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _Link:
    """The link of v on one integer index of elements.

    An element gets the next bit when it is first masked: v's elements
    in vertex order, then the contraction targets in `moves_at` order,
    then the children that `neighbors` and `kids` mask, in the order
    they are asked for, each in `moves_at` and `children()` order.  No
    hash order picks a bit, and `bit` is a dict kept in that order, so
    bit i is `list(link.bit)[i]`.  Masks are equal iff their element
    sets are, so a corner holding a child that no vertex of the link
    holds equals none of them.

    `v` is the vertex, `moves` its moves in `moves_at` order and
    `vertex` v's mask.  Per move i, `basins[i]` and `targets[i]` are
    masks, and `later[i]` is the mask of the move indices j > i whose
    basins are disjoint from move i's.  A basin lies in v, so its mask
    has only v's bits.
    """

    __slots__ = ("v", "moves", "bit", "vertex", "basins", "targets", "later")

    def __init__(self, v, moves):
        self.v = v
        self.moves = moves
        self.bit = bit = {b: 1 << i for i, b in enumerate(v)}
        self.vertex = (1 << len(v)) - 1
        basins = [sum(map(bit.__getitem__, m.basin)) for m in moves]
        self.basins = basins
        self.targets = [
            basin if m.kind == "expand" else self.mask((m.target,))
            for m, basin in zip(moves, basins)
        ]
        self.later = []
        for i, basin in enumerate(basins):
            row = 0
            for j in range(i + 1, len(basins)):
                if not basin & basins[j]:
                    row |= 1 << j
            self.later.append(row)

    def mask(self, elements):
        """The mask of `elements`, giving each new one the next bit."""
        out = 0
        for b in elements:
            out |= self.bit.setdefault(b, 1 << len(self.bit))
        return out

    def neighbors(self):
        """Per move, the mask of the vertex it reaches: v with the basin
        swapped for the expansion's children or the contraction's
        target.  Two moves may reach the same one; `check_flag` then
        fails."""
        return [
            self.vertex & ~basin
            | (self.mask(m.target.children()) if m.kind == "expand" else t)
            for m, basin, t in zip(self.moves, self.basins, self.targets)
        ]

    def kids(self):
        """The mask of each target's children, keyed by the target's
        mask."""
        return {
            target: self.mask(m.target.children())
            for m, target in zip(self.moves, self.targets)
        }

    def edges(self):
        """The index pairs (i, j), i < j, of moves with disjoint basins."""
        return frozenset(
            (i, j) for i, row in enumerate(self.later) for j in _bits(row)
        )

    def check_flag(self, max_clique):
        """The flag report of v, up to cliques of `max_clique` moves.

        It builds no vertex or cube.  The cliques come from the walk
        (`_cliques`), with the masks of their cube's base and active
        elements.  A vertex w is in the cube iff its active elements
        missing from w, `on`, lie in the base and the base without them,
        plus their children, is w: the rule of `vertex_on_set`, which
        raises InputError where `on` is not in the base.  A clique fails
        if the rule fails for v or for any of its neighbours.  If two
        moves reach the same neighbour, the report fails with
        `neighbor_map_injective` false and no clique walked.
        InputError if `max_clique` < 2: the squares are the 2-cliques.
        """
        if max_clique < 2:
            raise InputError(f"max_clique must be at least 2: {max_clique}")
        moves = self.moves
        edge_count = sum(row.bit_count() for row in self.later)
        neighbors = self.neighbors()
        if len(set(neighbors)) != len(neighbors):
            return FlagReport(self.v, len(moves), edge_count, 0, (), (), False)
        kids = self.kids()
        failures = []
        checked = 0
        for clique, base, active in _cliques(self, max_clique):
            if not clique:
                continue
            checked += 1
            for w in (self.vertex, *[neighbors[i] for i in clique]):
                on = active & ~w
                children = 0
                rest = on
                while rest:
                    low = rest & -rest
                    children |= kids[low]
                    rest ^= low
                if on & ~base or base & ~on | children != w:
                    failures.append(tuple(moves[i] for i in clique))
                    break
        # Every edge is a 2-clique, walked in (i, j) order, and its square
        # exists iff it passed: the failed 2-cliques are the mismatches.
        mismatches = tuple(f for f in failures if len(f) == 2)
        return FlagReport(
            self.v, len(moves), edge_count, checked, tuple(failures), mismatches
        )


def _cliques(link, max_size):
    """(clique, base, active) for each clique of the link, up to
    max_size, in depth-first order from the empty clique: the clique as
    a tuple of indices into `link.moves`, and the base and the active
    elements of the cube its moves span at v, as masks.  A clique's
    candidates are the later indices adjacent to all its members, so
    each extension masks its parent's with one row of `link.later`.

    A clique's base is its parent's with the basin of the move just
    added swapped for its target: `base & ~basin | target`, for every
    move.  An expansion's basin is its own target, so it leaves the
    base as it was.  The base always holds the basin: the basin lies in
    v, and the clique's other basins, the only part of v the base has
    swapped out, are disjoint from it."""
    basins, targets, later = link.basins, link.targets, link.later
    yield (), link.vertex, 0
    # Cliques still to extend, each with the candidates it has not yet
    # tried.  The top is extended next, so a clique's children are
    # walked before its later siblings.
    todo = []
    if basins and max_size > 0:
        todo.append(((), (1 << len(basins)) - 1, link.vertex, 0))
    while todo:
        clique, candidates, base, active = todo.pop()
        low = candidates & -candidates
        i = low.bit_length() - 1
        candidates ^= low
        if candidates:
            todo.append((clique, candidates, base, active))
        clique += (i,)
        base = base & ~basins[i] | targets[i]
        active |= targets[i]
        yield clique, base, active
        candidates &= later[i]
        if candidates and len(clique) < max_size:
            todo.append((clique, candidates, base, active))


@dataclass(unsafe_hash=True)
class FlagReport:
    vertex: Vertex
    node_count: int
    edge_count: int
    cliques_checked: int
    failures: tuple
    square_mismatches: tuple
    neighbor_map_injective: bool = True

    @property
    def passed(self):
        return self.neighbor_map_injective and not self.failures


@dataclass(unsafe_hash=True)
class ExplorationGraph:
    """BFS ball in the 1-skeleton; vertices in discovery order."""

    vertices: tuple
    heights: tuple
    edges: tuple  # sorted (i, j) pairs with i < j
    radius: int


@contextmanager
def _collector_paused():
    """Run the block, or the decorated call, with the cyclic garbage
    collector off, and turn it back on afterwards, however the block
    exits, only if it was on."""
    was_on = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_on:
            gc.enable()


class CubeComplex:
    """Complex operations for one expansion system."""

    def __init__(self, system):
        self.system = system

    # -- moves and neighbors ----------------------------------------------

    def moves_at(self, v, memo=None):
        """All moves applicable at a full-support vertex; always finite.

        `memo` is passed on to the system's `contractions` and
        `expansions` (see `ExpansionSystem`).  This is the one ordered
        list of moves: sorted by kind, then by target key, that is, the
        contractions first, by target key, then the expansions in the
        order `expansions` yields them, which is vertex (key) order.
        """
        moves = sorted(self.system.contractions(v, memo), key=_target_key)
        moves.extend(self.system.expansions(v, memo))
        return moves

    def neighbors(self, v):
        return [(m, _neighbor(v, m)) for m in self.moves_at(v)]

    # -- cubes --------------------------------------------------------------

    def cube_from_moves(self, v, moves):
        """The cube spanned at v by moves with pairwise disjoint basins;
        MoveNotApplicable unless v holds each basin and none overlap.

        Its base is v with each basin swapped for its move's target: an
        expansion's basin is its own target, and a contraction's basin
        is swapped for the element it contracts to."""
        targets = [m.target for m in moves]
        base = _reached(v, [b for m in moves for b in m.basin], targets)
        return Cube(_vertex_unchecked(base), _in_key_order(targets))

    def cubes_at(self, v, max_dim):
        """One cube per clique of disjoint-basin moves at v, up to max_dim,
        in the depth-first order of the link's walk (`_cliques`).  A
        clique's base is the vertex of the base mask the walk yields:
        one vertex per distinct mask, built when the mask first shows
        up, from the elements whose bits it sets (bit i is
        `list(link.bit)[i]`).  v's own mask is v.  Its active elements
        are the clique's targets sorted by key, ties in clique order, as
        `_in_key_order` sorts them.

        Every returned cube contains v; the empty clique contributes the
        0-cube at v, and the all-expansions clique realizes the maximal
        cube of the ascending star.
        """
        link = self.link(v)
        elements = list(link.bit)
        targets = [m.target for m in link.moves]
        key = [b._key for b in targets].__getitem__
        bases = {link.vertex: v}
        cubes = []
        for clique, mask, _ in _cliques(link, max_dim):
            base = bases.get(mask)
            if base is None:
                base = bases[mask] = _vertex_unchecked(
                    [elements[i] for i in _bits(mask)]
                )
            active = tuple(map(targets.__getitem__, sorted(clique, key=key)))
            cubes.append(Cube(base, active))
        return cubes

    # -- link and flag condition ---------------------------------------------

    def link(self, v):
        """The link of v: its moves, in `moves_at` order, on one index of
        elements (`_Link`), from which the edges, the neighbours, the
        cliques and the flag report are read."""
        return _Link(v, self.moves_at(v))

    def check_flag(self, v, max_clique=6):
        """Constructively verify the flag condition at v (`_Link.check_flag`).

        Every clique in the link must span a cube containing v and all of
        the clique's neighbor vertices, and adjacency must coincide with
        the existence of a 2-cube through v and both neighbors.  Distinct
        moves must reach distinct neighbours, or the report fails.
        InputError if `max_clique` < 2.
        """
        return self.link(v).check_flag(max_clique)

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

    @_collector_paused()
    def bfs(self, start, radius, cap=100_000):
        """Vertices within `radius` moves of `start`, with incident edges.

        Deterministic for a fixed start: frontiers are expanded in
        canonical vertex order.  Raises CapExceeded (carrying the partial
        graph) if more than `cap` vertices would be collected.

        One `memo` (see `ExpansionSystem`) serves the whole traversal, so
        each candidate basin is glued, and its contraction moves built,
        once per call rather than once per frontier vertex that holds it,
        and each element's expansion move is built once.  It has at most
        one entry per candidate or element of a frontier vertex, so `cap`
        bounds it too, and it is dropped on return: nothing is kept
        between calls, and no element is left holding a move.

        Vertices are indexed by the element sets they keep.  A move's
        neighbour is looked up by its set (`core._reached`) before
        anything is built, so each vertex of the ball is built once, by
        `apply_move` and `validate_vertex`, when it is first reached; an
        edge back to a known vertex builds nothing.

        The call runs with the cyclic garbage collector paused
        (`_collector_paused`, as a decorator); on return, on CapExceeded
        and on any other exception the collector is left as it was on
        entry.  A ball builds no reference cycle: the moves stay in the
        memo, never on the elements, as
        `tests/test_moves.py::test_bfs_leaves_no_reference_cycle`
        checks.  So the collector would free nothing here, yet it would
        sweep the growing ball several times per call.  On a return, the
        decorator turns it back on only once this frame, the memo and
        the index with it, is gone, so its first sweep after the call
        sees only the graph.  Two caveats: another thread that turns the
        collector off while a `bfs` runs may find it back on afterwards,
        and a system whose elements or moves do form cycles keeps them
        until `bfs` returns.
        """
        memo = {}
        index = {start.as_set(): 0}
        order = [start]
        edges = set()
        # Bound once: the loop below runs once per move of the ball.
        moves_at, lookup, add_edge = self.moves_at, index.get, edges.add
        frontier = [start]
        for _ in range(radius):
            frontier.sort(key=Vertex.key)
            next_frontier = []
            for v in frontier:
                a = index[v.as_set()]
                for m in moves_at(v, memo):
                    b = lookup(_reached(v, m.basin, m.gain))
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
                    add_edge((a, b) if a < b else (b, a))
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
        """All group elements fixing v, sorted by key, each built from
        the permutation it makes of v's elements.

        Row i of the k x k table of `transfer(els[i], els[j])` pieces
        holds the j that element i can be carried to: its class
        (`_transfer_classes`).  A g fixing v permutes v's k elements,
        g·els[i] = els[p(i)], so each p(i) lies in i's class and g
        extends the pieces `table[i][p(i)]`; by `transfer`'s uniqueness
        contract, g is their union.  Conversely, for each p that keeps
        the classes, a union extending those pieces maps els[i] to
        els[p(i)], and the pieces carry v's supports onto v's supports,
        so they tile both sides by construction: the union is a group
        element fixing v, built by `_assemble_unchecked`.  So the
        stabilizer has ∏ (class size)! elements, one per such p.

        A permutation is a k-tuple, and g * t has the permutation q∘t
        of g's q and t's t.  The span of the class generators (a
        transposition and a cycle per class, `_class_generators`) grows
        from the identity by right multiplication, as a list in the
        order found with a set beside it only for membership, so no
        hash order reaches the list; it is the order in which forming
        every product g * t would find the elements.  Each generator is
        assembled, which checks its tiling, and must map each els[i] to
        els[perm[i]]; the span must have ∏ (class size)! permutations;
        and distinct permutations must build distinct elements.
        InputError otherwise.  The order is known before any element is
        built: when it exceeds `cap`, the walk stops once more than
        `cap` permutations are found, only the first `cap` are built,
        and CapExceeded carries them, sorted, and the order as `total`.
        """
        els = list(v)
        system = self.system
        table = [[system.transfer(a, b) for b in els] for a in els]
        classes = _transfer_classes(table)
        generators = _class_generators(classes)
        for perm in generators:
            g = system.assemble([row[j] for row, j in zip(table, perm)])
            if any(system.act(g, b) != els[j] for b, j in zip(els, perm)):
                raise InputError("a class generator does not fix the vertex")
        order = math.prod(math.factorial(len(c)) for c in classes)
        span = [tuple(range(len(els)))]
        seen = set(span)
        for q in span:  # grows as it is walked
            if len(span) > cap:
                break
            for t in generators:
                p = tuple([q[j] for j in t])
                if p not in seen:
                    seen.add(p)
                    span.append(p)
        # Both over the cap: the walk stopped early and its count says nothing.
        if len(span) != order and min(len(span), order) <= cap:
            raise InputError("stabilizer order is not the classes' product")
        build = system._assemble_unchecked
        group = [
            build([row[j] for row, j in zip(table, p)]) for p in span[:cap]
        ]
        if len(set(group)) != len(group):
            raise InputError("two permutations build one group element")
        group.sort(key=methodcaller("key"))
        if len(span) > cap:
            raise CapExceeded(
                f"stabilizer of order {order} exceeds the cap of {cap}",
                partial=group,
                total=order,
            )
        return group


def _transfer_classes(table):
    """The classes of the `transfer` relation on v's elements, as index
    tuples in order of their least members: the distinct rows of the
    piece table, row i holding the j with a piece from element i to
    element j.  InputError unless each row holds its own index and the
    distinct rows partition range(k), that is, unless the relation is an
    equivalence."""
    rows = [
        tuple(j for j, piece in enumerate(row) if piece is not None)
        for row in table
    ]
    classes = tuple(dict.fromkeys(rows))
    reflexive = all(i in row for i, row in enumerate(rows))
    if not reflexive or sum(map(len, classes)) != len(rows):
        raise InputError("transfer is not an equivalence on the elements")
    return classes


def _class_generators(classes):
    """For each class, the permutation of range(k) that swaps its first
    two members and the one that cycles it, each fixing every other
    index, with duplicates and the identity dropped: one for a class of
    two, none for a class of one.  A transposition and a cycle generate
    the symmetric group of their class."""
    k = sum(map(len, classes))
    perms = {}
    for members in classes:
        swap, cycle = members[1::-1] + members[2:], members[1:] + members[:1]
        for images in (swap, cycle):
            perm = list(range(k))
            for j, image in zip(members, images):
                perm[j] = image
            perms[tuple(perm)] = None
    perms.pop(tuple(range(k)), None)
    return list(perms)


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
