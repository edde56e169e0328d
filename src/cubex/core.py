"""Shared machinery for simple expansion systems.

An expansion system supplies *elements*, each carrying a support region
inside a fixed space X and, optionally, a *basin*: an ordered list of at
least two child elements whose supports partition the parent's support.
A *vertex* is a finite set of elements with pairwise disjoint supports;
a vertex is *full-support* when the supports cover all of X.  Moves
replace an element by its basin (expand) or a basin by its parent
(contract).  Everything here is instance-generic; the concrete element
types live in `thompson` and `houghton`.

Every operation is pure and no value changes after construction in
any way that can be observed.  Some values fill caches (a support, the
children, a hash) on first use; a cache never takes part in equality,
hashing, `repr` or any serialized output, so values can be shared
freely across workers.  An element's key is such a slot too, `_key`,
but it is set at construction, so the engine sorts vertices and moves
on `attrgetter("_key")`, with no Python call per element.

Immutability is a contract the library keeps, not one Python enforces:
the value classes are plain dataclasses, not frozen ones, since a
frozen `__init__` pays one `object.__setattr__` per field and each step
of an exploration builds many values.  Assigning to a field therefore
no longer raises `FrozenInstanceError`; the library assigns only to
cache slots, and `tests/test_immutability.py` checks that.  Hashes are
those frozen dataclasses derived: a class with no `__hash__` of its own
takes `unsafe_hash=True`, the hash of its compared fields.
"""

from __future__ import annotations

import itertools
from bisect import insort
from dataclasses import dataclass, field
from operator import attrgetter


class InputError(Exception):
    """Malformed or inconsistent input value."""


class OverlappingSupports(InputError):
    def __init__(self, i, j):
        super().__init__(f"elements {i} and {j} have overlapping supports")
        self.indices = (i, j)


class DuplicateElement(InputError):
    def __init__(self, i, j):
        super().__init__(f"elements {i} and {j} are equal")
        self.indices = (i, j)


class MoveNotApplicable(InputError):
    pass


class DomainMismatch(InputError):
    pass


class NotABijection(InputError):
    pass


class CapExceeded(Exception):
    """An exploration hit its resource cap; `partial` holds what was built
    and `total`, where known, the size of the whole result."""

    def __init__(self, message, partial=None, total=None):
        super().__init__(message)
        self.partial = partial
        self.total = total


def cached_field():
    """A dataclass slot for a cache.

    It is left out of `__init__`, equality, hashing and `repr`; its
    value is set with a plain store, on first use or in
    `__post_init__`.  It is the one kind of field the library assigns
    after `__init__`.
    """
    return field(default=None, init=False, compare=False, repr=False)


@dataclass(slots=True)
class Vertex:
    """A finite set of elements with pairwise disjoint supports.

    Elements are stored sorted by their canonical serialization, so equal
    vertices compare and serialize identically.  The height of a vertex
    is its number of elements.  The hash and the member set are computed
    on first use and kept.
    """

    elements: tuple
    _hash: int = cached_field()
    _set: frozenset = cached_field()

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.elements,))
        return self._hash

    @property
    def height(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __contains__(self, b):
        return b in self.as_set()

    def key(self):
        return "|".join(map(_element_key, self.elements))

    def as_set(self):
        if self._set is None:
            self._set = frozenset(self.elements)
        return self._set


def validate_vertex(elements):
    """Build a Vertex, checking disjointness and rejecting duplicates.

    Raises OverlappingSupports or DuplicateElement naming the offending
    pair of positions in the *input* order.
    """
    elements = list(elements)
    supports = [b.support() for b in elements]
    # The region type's one-sweep kernel decides the whole family at
    # once.  Supports are never empty, so a repeated element overlaps
    # itself and fails the sweep too.  Only then does the pairwise scan
    # run, with the same kernel, to name the first offending pair.
    if supports and not type(supports[0]).all_disjoint(supports):
        all_disjoint = type(supports[0]).all_disjoint
        for i in range(len(elements)):
            for j in range(i + 1, len(elements)):
                if elements[i] == elements[j]:
                    raise DuplicateElement(i, j)
                if not all_disjoint((supports[i], supports[j])):
                    raise OverlappingSupports(i, j)
    return _vertex_unchecked(elements)


def _vertex_unchecked(elements):
    """A Vertex of `elements`, put in key order but not checked.

    Only for elements disjoint by construction, such as the corners of
    a cube (see `ExpansionSystem`).  A frozenset given is kept as the
    vertex's member set.
    """
    v = Vertex(_in_key_order(elements))
    if isinstance(elements, frozenset):
        v._set = elements
    return v


_element_key = attrgetter("_key")


def _in_key_order(elements):
    """The elements as a tuple sorted by key, the order of a vertex."""
    return tuple(sorted(elements, key=_element_key))


def _reached(v, out, into):
    """The element set v reaches by swapping the elements `out` for
    `into`.  MoveNotApplicable unless v holds every element of `out`,
    each listed once; when `out` lists the basins of several moves, that
    is v holding each basin and no two of them overlapping.  Then no
    move disturbs another, and the set is a vertex by construction (see
    `ExpansionSystem`); nothing else is checked."""
    members = v.as_set()
    kept = members.difference(out)
    if len(members) - len(kept) != len(out):
        raise MoveNotApplicable("basin not contained in vertex")
    return kept.union(into)


@dataclass(unsafe_hash=True, slots=True)
class Move:
    """An expand or contract move, with the two element sets it swaps.

    kind "expand": replace `target` (which must have children) by them.
    kind "contract": replace the children of `target` by `target`.
    `basin` is the set the move consumes and `gain` the set it puts in
    its place; neither takes part in equality or `repr`.
    """

    kind: str
    target: object
    basin: frozenset = field(compare=False, repr=False)
    gain: frozenset = field(compare=False, repr=False)

    @classmethod
    def expand(cls, b):
        return cls("expand", b, frozenset((b,)), frozenset(_expansion(b)))

    @classmethod
    def contract(cls, target):
        kids = frozenset(_expansion(target))
        return cls("contract", target, kids, frozenset((target,)))


def _expansion(b):
    """The children of b; MoveNotApplicable if it has none."""
    kids = b.children()
    if kids is None:
        raise MoveNotApplicable("element has no expansion")
    return kids


def apply_move(v, m):
    """Apply a move to a vertex, returning the neighboring vertex.

    The move applies iff `v` holds its basin.  The neighbour's elements
    are then `_reached(v, m.basin, m.gain)`; `validate_vertex` checks
    them and puts them in order, and the neighbour keeps that set.
    """
    after = _reached(v, m.basin, m.gain)
    w = validate_vertex(after)
    w._set = after
    return w


@dataclass(unsafe_hash=True)
class AscendingPath:
    """An edge path along which height strictly increases.

    vertices[0] is the start; moves[i] (always an expansion) carries
    vertices[i] to vertices[i+1].
    """

    vertices: tuple
    moves: tuple

    @property
    def start(self):
        return self.vertices[0]

    @property
    def end(self):
        return self.vertices[-1]

    def __len__(self):
        return len(self.moves)

    def __add__(self, other):
        if self.end != other.start:
            raise InputError("paths do not concatenate")
        return AscendingPath(
            self.vertices + other.vertices[1:], self.moves + other.moves
        )

    def check(self):
        """Verify every edge is an expansion that strictly raises height."""
        if len(self.vertices) != len(self.moves) + 1:
            return False
        for i, m in enumerate(self.moves):
            if m.kind != "expand":
                return False
            if apply_move(self.vertices[i], m) != self.vertices[i + 1]:
                return False
            if self.vertices[i + 1].height <= self.vertices[i].height:
                return False
        return True


def ascend(v, pick):
    """The ascending path that expands, at each step, the first element of
    the current vertex that `pick` accepts, until it accepts none.  A
    vertex is in key order and `pick` is pure, so the accepted elements
    wait in a list kept in key order, and an expansion adds only accepted
    children.  Each target is in the current vertex, so each step is a
    vertex by construction and is not checked again."""
    vertices = [v]
    moves = []
    accepted = [(b._key, b) for b in v if pick(b)]
    while accepted:
        _, target = accepted.pop(0)
        moves.append(Move.expand(target))
        up = _reached(vertices[-1], moves[-1].basin, moves[-1].gain)
        vertices.append(_vertex_unchecked(up))
        for kid in target.children():
            if pick(kid):
                insort(accepted, (kid._key, kid))
    return AscendingPath(tuple(vertices), tuple(moves))


class ExpansionSystem:
    """Operations a concrete expansion system must supply.

    Elements are opaque values with a total order given by `key()`,
    hash-equality matching class equality, `support()` returning the
    system's region type, and `children()` returning the ordered basin
    (length >= 2) or None when the element admits no proper expansion.
    The key is a string fixed at construction and held in the slot
    `_key`, which `key()` returns: the engine sorts elements and moves
    on that slot, with no call per element.
    Generic code never assumes basins have size two.  Two facts of the
    construction hold in every system: the supports of an element's
    children tile its support, and the support of each coexpansion of
    a basin is the union of the basin's supports.  So moves keep a
    vertex's supports pairwise disjoint, and a vertex reached by moves
    whose basins it holds skips `validate_vertex`: the corners and
    bases of cubes, the `neighbors` list, and ascent steps.

    The region type supplies a normalizing `make` and a static
    `all_disjoint(regions)`, the one kernel that decides whether a
    family of supports overlaps (a system's glue may run the same
    sweep and keep its sorted words, as `v`'s does).  Supports are
    never empty, which `validate_vertex` relies on: a repeated element
    overlaps itself, so the same sweep catches it.  Whether disjoint
    regions cover the space is the system's `covers_space`, one tiling
    rule per system, shared with `assemble`; no union is built.

    `expansions(v)` yields one expansion per expandable element of v,
    and `contractions(v)` one contraction per coexpansion of each subset
    from `contraction_candidates(v)`: together, every move applicable at
    v, which `CubeComplex.moves_at` puts in the one order the engine
    uses.  Both take an optional `memo`, a dict that a traversal owns and
    passes to every call.  It maps each expandable element asked about
    to its expansion move, and each candidate basin to its list of
    contraction moves, one per coexpansion; a basin is a frozenset, so
    it never equals an element.  Each move is thus built once per
    traversal.  The memo lives as long as the traversal; nothing is kept
    on the system or on the elements.

    `header()` holds the fields that name the instance in every vertex
    and cube literal: `instance`, plus `n` for `houghton`.  Two systems
    are the same instance iff their headers are equal.
    """

    name = "?"

    def header(self):
        return {"instance": self.name}

    # -- required instance operations ------------------------------------

    def coexpansions(self, elements):
        """All elements whose basin equals the given set."""
        raise NotImplementedError

    def covers_space(self, regions):
        """True iff the regions, pairwise disjoint, tile the whole space.
        Its one caller, `is_full_support`, passes a vertex's supports.
        Each system runs the tiling rule of its `assemble` on the
        regions' parts: `is_complete_code` on `v`'s words,
        `HoughtonSystem._tiles` on `houghton`'s points and tails."""
        raise NotImplementedError

    def base_vertex(self):
        """A canonical full-support vertex to start explorations from."""
        raise NotImplementedError

    def standardize(self, v):
        """Ascending path from v to a partition-type vertex."""
        raise NotImplementedError

    def join_standard(self, s1, s2):
        """The coarsest common refinement of two standard vertices;
        `CubeComplex.join` reaches it from each by expanding what it lacks.
        Its elements are disjoint by construction, so, like the base
        vertex, it is built without `validate_vertex`."""
        raise NotImplementedError

    def transfer(self, b1, b2):
        """The unique partial-map piece carrying b1's support onto b2's so
        that any group element extending it maps b1 to b2; None if no such
        piece exists.

        `CubeComplex.stabilizer` relies on this contract: the piece is
        unique, so a group element fixing a vertex is the union of the
        pieces of the permutation it makes of the vertex's elements;
        `transfer(b, b)` is the identity on b's support; the relation
        "`transfer(a, b)` is not None" is an equivalence (reflexive,
        symmetric and transitive), whose classes the stabilizer permutes;
        and the piece maps b1's support onto b2's.  So the pieces of a
        permutation of a full-support vertex's elements, one per
        element, tile the space on both sides, and the stabilizer builds
        their union with `_assemble_unchecked`.
        """
        raise NotImplementedError

    def assemble(self, pieces):
        """The union of transfer pieces, each a bijection onto its image,
        as a group element: NotABijection unless the pieces' domains tile
        the space and so do their images, the one check this makes.  It
        reads the pieces' raw ends, one column per side: `v`, whether
        the domain words and the image words are complete codes;
        `houghton`, whether the points and tail ends tile the n branches
        (`HoughtonSystem._tiles`).  The element is then built by
        `_assemble_unchecked`."""
        raise NotImplementedError

    def _assemble_unchecked(self, pieces):
        """`assemble` without its check, for pieces whose domains and
        images tile the space by construction (see `transfer`)."""
        raise NotImplementedError

    def identity(self):
        raise NotImplementedError

    def act(self, g, b):
        """Left action of a group element on an element, built without
        revalidation: g is a bijection, checked where it was parsed."""
        raise NotImplementedError

    def parse_element(self, obj):
        raise NotImplementedError

    def element_to_obj(self, b):
        raise NotImplementedError

    def parse_group(self, obj):
        raise NotImplementedError

    def group_to_obj(self, g):
        raise NotImplementedError

    # -- generic derived operations --------------------------------------

    def contraction_candidates(self, v):
        """Subsets of v worth testing for a contraction.

        Default: all 2-subsets, which is exhaustive for any system whose
        basins have size two.  Systems with larger basins override this.
        A system may also skip subsets that have no coexpansion, as long
        as it keeps the others in the default's order.
        """
        return itertools.combinations(v, 2)

    def expansions(self, v, memo=None):
        """One expansion move per expandable element of v, in vertex order.

        A caller that walks many vertices passes one `memo` (see the
        class doc), so an element held by several of them has its move
        built once; with no dict, each call starts a fresh one.  The move
        is kept in the caller's dict, never on the element: a move holds
        its target, so a cache on the element would be a reference cycle.
        """
        if memo is None:
            memo = {}
        for b in v:
            m = memo.get(b)
            if m is None:
                if b.children() is None:
                    continue
                m = memo[b] = Move.expand(b)
            yield m

    def contractions(self, v, memo=None):
        """One contraction move per coexpansion of each subset from
        `contraction_candidates(v)`, in that order.

        `memo` is shared as in `expansions`: a basin held by several
        vertices is glued, and its moves built, once.  Reuse is safe
        because `coexpansions` is pure and moves are immutable.  Each
        move keeps the memo key as its `basin`.
        """
        if memo is None:
            memo = {}
        for subset in self.contraction_candidates(v):
            basin = frozenset(subset)
            contractions = memo.get(basin)
            if contractions is None:
                contractions = memo[basin] = [
                    Move("contract", t, basin, frozenset((t,)))
                    for t in self.coexpansions(basin)
                ]
            yield from contractions

    def is_full_support(self, v):
        return self.covers_space([b.support() for b in v])

    def act_vertex(self, g, v):
        """g·v.  A bijection maps disjoint supports to disjoint ones, so
        the image is a vertex by construction and is not checked again."""
        return _vertex_unchecked([self.act(g, b) for b in v])
