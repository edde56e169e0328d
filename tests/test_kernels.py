"""Differential tests for the region kernels and the cached element data.

A region type supplies two operations: a normalizing `make` and a static
`all_disjoint(regions)`, the one kernel that decides whether supports
overlap.  Supports are never empty, so an element overlaps itself, and
`validate_vertex` relies on this to catch a repeated element in the same
sweep.

Each kernel is compared, on seeded data, with a brute computation that
shares none of its logic, which reads a region as a finite set: ball
words as the leaves they cover at a fixed depth, sparse regions as their
enumerated points.  `make` must name the same set as its input, in
normal form; `all_disjoint` must agree with every pair of those sets;
`validate_vertex` with a pairwise scan over them; and cached supports,
keys, hashes and children with freshly built values.

Cube corners, halves, peeled rays and coexpansions are built without a
check, since construction already makes them valid and canonical.  Each
is compared, on seeded walks, with what the checked builder
(`validate_vertex`, `HRayClass.make`) returns on the same data; so are
moves, which build through `validate_vertex` from an element set, and
the basin a coexpansion keeps as its children.  The two sets a move
keeps are compared with their definition, and the one set equation of
`vertex_on_set` with the brute corner list of `cubex.oracle`.

The group layer checks a group element once, where it is parsed.
`assemble` asks one tiling rule of its pieces and is compared with the
checks it replaced, kept here as the reference; group actions build
unchecked and are compared with the checked builders.  The tiling test
`is_complete_code` is compared with its `_nested_pair` form, and the
entries `compose_entries` builds, unsorted, with the all-pairs
reference, which sorts them.
"""

import collections
import dataclasses
import itertools

import pytest

from cubex import (
    DuplicateElement,
    HGroupElement,
    HoughtonSystem,
    HPointClass,
    HRayClass,
    InputError,
    Move,
    MoveNotApplicable,
    NotABijection,
    OverlappingSupports,
    Vertex,
    VElement,
    VGroupElement,
    VSystem,
    apply_move,
    cube_vertices,
    validate_vertex,
)
from cubex import thompson
from cubex.core import _reached
from cubex.cubical import _admissible, vertex_on_set
from cubex.houghton import CrossBranchTail, HPiece, SparseRegion
from cubex.oracle import (
    brute_corners,
    random_cube_at,
    random_h_group,
    random_v_element,
    random_v_group,
    random_vertex,
    rng_from_seed,
)
from cubex.thompson import (
    BallRegion,
    IncompleteDomainCode,
    _merge_sorted,
    _nested_pair,
    _normalize_words,
    compose_entries,
    invert_entries,
    is_complete_code,
)

DEPTH = 6
WORDS = [
    "".join(bits)
    for n in range(DEPTH + 1)
    for bits in itertools.product("01", repeat=n)
]


def leaves(words, depth):
    """The depth-`depth` words below `words`, each read as a binary number."""
    out = set()
    for w in words:
        low = int("0" + w, 2) << (depth - len(w))
        out.update(range(low, low + (1 << (depth - len(w)))))
    return frozenset(out)


def test_normalize_words_matches_depth6_coverage():
    rng = rng_from_seed(11)
    for _ in range(10_000):
        words = [rng.choice(WORDS) for _ in range(rng.randint(0, 10))]
        # Bias toward sibling-rich inputs, where merges cascade.
        w = rng.choice(WORDS[:-64])
        if rng.random() < 0.5:
            words += [w + "0", w + "1"]
        out = _normalize_words(words)
        assert leaves(out, DEPTH) == leaves(words, DEPTH), words
        assert list(out) == sorted(set(out))
        for u, w in itertools.combinations(out, 2):
            assert not (u.startswith(w) or w.startswith(u)), (words, out)
            assert not (
                u[:-1] == w[:-1] and {u[-1:], w[-1:]} == {"0", "1"}
            ), (words, out)


def raw_sparse(rng, n):
    """Points and tails that `SparseRegion.make` has not yet normalized."""
    points = {
        (rng.randint(1, n), rng.randint(1, 6))
        for _ in range(rng.randint(0, 4))
    }
    tails = [
        (i, rng.randint(1, 7)) for i in range(1, n + 1) if rng.random() < 0.4
    ]
    return points, tails


def random_sparse_region(rng, n):
    return SparseRegion.make(*raw_sparse(rng, n))


def enumerate_points(points, tails, top):
    """The points at positions up to `top` that the points and the
    (branch, start) tails name; a branch may have several tails."""
    branches = {i for i, _ in points} | {i for i, _ in tails}
    return frozenset(
        (i, p)
        for i in branches
        for p in range(1, top + 1)
        if (i, p) in points or any(j == i and p >= k for j, k in tails)
    )


def as_sets(regions):
    """Each region as a finite set: a ball region as the leaves below its
    words at the family's greatest depth, a sparse region as its points
    up to two past the highest position the family names."""
    if all(isinstance(r, BallRegion) for r in regions):
        depth = max(len(w) for r in regions for w in r.words)
        return [leaves(r.words, depth) for r in regions]
    top = 2 + max(
        (p for r in regions for _, p in (*r.points, *r.tails)), default=0
    )
    return [enumerate_points(r.points, r.tails, top) for r in regions]


def test_sparse_region_kernels_match_enumeration():
    rng = rng_from_seed(13)
    for _ in range(5_000):
        n = rng.randint(1, 3)
        raws = [raw_sparse(rng, n), raw_sparse(rng, n)]
        a, b = (SparseRegion.make(*raw) for raw in raws)
        top = 2 + max(
            [p for raw in raws for _, p in (*raw[0], *raw[1])] + [0]
        )
        pa = enumerate_points(a.points, a.tails, top)
        pb = enumerate_points(b.points, b.tails, top)
        assert SparseRegion.all_disjoint((a, b)) == (not pa & pb), (a, b)
        # `make` names the points its input names, in normal form: one
        # sorted tail per branch, no point inside a tail or just below
        # it.  The joined input gives a branch two tails.
        joined = (raws[0][0] | raws[1][0], raws[0][1] + raws[1][1])
        for points, tails in raws + [joined]:
            r = SparseRegion.make(points, tails)
            want = enumerate_points(points, tails, top)
            assert enumerate_points(r.points, r.tails, top) == want, r
            starts = dict(r.tails)
            assert list(r.tails) == sorted(starts.items()), r
            assert not any(
                i in starts and p >= starts[i] - 1 for i, p in r.points
            ), r


def disjoint_families(system, stray, seed):
    """Support families from seeded random vertices: each vertex's own
    (disjoint), a subfamily of it, and the vertex's plus one duplicated,
    nested or stray support, shuffled."""
    rng = rng_from_seed(seed)
    low = system.base_vertex().height
    for _ in range(300):
        v = list(random_vertex(system, rng, rng.randint(low, low + 6)))
        regions = [b.support() for b in v]
        yield regions
        yield rng.sample(regions, rng.randint(1, len(regions)))
        b = rng.choice(v)
        extras = [b.support(), stray(rng)]
        if b.children() is not None:
            extras.append(rng.choice(b.children()).support())
        for extra in extras:
            family = regions + [extra]
            rng.shuffle(family)
            yield family


@pytest.mark.parametrize(
    "system, region_type, stray",
    [
        (
            VSystem(),
            BallRegion,
            lambda rng: BallRegion.make([rng.choice(WORDS)]),
        ),
        # Random points and tails: often a point inside a vertex's tail,
        # or a second tail on one of its branches.
        (
            HoughtonSystem(3),
            SparseRegion,
            lambda rng: random_sparse_region(rng, 3),
        ),
    ],
    ids=["v", "houghton"],
)
def test_all_disjoint_matches_every_pair(system, region_type, stray):
    outcomes = []
    for family in disjoint_families(system, stray, 29):
        want = all(
            not a & b for a, b in itertools.combinations(as_sets(family), 2)
        )
        assert region_type.all_disjoint(family) == want, family
        outcomes.append(want)
    assert outcomes.count(True) > 300 and outcomes.count(False) > 300


def walk_elements(system, seed):
    """Elements of seeded random vertices and of their expansions."""
    rng = rng_from_seed(seed)
    low = system.base_vertex().height
    for h in range(low, low + 6):
        v = random_vertex(system, rng, h)
        yield from v
        for b in v:
            if b.children() is not None:
                yield from apply_move(v, Move.expand(b))


def uncached_support(b):
    if isinstance(b, VElement):
        return BallRegion.make([g for _, g in b.table])
    if isinstance(b, HRayClass):
        return SparseRegion.make(b.exceptions, ((b.branch, b.tail),))
    return SparseRegion.make((b.image,), ())


def compared(b):
    return [getattr(b, f.name) for f in dataclasses.fields(b) if f.compare]


@pytest.mark.parametrize(
    "system, kinds",
    [(VSystem(), {VElement}), (HoughtonSystem(3), {HPointClass, HRayClass})],
    ids=["v", "houghton"],
)
def test_cached_element_data_matches_fresh_values(system, kinds):
    seen = []
    for b in walk_elements(system, 17):
        seen.append(type(b))
        first = (b.support(), b.key(), hash(b), b.children())
        # The second reads come from the caches.
        assert (b.support(), b.key(), hash(b), b.children()) == first
        assert b.children() is first[3]
        # The key and hash are cached, not derived anew.
        assert b._key == first[1] and b._hash == first[2]
        c = type(b)(*compared(b))  # the same value, with empty caches
        assert b == c and repr(b) == repr(c)
        assert first == (c.support(), c.key(), hash(c), c.children())
        assert b.support() == uncached_support(b)
        # The hash a frozen dataclass derives from its compared fields.
        assert hash(b) == hash(tuple(compared(b)))
    assert set(seen) == kinds and len(seen) > 50


def reference_validate(elements):
    """The pairwise scan `validate_vertex` must agree with, error for error."""
    sets = as_sets([b.support() for b in elements])
    for i in range(len(elements)):
        for j in range(i + 1, len(elements)):
            if elements[i] == elements[j]:
                return DuplicateElement, (i, j)
            if sets[i] & sets[j]:
                return OverlappingSupports, (i, j)
    return None, None


@pytest.mark.parametrize(
    "system", [VSystem(), HoughtonSystem(2)], ids=["v", "houghton"]
)
def test_validate_vertex_names_the_reference_pair(system):
    rng = rng_from_seed(19)
    errors = set()
    for _ in range(300):
        v = random_vertex(system, rng, rng.randint(2, 6))
        elements = list(v)
        b = rng.choice(elements)
        if rng.random() < 0.5 or b.children() is None:
            extra = b
        else:
            extra = rng.choice(b.children())
        elements.append(extra)
        rng.shuffle(elements)
        want = reference_validate(elements)
        with pytest.raises(want[0]) as err:
            validate_vertex(elements)
        assert type(err.value) is want[0]
        assert err.value.indices == want[1]
        errors.add(want[0])
    assert errors == {DuplicateElement, OverlappingSupports}


def test_vertex_hash_is_the_hash_of_its_elements():
    rng = rng_from_seed(23)
    for system in (VSystem(), HoughtonSystem(2)):
        for h in range(2, 7):
            v = random_vertex(system, rng, h)
            w = validate_vertex(list(reversed(v.elements)))
            assert hash(v) == hash((v.elements,)) == hash(w)
            assert v == w and repr(v) == repr(w)


SEEDS = [7, 1009]
SYSTEMS = pytest.mark.parametrize(
    "system",
    [VSystem(), HoughtonSystem(2), HoughtonSystem(3)],
    ids=["v", "houghton2", "houghton3"],
)


@SYSTEMS
@pytest.mark.parametrize("seed", SEEDS)
def test_moves_and_corners_match_validate_vertex(system, seed):
    # Equal element tuples: the same elements in the same order.
    rng = rng_from_seed(seed)
    low = system.base_vertex().height
    built = {"expand": 0, "contract": 0, "corner": 0}
    for h in range(low, low + 6):
        v = random_vertex(system, rng, h)
        for m in system.moves(v):
            elements = [b for b in v if b not in m.basin]
            if m.kind == "expand":
                elements += m.target.children()
            else:
                elements.append(m.target)
            rng.shuffle(elements)
            assert apply_move(v, m).elements == (
                validate_vertex(elements).elements
            ), (v, m)
            built[m.kind] += 1
        for dim in (1, 2, 3):
            c = random_cube_at(system, rng, v, dim)
            corners = cube_vertices(c)
            assert [w.elements for w in corners] == [
                w.elements for w in sorted(brute_corners(c), key=Vertex.key)
            ], c
            built["corner"] += len(corners)
    assert min(built.values()) > 10, built


@SYSTEMS
@pytest.mark.parametrize("seed", SEEDS)
def test_move_sets_match_their_definition(system, seed):
    # An expansion swaps {target} for its children; a contraction the
    # other way round.
    rng = rng_from_seed(seed)
    low = system.base_vertex().height
    kinds = {"expand": 0, "contract": 0}
    for h in range(low, low + 6):
        v = random_vertex(system, rng, h)
        for m in system.moves(v):
            one = frozenset((m.target,))
            kids = frozenset(m.target.children())
            if m.kind == "expand":
                assert (m.basin, m.gain) == (one, kids), (v, m)
            else:
                assert (m.basin, m.gain) == (kids, one), (v, m)
            assert _reached(v, m.basin, m.gain) == apply_move(v, m).as_set()
            kinds[m.kind] += 1
    assert min(kinds.values()) > 10, kinds


def test_moves_need_an_expandable_target():
    point = HPointClass((1, 1))
    for make in (Move.expand, Move.contract):
        with pytest.raises(MoveNotApplicable):
            make(point)


@SYSTEMS
@pytest.mark.parametrize("seed", SEEDS)
def test_vertex_on_set_matches_brute_corners(system, seed):
    # Every corner of a cube and every neighbour of one: `vertex_on_set`
    # finds a set iff the brute corner list holds the vertex, and that
    # set, expanded in the base, rebuilds it.
    rng = rng_from_seed(seed)
    low = system.base_vertex().height
    inside = outside = 0
    for h in range(low, low + 6):
        v = random_vertex(system, rng, h)
        for dim in (1, 2, 3):
            c = random_cube_at(system, rng, v, dim)
            corners = brute_corners(c)
            near = set(corners)
            for w in corners:
                near.update(apply_move(w, m) for m in system.moves(w))
            for w in near:
                on = vertex_on_set(c, w)
                assert (on is not None) == (w in corners), (c, w)
                if on is None:
                    outside += 1
                    continue
                assert on <= set(c.active), (c, w)
                elements = [b for b in c.base if b not in on]
                elements += [kid for b in on for kid in b.children()]
                assert validate_vertex(elements) == w, (c, w)
                inside += 1
    assert inside > 50 and outside > 150, (inside, outside)


@pytest.mark.parametrize("seed", SEEDS)
def test_halves_of_reduced_tables_are_reduced(seed):
    halves = 0
    for b in walk_elements(VSystem(), seed):
        for kid in b.children():
            assert _merge_sorted(kid.table) == kid.table, (b, kid)
            assert list(kid.table) == sorted(kid.table), (b, kid)
            halves += len(kid.table) > 1
    assert halves > 10


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("seed", SEEDS)
def test_ray_children_and_coexpansions_match_make(n, seed):
    system = HoughtonSystem(n)
    pool = set(walk_elements(system, seed))
    rays = [b for b in pool if isinstance(b, HRayClass)]
    points = [b for b in pool if isinstance(b, HPointClass)]
    peeled = 0
    for r in rays:
        if r.exceptions:
            want = HRayClass.make(r.branch, r.exceptions[1:], r.tail)
            assert r.children()[1] == want, r
            peeled += 1
    glued = 0
    for p in points:
        for r in rays:
            # `make` refuses the data exactly when p meets r's support:
            # p is one of r's exceptions or lies in its tail.
            try:
                want = [
                    HRayClass.make(r.branch, (p.image,) + r.exceptions, r.tail)
                ]
            except InputError:
                want = []
            assert system.coexpansions((p, r)) == want, (p, r)
            glued += bool(want)
    assert peeled > 5 and glued > 50 and glued < len(points) * len(rays)


@SYSTEMS
@pytest.mark.parametrize("seed", SEEDS)
def test_coexpansion_children_match_fresh_values(system, seed):
    # A coexpansion starts with its basin in the children cache.
    rng = rng_from_seed(seed)
    low = system.base_vertex().height
    glued = 0
    for h in range(low, low + 6):
        v = random_vertex(system, rng, h)
        for m in system.moves(v):
            if m.kind == "contract":
                t = m.target
                fresh = type(t)(*compared(t))  # the same value, no caches
                assert t.children() == fresh.children(), (v, m)
                assert v.as_set().issuperset(t.children())
                glued += 1
    assert glued > 10


# -- the group layer: one tiling rule, trusted actions ----------------------


def reference_v_assemble(system, pieces):
    """`VSystem.assemble` as it was: the checked table builder.  It lets
    OverlappingImages, an InputError, escape for nested image words."""
    entries = tuple(sorted(entry for piece in pieces for entry in piece))
    try:
        return VGroupElement.from_table(entries)
    except IncompleteDomainCode as err:
        raise NotABijection(str(err)) from err


def reference_h_assemble(system, pieces):
    """`HoughtonSystem.assemble` as it was: the pieces read as one point
    map plus one tail per branch, then the checked `HGroupElement.make`."""
    point_map = {}
    tail_domains = {}
    offsets = [None] * system.n
    for piece in pieces:
        for x, y in piece.point_pairs:
            if point_map.setdefault(x, y) != y:
                raise NotABijection(f"point {x} mapped twice")
        if piece.tail_pair is not None:
            (i, k), (j, l) = piece.tail_pair
            if i != j:
                raise CrossBranchTail("tail piece must stay within its branch")
            if i in tail_domains:
                raise NotABijection(f"branch {i} covered by two tail pieces")
            tail_domains[i] = k
            offsets[i - 1] = l - k
    if sorted(tail_domains) != list(range(1, system.n + 1)):
        raise NotABijection("every branch needs one tail piece")
    for i, k in tail_domains.items():
        for p in range(1, k):
            if (i, p) not in point_map:
                raise NotABijection(f"point ({i}, {p}) not covered")
    for (i, p) in point_map:
        if p >= tail_domains[i]:
            raise NotABijection(f"point ({i}, {p}) covered twice")
    return HGroupElement.make(system.n, offsets, point_map.items())


def reference_assemble(system, pieces):
    if isinstance(system, VSystem):
        return reference_v_assemble(system, pieces)
    return reference_h_assemble(system, pieces)


def outcome(assemble, system, pieces):
    """The assembled element, or the type of the InputError raised."""
    try:
        return assemble(system, pieces)
    except InputError as err:
        return type(err)


def pair_named_twice(pieces):
    """True iff two pieces share a (domain, image) pair.

    The old `houghton` rule read the pieces as one point map, so such a
    pair counted once there, though the pieces cover its point twice.
    """
    pairs = [
        pair
        for piece in pieces
        for pair in set(getattr(piece, "point_pairs", piece))
    ]
    return len(set(pairs)) < len(pairs)


def assemble_cases(system, seed):
    """(kind, pieces) over the admissible permutations of seeded vertices:
    the whole set, and the set with one piece dropped, one repeated, and
    one swapped for a piece between the elements of another vertex.  The
    permutations carry v onto itself ("whole") and onto another vertex u
    of its height ("onto"); only the latter move a `houghton` tail."""
    rng = rng_from_seed(seed)
    low = system.base_vertex().height
    for h in range(low + 1, low + 5):
        v = random_vertex(system, rng, h)
        u = random_vertex(system, rng, h)
        w = random_vertex(system, rng, rng.randint(low, low + 5))
        other = [system.transfer(a, b) for a in w for b in (*w, *v)]
        other = [piece for piece in other if piece is not None]
        for kind, target in (("whole", v), ("onto", u)):
            table = [[system.transfer(a, b) for b in target] for a in v]
            for perm in itertools.islice(_admissible(table), 30):
                pieces = [row[j] for row, j in zip(table, perm)]
                yield kind, pieces
                yield from broken_sets(rng, pieces, other)


def broken_sets(rng, pieces, other):
    i = rng.randrange(len(pieces))
    yield "dropped", pieces[:i] + pieces[i + 1:]
    yield "repeated", pieces + [pieces[i]]
    swapped = list(pieces)
    swapped[i] = rng.choice(other)
    yield "swapped", swapped


@SYSTEMS
@pytest.mark.parametrize("seed", SEEDS)
def test_assemble_matches_the_reference(system, seed):
    # Where the rule accepts, the reference builds the same element.
    # Where it rejects, it says NotABijection, and the reference rejects
    # too, unless two pieces share a pair (see `pair_named_twice`).
    seen = collections.Counter()
    for kind, pieces in assemble_cases(system, seed):
        want = outcome(reference_assemble, system, pieces)
        got = outcome(type(system).assemble, system, pieces)
        if isinstance(got, type):
            assert got is NotABijection, (kind, pieces)
            assert isinstance(want, type) or pair_named_twice(pieces), (
                kind,
                pieces,
            )
        else:
            assert got == want and got.key() == want.key(), (kind, pieces)
        seen[kind, isinstance(got, type)] += 1
    for kind in ("whole", "onto"):
        assert seen[kind, False] > 20 and not seen[kind, True], seen
    for kind in ("dropped", "repeated", "swapped"):
        assert seen[kind, True] > 20, seen


def test_assemble_refuses_a_cross_branch_tail():
    system = HoughtonSystem(2)
    v = random_vertex(system, rng_from_seed(7), 5)
    pieces = [system.transfer(b, b) for b in v]
    for i, piece in enumerate(pieces):
        if piece.tail_pair is not None:
            (_, k), (j, l) = piece.tail_pair
            broken = list(pieces)
            broken[i] = HPiece(piece.point_pairs, ((3 - j, k), (j, l)))
            for assemble in (reference_h_assemble, HoughtonSystem.assemble):
                assert outcome(assemble, system, broken) is CrossBranchTail


def h_piece(pairs, tail=None):
    return HPiece(tuple(pairs), tail)


@pytest.mark.parametrize(
    "system, pieces",
    [
        (VSystem(), [(("0", "0"),), (("0", "1"),)]),
        (VSystem(), [(("0", "0"),), (("1", "0"),)]),
        (VSystem(), [(("0", "0"),), (("1", "00"),)]),
        (
            HoughtonSystem(2),
            [
                h_piece([((1, 1), (1, 1))]),
                h_piece([((1, 1), (2, 1))]),
                h_piece([], ((1, 2), (1, 2))),
                h_piece([], ((2, 1), (2, 2))),
            ],
        ),
        (
            HoughtonSystem(2),
            [
                h_piece([((1, 1), (1, 1))]),
                h_piece([((2, 1), (1, 1))]),
                h_piece([], ((1, 2), (1, 2))),
                h_piece([], ((2, 2), (2, 1))),
            ],
        ),
    ],
    ids=["v-domain", "v-image", "v-nested-image", "h-domain", "h-image"],
)
def test_assemble_says_not_a_bijection_on_either_side(system, pieces):
    # Nested image words once escaped as OverlappingImages.
    with pytest.raises(NotABijection):
        system.assemble(pieces)


@pytest.mark.parametrize(
    "offsets, exceptions, message",
    [
        ((-1, 1), {(2, 1): (1, 1)}, "has no valid image"),
        ((0, 0), {(1, 1): (1, 3), (1, 2): (1, 3)}, "share an image"),
    ],
)
def test_make_checks_a_bijection(offsets, exceptions, message):
    with pytest.raises(NotABijection, match=message):
        HGroupElement.make(2, offsets, exceptions)


def reference_h_act(g, b):
    """`HoughtonSystem.act` on a ray as it was: ending in the checked
    `HRayClass.make`."""
    top = max((p for (i, p), _ in g.exceptions if i == b.branch), default=0)
    t = g.offsets[b.branch - 1]
    peel = max(0, top - b.tail + 1, 1 - t - b.tail)
    images = [g.apply(y) for y in b.exceptions]
    images += [g.apply((b.branch, b.tail + j)) for j in range(peel)]
    return HRayClass.make(b.branch, images, b.tail + peel + t)


@SYSTEMS
@pytest.mark.parametrize("seed", SEEDS)
def test_actions_match_the_checked_builders(system, seed):
    rng = rng_from_seed(seed)
    low = system.base_vertex().height
    rays = 0
    for h in range(low, low + 6):
        v = random_vertex(system, rng, h)
        for _ in range(3):
            if isinstance(system, VSystem):
                g = random_v_group(rng, 3)
            else:
                g = random_h_group(rng, system.n)
            images = [system.act(g, b) for b in v]
            assert system.act_vertex(g, v).elements == (
                validate_vertex(images).elements
            ), (g, v)
            for b, gb in zip(v, images):
                if isinstance(b, HRayClass):
                    assert gb == reference_h_act(g, b), (g, b)
                    assert compared(gb) == compared(reference_h_act(g, b))
                    rays += 1
    assert isinstance(system, VSystem) or rays > 20


# -- the group layer: table composition, cached keys and regions -------------


def reference_merge_sorted(entries):
    """`_merge_sorted` as it was: ten string tests per candidate pair."""
    stack = []
    for entry in entries:
        stack.append(entry)
        while len(stack) >= 2:
            (d1, g1), (d2, g2) = stack[-2], stack[-1]
            if (
                d1
                and d2
                and g1
                and g2
                and d1[:-1] == d2[:-1]
                and d1[-1] == "0"
                and d2[-1] == "1"
                and g1[:-1] == g2[:-1]
                and g1[-1] == "0"
                and g2[-1] == "1"
            ):
                stack.pop()
                stack.pop()
                stack.append((d1[:-1], g1[:-1]))
            else:
                break
    return tuple(stack)


def reference_compose_raw(outer, inner):
    """Every overlap of an inner image with an outer domain, from all
    pairs of entries, sorted but not merged."""
    out = []
    for a, b in inner:
        for c, d in outer:
            if b.startswith(c):
                out.append((a, d + b[len(c):]))
            elif c.startswith(b) and len(c) > len(b):
                out.append((a + c[len(b):], d))
    return sorted(out)


def composed_tables(seed):
    """(outer, inner) table pairs: group by group, group by element, and
    the partial tables `transfer` composes, whose inner table is an
    inverted element table."""
    rng = rng_from_seed(seed)
    system = VSystem()
    for depth in (2, 3, 4, 5):
        for _ in range(60):
            g = random_v_group(rng, depth)
            yield g.table, random_v_group(rng, depth).table
            yield g.table, random_v_element(rng, depth).table
    for h in range(2, 7):
        for _ in range(4):
            v = random_vertex(system, rng, h)
            for a, b in itertools.product(v, repeat=2):
                yield b.table, invert_entries(a.table)


@pytest.mark.parametrize("seed", SEEDS)
def test_compose_entries_matches_the_all_pairs_reference(seed):
    # Both kinds of overlap must occur: an outer domain covering an
    # inner image, and outer domains splitting one.
    covered = split = 0
    for outer, inner in composed_tables(seed):
        raw = reference_compose_raw(outer, inner)
        want = reference_merge_sorted(raw)
        assert compose_entries(outer, inner) == want, (outer, inner)
        assert _merge_sorted(raw) == want, raw
        domains = {a for a, _ in inner}
        covered += sum(a in domains for a, _ in raw)
        split += sum(a not in domains for a, _ in raw)
    assert covered > 500 and split > 500, (covered, split)


@pytest.mark.parametrize("seed", SEEDS)
def test_compose_entries_builds_its_entries_in_domain_order(seed, monkeypatch):
    # The raw list handed to `_merge_sorted` needs no sort.
    raws = []

    def recording(entries):
        raws.append(list(entries))
        return _merge_sorted(entries)

    monkeypatch.setattr(thompson, "_merge_sorted", recording)
    for outer, inner in composed_tables(seed):
        raws.clear()
        compose_entries(outer, inner)
        (raw,) = raws
        assert raw == reference_compose_raw(outer, inner), (outer, inner)


def split_table(rng, table):
    """The table with entries cut, at random, into sibling halves."""
    out = []
    for d, g in table:
        if len(d) > 5 or rng.random() < 0.5:
            out.append((d, g))
        else:
            halves = [(d + c, g + c) for c in "01"]
            out.extend(split_table(rng, halves))
    return out


@pytest.mark.parametrize("seed", SEEDS)
def test_merge_sorted_matches_the_ten_condition_reference(seed):
    # Refined tables merge back in cascades; random sorted pairs, the
    # empty word among them, mostly do not merge.
    rng = rng_from_seed(seed)
    merged = 0
    for _ in range(500):
        table = random_v_group(rng, rng.randint(1, 4)).table
        entries = sorted(split_table(rng, table))
        assert _merge_sorted(entries) == table == reference_merge_sorted(
            entries
        )
        merged += len(entries) > len(table)
        pairs = sorted(
            (rng.choice(WORDS[:31]), rng.choice(WORDS[:31]))
            for _ in range(rng.randint(0, 12))
        )
        assert _merge_sorted(pairs) == reference_merge_sorted(pairs), pairs
    assert merged > 300


def reference_is_complete_code(words):
    """`is_complete_code` as it was: `_nested_pair`, then the measures."""
    ws = list(words)
    if _nested_pair(ws):
        return False
    top = max((len(w) for w in ws), default=0)
    return sum(1 << (top - len(w)) for w in ws) == 1 << top


def code_word_lists(seed):
    """Complete codes, in shuffled order, and the same with a word
    repeated, a word nested under another, a word left out, a word
    swapped for a copy of its sibling (a repeat whose measures still sum
    to one), and random word lists."""
    rng = rng_from_seed(seed)
    yield []
    yield ["0", "00", "01"]  # nested, with measures summing to one
    for _ in range(300):
        table = random_v_group(rng, rng.randint(1, 4)).table
        code = [d for d, _ in split_table(rng, table)]
        rng.shuffle(code)
        yield code
        yield code + [rng.choice(code)]
        yield code + [rng.choice(code) + rng.choice(["0", "1", "01"])]
        yield code[1:]
        deepest = max(code, key=len)
        if deepest:
            sibling = deepest[:-1] + "10"[int(deepest[-1])]
            yield [sibling if w == deepest else w for w in code]
        yield [rng.choice(WORDS) for _ in range(rng.randint(0, 8))]


@pytest.mark.parametrize("seed", SEEDS)
def test_is_complete_code_matches_the_nested_pair_reference(seed):
    verdicts = collections.Counter()
    for words in code_word_lists(seed):
        want = reference_is_complete_code(words)
        assert is_complete_code(iter(words)) == want, words
        verdicts[want] += 1
    assert verdicts[True] > 250 and verdicts[False] > 1000, verdicts


def fresh_group_key(g):
    if isinstance(g, VGroupElement):
        return ",".join(f"{d}->{w}" for d, w in g.table)
    offsets = ",".join(str(t) for t in g.offsets)
    exc = ";".join(f"{x[0]}.{x[1]}>{y[0]}.{y[1]}" for x, y in g.exceptions)
    return f"g{offsets}:{exc}"


def group_elements(seed):
    """Seeded group elements of both systems, with products and inverses."""
    rng = rng_from_seed(seed)
    for _ in range(40):
        for make in (
            lambda: random_v_group(rng, 4),
            lambda: random_h_group(rng, 2),
            lambda: random_h_group(rng, 3, spread=3),
        ):
            g, h = make(), make()
            yield from (g, h, g * h, g.inverse())


def reference_apply(g, x):
    for p, y in g.exceptions:
        if p == x:
            return y
    i, p = x
    return (i, p + g.offsets[i - 1])


def reference_preimage(g, y):
    for x, q in g.exceptions:
        if q == y:
            return x
    i, q = y
    return (i, q - g.offsets[i - 1])


@pytest.mark.parametrize("seed", SEEDS)
def test_cached_group_data_matches_fresh_values(seed):
    kinds = collections.Counter()
    for g in group_elements(seed):
        cold = type(g)(*compared(g))  # the same value, with empty caches
        key = g.key()
        assert key == fresh_group_key(g) and g.key() is key, g
        assert g._key == key
        if isinstance(g, HGroupElement):
            top = 3 + max(
                (p for pair in g.exceptions for _, p in pair), default=0
            )
            for x in itertools.product(range(1, g.n + 1), range(1, top)):
                assert g.apply(x) == reference_apply(g, x), (g, x)
                assert g.preimage(x) == reference_preimage(g, x), (g, x)
                assert g.preimage(g.apply(x)) == x, (g, x)
            assert g._images == dict(g.exceptions)
        # The caches take no part in equality, hashing or repr.
        assert g == cold and repr(g) == repr(cold) and hash(g) == hash(cold)
        assert hash(g) == hash(tuple(compared(g)))
        assert cold.key() == key
        kinds[type(g)] += 1
    assert kinds[VGroupElement] > 100 and kinds[HGroupElement] > 200


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("seed", SEEDS)
def test_piece_regions_match_fresh_regions(n, seed):
    system = HoughtonSystem(n)
    rng = rng_from_seed(seed)
    pieces = tails = 0
    for h in range(n + 1, n + 6):
        # Between two vertices, so that a tail can move.
        v, u = (random_vertex(system, rng, h) for _ in "vu")
        for a, b in itertools.product(v, u):
            piece = system.transfer(a, b)
            if piece is None:
                continue
            cold = HPiece(piece.point_pairs, piece.tail_pair)
            ends = [(), ()]
            if piece.tail_pair is not None:
                ends = [[piece.tail_pair[0]], [piece.tail_pair[1]]]
                tails += ends[0] != ends[1]
            pieces += 1
            regions = piece.regions()
            assert regions == (
                SparseRegion.make([x for x, _ in piece.point_pairs], ends[0]),
                SparseRegion.make([y for _, y in piece.point_pairs], ends[1]),
            ), piece
            assert regions == (a.support(), b.support())
            assert piece.regions() is regions
            assert piece == cold and repr(piece) == repr(cold)
    assert pieces > 50 and tails > 5, (pieces, tails)
