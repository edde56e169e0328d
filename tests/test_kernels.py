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
"""

import dataclasses
import itertools

import pytest

from cubex import (
    DuplicateElement,
    HoughtonSystem,
    HPointClass,
    HRayClass,
    InputError,
    Move,
    MoveNotApplicable,
    OverlappingSupports,
    Vertex,
    VElement,
    VSystem,
    apply_move,
    cube_vertices,
    validate_vertex,
)
from cubex.cubical import vertex_on_set
from cubex.houghton import SparseRegion
from cubex.oracle import (
    brute_corners,
    random_cube_at,
    random_vertex,
    rng_from_seed,
)
from cubex.thompson import BallRegion, _merge_sorted, _normalize_words

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
            assert m.after(v.as_set()) == apply_move(v, m).as_set()
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
