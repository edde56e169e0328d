"""Cubes, links, intersections, joins, exploration, stabilizers."""

import collections
import functools
import itertools
import math
import random
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubex import (
    CapExceeded,
    Cube,
    CubeComplex,
    DuplicateElement,
    FlagReport,
    HGroupElement,
    HoughtonSystem,
    InputError,
    Move,
    MoveNotApplicable,
    VElement,
    VGroupElement,
    VSystem,
    apply_move,
    cube_intersection,
    cube_vertices,
    graph_to_dot,
    graph_to_json_obj,
    intersection_lemma_check,
    validate_vertex,
    vertex_in_cube,
)
from cubex import core, cubical, houghton, thompson, verify
from cubex.core import AscendingPath
from cubex.cubical import (
    _class_generators,
    _cliques,
    _transfer_classes,
)
from cubex.oracle import (
    brute_corners,
    brute_cube_intersection,
    brute_neighbor_count,
    brute_neighbors,
    brute_square_test,
    brute_stabilizer,
    check_closed,
    random_cube_at,
    random_vertex,
    rng_from_seed,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)

vs = VSystem()
cx = CubeComplex(vs)


def ball(w):
    return VElement((("", w),))


def fig_vertex():
    return validate_vertex([ball("0"), ball("10"), ball("11")])


def fig_square():
    return Cube.make(fig_vertex(), [ball("0"), ball("10")])


# -- moves ----------------------------------------------------------------------


def test_moves_at_base_vertex():
    v = validate_vertex([ball("")])
    moves = cx.moves_at(v)
    assert len(moves) == 1 and moves[0].kind == "expand"


def test_moves_at_halves():
    v = validate_vertex([ball("0"), ball("1")])
    moves = cx.moves_at(v)
    kinds = sorted(m.kind for m in moves)
    assert kinds == ["contract", "contract", "expand", "expand"]
    targets = {m.target.key() for m in moves if m.kind == "contract"}
    assert targets == {"->", "0->1,1->0"}


@given(seeds)
@settings(max_examples=30, deadline=None)
def test_move_count_law_and_neighbor_injectivity(seed):
    rng = random.Random(seed)
    k = rng.randint(1, 6)
    v = random_vertex(vs, rng, k)
    moves = cx.moves_at(v)
    assert len(moves) == k + k * (k - 1)
    neighbors = [apply_move(v, m) for m in moves]
    assert len(set(neighbors)) == len(neighbors)
    assert len(set(neighbors)) == brute_neighbor_count(vs, v)
    # adjacency is symmetric: each neighbor sees v among its neighbors
    for w in neighbors[:4]:
        assert v in {u for _, u in cx.neighbors(w)}
    # no two adjacent vertices share a height
    assert all(w.height != v.height for w in neighbors)


# -- cubes ----------------------------------------------------------------------


def test_cubes_at_fig_vertex_counts():
    cubes = cx.cubes_at(fig_vertex(), 2)
    dims = sorted(c.dim for c in cubes)
    assert dims == [0] + [1] * 9 + [2] * 9
    assert fig_square() in cubes
    # every cube lists v among its corners, and all corners stay full-support
    assert all(vertex_in_cube(c, fig_vertex()) for c in cubes)
    for c in cubes:
        assert all(vs.is_full_support(w) for w in cube_vertices(c))


def test_maximal_all_expansion_cube():
    v = fig_vertex()
    cubes = [c for c in cx.cubes_at(v, 3) if c.dim == 3]
    assert len(cubes) == 1
    top = cubes[0]
    assert top.base == v and set(top.active) == set(v.elements)
    assert len(cube_vertices(top)) == 8


def test_cube_vertices_of_fig_square():
    got = {w.key() for w in cube_vertices(fig_square())}
    assert got == {
        "->0|->10|->11",
        "->00|->01|->10|->11",
        "->0|->100|->101|->11",
        "->00|->01|->100|->101|->11",
    }


def test_zero_and_one_dim_cubes():
    v = fig_vertex()
    assert cube_vertices(Cube.make(v, [])) == [v]
    edge = Cube.make(v, [ball("0")])
    assert set(cube_vertices(edge)) == {
        v,
        apply_move(v, Move.expand(ball("0"))),
    }


def test_cube_make_rejects_bad_active():
    with pytest.raises(InputError):
        Cube.make(fig_vertex(), [ball("1")])


def test_cube_make_names_a_repeated_active_element():
    with pytest.raises(DuplicateElement) as err:
        Cube.make(fig_vertex(), [ball("0"), ball("10"), ball("0")])
    assert err.value.indices == (0, 2)


# -- intersections -----------------------------------------------------------------


def test_cube_self_intersection():
    c = fig_square()
    assert cube_intersection(c, c) == c


def test_squares_sharing_an_edge():
    c1 = fig_square()
    b00, b01 = ball("0").children()
    other_base = validate_vertex([b00, b01, ball("10"), ball("11")])
    c2 = Cube.make(other_base, [b01, ball("10")])
    got = cube_intersection(c1, c2)
    assert got.dim == 1
    assert set(cube_vertices(got)) == brute_cube_intersection(c1, c2)
    assert len(brute_cube_intersection(c1, c2)) == 2


def test_disjoint_cubes():
    c1 = Cube.make(fig_vertex(), [ball("10")])
    far = validate_vertex(
        [b for w in ("00", "01") for b in (ball(w),)]
        + [ball("100"), ball("101"), ball("11")]
    )
    c2 = Cube.make(far, [ball("100")])
    assert cube_intersection(c1, c2) is None
    assert brute_cube_intersection(c1, c2) == set()


def test_lemma_check_vacuous_and_constructed():
    c1 = fig_square()
    rep = intersection_lemma_check(c1, c1)
    assert rep.passed
    b00, b01 = ball("0").children()
    other_base = validate_vertex([b00, b01, ball("10"), ball("11")])
    c2 = Cube.make(other_base, [b01, ball("10")])
    # c2's base holds b00, b01 = basin of ball("0"), active in c1
    rep = intersection_lemma_check(c2, c1)
    assert rep.hypotheses and rep.passed
    assert intersection_lemma_check(c1, c2).passed


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_intersection_matches_brute_force(seed):
    rng = random.Random(seed)
    system = vs if rng.random() < 0.5 else HoughtonSystem(2)
    sx = CubeComplex(system)
    v = random_vertex(
        system, rng, system.base_vertex().height + rng.randint(0, 3)
    )
    c1 = random_cube_at(system, rng, v, 4)
    w = rng.choice(cube_vertices(c1))
    c2 = random_cube_at(system, rng, w, 4)
    got = cube_intersection(c1, c2)
    want = brute_cube_intersection(c1, c2)
    assert got is not None and set(cube_vertices(got)) == want
    assert intersection_lemma_check(c1, c2).passed
    assert intersection_lemma_check(c2, c1).passed
    assert got in sx.cubes_at(got.base, got.dim)


def enumerating_lemma_check(c1, c2):
    """`intersection_lemma_check`'s verdict and shared count as the loop
    it replaced computed them: every corner of c1 tested for membership
    of c2, and each hypothesis tested against every shared corner."""
    hypotheses = [b for b in c1.base for b2 in c2.active if b in b2.children()]
    shared = [w for w in cube_vertices(c1) if vertex_in_cube(c2, w)]
    passed = all(b in w for b in hypotheses for w in shared)
    return passed, len(shared)


PAIR_KINDS = ("corner", "base", "unrelated")


def seeded_cube_pair(system, rng, kind, max_dim):
    """Two random cubes: the second through a corner of the first, through
    its base, or through an unrelated vertex (then mostly disjoint)."""
    low = system.base_vertex().height
    c1 = random_cube_at(
        system, rng, random_vertex(system, rng, low + rng.randint(0, 9)),
        max_dim,
    )
    if kind == "corner":
        w = rng.choice(cube_vertices(c1))
    elif kind == "base":
        w = c1.base
    else:
        w = random_vertex(system, rng, low + rng.randint(0, 9))
    return c1, random_cube_at(system, rng, w, max_dim)


@pytest.mark.parametrize("seed", [7, 1009])
@pytest.mark.parametrize(
    "system",
    [vs, HoughtonSystem(2), HoughtonSystem(3)],
    ids=["v", "houghton2", "houghton3"],
)
def test_intersection_walk_matches_enumeration(system, seed):
    rng = rng_from_seed(seed)
    meets = {kind: 0 for kind in PAIR_KINDS}
    for _ in range(30):
        for kind in PAIR_KINDS:
            c1, c2 = seeded_cube_pair(system, rng, kind, 8)
            got = cube_intersection(c1, c2)
            want = brute_cube_intersection(c1, c2)
            assert (set() if got is None else set(cube_vertices(got))) == want
            # The meet is built unchecked; the checked builder agrees.
            assert got is None or got == Cube.make(got.base, got.active)
            for a, b in ((c1, c2), (c2, c1)):
                rep = intersection_lemma_check(a, b)
                want = enumerating_lemma_check(a, b)
                assert (rep.passed, rep.shared) == want
            meets[kind] += got is not None
    # Pairs through one vertex always meet; unrelated ones mostly do not.
    assert meets["corner"] == meets["base"] == 30
    assert meets["unrelated"] < 15


@given(seeds, st.sampled_from(PAIR_KINDS))
@settings(max_examples=40, deadline=None)
def test_intersection_corners_lie_in_both_cubes(seed, kind):
    rng = random.Random(seed)
    system = rng.choice([vs, HoughtonSystem(2), HoughtonSystem(3)])
    c1, c2 = seeded_cube_pair(system, rng, kind, 5)
    got = cube_intersection(c1, c2)
    if got is None:
        return
    for w in cube_vertices(got):
        assert vertex_in_cube(c1, w) and vertex_in_cube(c2, w)
        assert w.height >= got.base.height


def test_cube_questions_list_no_corners(monkeypatch):
    def refuse(c):
        raise AssertionError("corners listed")

    # The flag reports are taken before corner listing is refused, and
    # the meets are checked against the oracle, which lists its own.
    rng = rng_from_seed(7)
    cases = []
    for system in (vs, HoughtonSystem(2), HoughtonSystem(3)):
        v = random_vertex(system, rng, system.base_vertex().height + 3)
        flag = CubeComplex(system).check_flag(v, 3)
        pairs = [seeded_cube_pair(system, rng, k, 4) for k in PAIR_KINDS]
        cases.append((system, v, flag, pairs))

    # The sixteen depth-4 balls, all active, against the cube based at
    # its corner with the first eight expanded, with the other eight and
    # one child of each expanded ball active: a meet of dimension 8.
    words = [format(i, "04b") for i in range(16)]
    balls = [ball(w) for w in words]
    big = Cube.make(validate_vertex(balls), balls)
    halves = [ball(w + d) for w in words[:8] for d in "01"]
    corner = validate_vertex(halves + balls[8:])
    half = Cube.make(corner, halves[::2] + balls[8:])
    # A cube that keeps ball 000 collapsed can share nothing with `big`.
    far = Cube.make(validate_vertex([ball("000")] + balls[2:]), balls[2:])

    monkeypatch.setattr(cubical, "cube_vertices", refuse)
    for system, v, flag, pairs in cases:
        assert CubeComplex(system).check_flag(v, 3) == flag
        for c1, c2 in pairs:
            meet = cube_intersection(c1, c2)
            corners = set() if meet is None else brute_corners(meet)
            assert corners == brute_cube_intersection(c1, c2)
            assert intersection_lemma_check(c1, c2).shared == len(corners)

    assert cube_intersection(big, big) == big
    assert intersection_lemma_check(big, big).shared == 2**16
    meet = cube_intersection(big, half)
    assert meet == cube_intersection(half, big)
    assert meet.base == corner and meet.dim == 8
    for a, b in ((big, half), (half, big)):
        rep = intersection_lemma_check(a, b)
        assert rep.passed and rep.shared == 2**8
    assert cube_intersection(big, far) is None
    assert intersection_lemma_check(far, big).shared == 0


# -- links and the flag condition -----------------------------------------------------


def test_link_of_halves():
    v = validate_vertex([ball("0"), ball("1")])
    link = cx.link(v)
    assert len(link.moves) == 4
    assert len(link.edges()) == 1
    (i, j), = link.edges()
    assert link.moves[i].kind == link.moves[j].kind == "expand"
    rep = cx.check_flag(v, 4)
    assert rep.passed


def test_flag_clique_yields_cube():
    v = fig_vertex()
    moves = [Move.expand(b) for b in v]
    cube = cx.cube_from_moves(v, moves)
    assert cube.dim == 3
    assert vertex_in_cube(cube, v)
    for m in moves:
        assert vertex_in_cube(cube, apply_move(v, m))


@given(seeds)
@settings(max_examples=20, deadline=None)
def test_flag_on_random_vertices(seed):
    rng = random.Random(seed)
    system = vs if rng.random() < 0.5 else HoughtonSystem(2)
    sx = CubeComplex(system)
    v = random_vertex(
        system, rng, system.base_vertex().height + rng.randint(0, 3)
    )
    assert sx.check_flag(v, 4).passed


@given(seeds)
@settings(max_examples=20, deadline=None)
def test_square_exists_iff_basins_disjoint(seed):
    rng = random.Random(seed)
    v = random_vertex(vs, rng, rng.randint(2, 4))
    moves = cx.moves_at(v)
    for _ in range(10):
        m1, m2 = rng.sample(moves, 2)
        assert brute_square_test(vs, v, m1, m2) == m1.basin.isdisjoint(
            m2.basin
        )


def reference_pairs(moves):
    """The disjoint-basin index pairs, each pair tested on its own."""
    n = len(moves)
    return frozenset(
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if moves[i].basin.isdisjoint(moves[j].basin)
    )


def reference_cliques(moves, max_size):
    """The cliques of the link as first enumerated: each candidate tested
    against every member of the clique, with no table of pairs."""

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


def reference_cube_from_moves(v, moves):
    """`cube_from_moves` as it was: the contractions applied one at a time
    by `apply_move`, so each base is checked by `validate_vertex`."""
    cur = v
    for m in moves:
        if m.kind == "contract":
            cur = apply_move(cur, m)
    return Cube.make(cur, [m.target for m in moves])


def reference_check_flag(cx, v, max_clique):
    """`check_flag` as the loop it replaced computed it: each move pair
    tested against the corner set of every passed 2-cube, with the
    cliques, bases, neighbours and edges of the references above, and
    corners tested by `vertex_in_cube`.  When two moves reach the same
    neighbour, the report fails with no clique checked."""
    nodes = cx.moves_at(v)
    neighbors = [apply_move(v, m) for m in nodes]
    edges = reference_pairs(nodes)
    if len(set(neighbors)) != len(neighbors):
        return FlagReport(v, len(nodes), len(edges), 0, (), (), False)
    failures = []
    checked = 0
    two_cliques = {}
    for clique in reference_cliques(nodes, max_clique):
        if not clique:
            continue
        checked += 1
        moves = [nodes[i] for i in clique]
        try:
            cube = reference_cube_from_moves(v, moves)
            ok = vertex_in_cube(cube, v) and all(
                vertex_in_cube(cube, neighbors[i]) for i in clique
            )
        except InputError:
            ok = False
        if not ok:
            failures.append(tuple(moves))
        elif len(clique) == 2:
            two_cliques[clique] = set(cube_vertices(cube))
    mismatches = []
    n = len(nodes)
    for i in range(n):
        for j in range(i + 1, n):
            wanted = {v, neighbors[i], neighbors[j]}
            square = any(wanted <= verts for verts in two_cliques.values())
            if square != ((i, j) in edges):
                mismatches.append((nodes[i], nodes[j]))
    return FlagReport(
        v, n, len(edges), checked, tuple(failures), tuple(mismatches)
    )


def expandable_child(b):
    return next(kid for kid in b.children() if kid.children() is not None)


def untiled(coexpansions, v, rule):
    """`coexpansions` with the tiling contract broken: each coexpansion
    whose key hashes (crc32) to 0 mod 3 is swapped for an element whose
    children are not its basin.
    - "below": an expandable grandchild of it, whose children lie
      outside the link;
    - "inside": its expandable child, an element of the basin, so two
      contractions that share an element can reach the same neighbour;
    - "elsewhere", only for a basin's first coexpansion: the first
      expandable element of v outside the basin, which a later
      contraction of a clique can take out of its base.
    """

    def broken(elements):
        out = list(coexpansions(elements))
        for i, t in enumerate(out):
            if zlib.crc32(t.key().encode()) % 3:
                continue
            if rule == "below":
                out[i] = expandable_child(expandable_child(t))
            elif rule == "inside":
                out[i] = expandable_child(t)
            elif i == 0:
                out[i] = next(
                    (b for b in v if b not in elements and b.children()), t
                )
        return out

    return broken


def flag_outcome(check, *args):
    """check(*args), or the type of the InputError it raised."""
    try:
        return check(*args)
    except InputError as e:
        return type(e)


@pytest.mark.parametrize("seed", [7, 1009])
@pytest.mark.parametrize(
    "system",
    [vs, HoughtonSystem(2), HoughtonSystem(3)],
    ids=["v", "houghton2", "houghton3"],
)
def test_square_index_matches_the_reference_loop(system, seed, monkeypatch):
    # The flag check on the link's masks against the object loop: one
    # seeded vertex per height, from the base to base+5, each with
    # max_clique 2, 3 and 6, the stock `coexpansions` and three that
    # break the tiling contract, so that cliques fail, squares go
    # missing, mismatches occur and neighbours coincide.  The reports,
    # or the errors raised, are equal.  With the stock one, `cubes_at`
    # builds the cube `cube_from_moves` spans on every clique.
    sx = CubeComplex(system)
    stock = system.coexpansions
    rng = rng_from_seed(seed)
    low = system.base_vertex().height
    vertices = [random_vertex(system, rng, h) for h in range(low, low + 6)]
    seen = collections.Counter()
    for v in vertices:
        for rule in (None, "below", "inside", "elsewhere"):
            broken = stock if rule is None else untiled(stock, v, rule)
            monkeypatch.setattr(system, "coexpansions", broken)
            for k in (2, 3, 6):
                got = flag_outcome(sx.check_flag, v, k)
                want = flag_outcome(reference_check_flag, sx, v, k)
                assert got == want, (v, rule, k)
                if isinstance(got, FlagReport):
                    seen[rule, got.passed] += 1
                    seen[rule, "repeated"] += not got.neighbor_map_injective
                    seen["mismatches"] += len(got.square_mismatches)
                else:
                    seen[rule, got] += 1
            if rule is None:
                link = sx.link(v)
                moves = link.moves
                walk = _cliques(link, 6)
                assert sx.cubes_at(v, 6) == [
                    sx.cube_from_moves(v, [moves[i] for i in clique])
                    for clique, _, _ in walk
                ]
    assert seen[None, True] == 18
    for rule in ("below", "inside", "elsewhere"):
        assert seen[rule, False] > 0, rule
    assert seen["inside", "repeated"] > 0
    assert seen["mismatches"] > 5


def test_check_flag_refuses_cliques_below_two():
    # The square mismatches are the failed 2-cliques, so a walk that
    # stops short of them would miss every square.
    v = random_vertex(vs, rng_from_seed(7), 3)
    assert len(cx.link(v).edges()) == 9
    for k in (0, 1):
        with pytest.raises(InputError, match="max_clique must be at least 2"):
            cx.check_flag(v, k)
    assert cx.check_flag(v, 2).passed


def test_flag_condition_check_fails_on_a_repeated_neighbour(monkeypatch):
    # With coexpansions that reach one neighbour by two contractions,
    # `verify` reports the vertices that fail and raises nothing.
    for cls in (VSystem, HoughtonSystem):
        stock = cls.coexpansions

        def broken(system, elements, stock=stock):
            inside = untiled(functools.partial(stock, system), None, "inside")
            return inside(elements)

        monkeypatch.setattr(cls, "coexpansions", broken)
    result = verify.check_flag_condition(seed=7)
    assert not result.passed
    assert result.line().startswith("FAIL flag-condition: 40 vertices")


# -- joins ------------------------------------------------------------------------------


def test_join_of_base_and_fig_vertex():
    w, p1, p2 = cx.join(validate_vertex([ball("")]), fig_vertex())
    assert w == fig_vertex()
    assert p1.check() and p2.check()
    assert p1.end == w and p2.end == w


def test_join_with_self_is_standard_endpoint():
    v = fig_vertex()
    w, p1, p2 = cx.join(v, v)
    assert w == v and len(p1) == 0 and len(p2) == 0


@given(seeds)
@settings(max_examples=30, deadline=None)
def test_join_dominates_with_unit_steps(seed):
    rng = random.Random(seed)
    v1 = random_vertex(vs, rng, rng.randint(1, 5))
    v2 = random_vertex(vs, rng, rng.randint(1, 5))
    w, p1, p2 = cx.join(v1, v2)
    for path in (p1, p2):
        assert path.check()
        heights = [u.height for u in path.vertices]
        assert heights == list(range(heights[0], heights[0] + len(heights)))


def reference_ascend(v, pick):
    """`core.ascend` as it was: the vertex rescanned from its first
    element after every expansion, and each step built by `apply_move`."""
    vertices = [v]
    moves = []
    while True:
        target = next((b for b in vertices[-1] if pick(b)), None)
        if target is None:
            return AscendingPath(tuple(vertices), tuple(moves))
        m = Move.expand(target)
        moves.append(m)
        vertices.append(apply_move(vertices[-1], m))


@pytest.mark.parametrize("seed", [7, 1009])
@pytest.mark.parametrize(
    "system",
    [vs, HoughtonSystem(2), HoughtonSystem(3)],
    ids=["v", "houghton2", "houghton3"],
)
def test_join_paths_match_the_rescanning_ascend(system, seed, monkeypatch):
    # Both standardizing paths and both paths up to the join, and each
    # vertex's standardizing path.  Their steps are built unchecked, so
    # each path must also pass the checked `AscendingPath.check`, and
    # each step keep its own element set.
    rng = rng_from_seed(seed)
    sx = CubeComplex(system)
    low = system.base_vertex().height
    vertices = [
        random_vertex(system, rng, rng.randint(low, low + 5))
        for _ in range(40)
    ]
    pairs = list(zip(vertices[::2], vertices[1::2]))
    got = [sx.join(v1, v2) for v1, v2 in pairs]
    standard = [system.standardize(v) for v in vertices]
    for path in standard + [p for _, p1, p2 in got for p in (p1, p2)]:
        assert path.check()
        assert all(u.as_set() == frozenset(u.elements) for u in path.vertices)
    for module in (core, thompson, houghton, cubical):
        monkeypatch.setattr(module, "ascend", reference_ascend)
    assert got == [sx.join(v1, v2) for v1, v2 in pairs]
    assert standard == [system.standardize(v) for v in vertices]
    assert sum(len(p1) + len(p2) for _, p1, p2 in got) > 100


# -- vertices built by construction ----------------------------------------------------------

BUILT_SYSTEMS = pytest.mark.parametrize(
    "system",
    [vs, HoughtonSystem(2), HoughtonSystem(3)],
    ids=["v", "houghton2", "houghton3"],
)


def seeded_vertices(system, seed, count, span):
    """`count` seeded vertices, from the base height to `span` above it."""
    rng = rng_from_seed(seed)
    low = system.base_vertex().height
    return [
        random_vertex(system, rng, rng.randint(low, low + span))
        for _ in range(count)
    ]


def keeps_its_set(w):
    return w.as_set() == frozenset(w.elements)


@pytest.mark.parametrize("seed", [7, 1009])
@BUILT_SYSTEMS
def test_cube_bases_match_the_apply_move_chain(system, seed):
    # Every cube `cubes_at` builds is built again by the chain of checked
    # moves, from the clique of the reference walk in the same place.
    sx = CubeComplex(system)
    built = []
    for v in seeded_vertices(system, seed, 12, 4):
        moves = sx.moves_at(v)
        cliques = [[moves[i] for i in c] for c in reference_cliques(moves, 3)]
        cubes = sx.cubes_at(v, 3)
        assert cubes == [reference_cube_from_moves(v, c) for c in cliques]
        built += [(v, clique, cube) for clique, cube in zip(cliques, cubes)]
        assert sx.check_flag(v, 3).passed
    rng = rng_from_seed(seed)
    for v, moves, cube in built:
        assert keeps_its_set(cube.base)
        # In any order, the moves span the same cube.
        assert sx.cube_from_moves(v, rng.sample(moves, len(moves))) == cube
    assert sum(cube.base != v for v, _, cube in built) > 100


def disjoint_move_sets(system, seed, count):
    """(v, moves) for `count` seeded vertices: a greedy set of moves with
    pairwise disjoint basins, taken from all the moves at v in shuffled
    order and left in that order."""
    rng = rng_from_seed(seed)
    sx = CubeComplex(system)
    for v in seeded_vertices(system, seed, count, 5):
        moves = sx.moves_at(v)
        rng.shuffle(moves)
        chosen = []
        for m in moves[: rng.randint(1, len(moves))]:
            if all(m.basin.isdisjoint(c.basin) for c in chosen):
                chosen.append(m)
        yield v, chosen


class _NoItertools:
    def __getattr__(self, name):
        raise AssertionError(f"itertools.{name} called")


@pytest.mark.parametrize("seed", [7, 1009])
@BUILT_SYSTEMS
def test_cube_from_moves_is_one_swap_of_every_basin(system, seed, monkeypatch):
    # A cube from given moves takes neither the clique walk nor a table
    # of pairs: its base is one swap of every basin, one vertex built.
    sets = list(disjoint_move_sets(system, seed, 40))
    want = [reference_cube_from_moves(v, moves) for v, moves in sets]
    sx = CubeComplex(system)
    built = []
    real = cubical._vertex_unchecked

    def counting(elements):
        built.append(elements)
        return real(elements)

    def walk(*args):
        raise AssertionError("cube_from_moves walked the cliques")

    monkeypatch.setattr(cubical, "_cliques", walk)
    monkeypatch.setattr(cubical, "itertools", _NoItertools())
    monkeypatch.setattr(cubical, "_vertex_unchecked", counting)
    for (v, moves), cube in zip(sets, want):
        built.clear()
        got = sx.cube_from_moves(v, moves)
        assert got == cube
        assert len(built) == 1
        assert keeps_its_set(got.base)
    # Some sets hold contractions, and the largest reach the most
    # pairwise disjoint basins the system allows (n on houghton).
    assert sum(cube.base != v for (v, _), cube in zip(sets, want)) > 5
    assert max(cube.dim for cube in want) >= (3 if system is vs else system.n)


@pytest.mark.parametrize("seed", [7, 1009])
@BUILT_SYSTEMS
def test_link_neighbours_match_apply_move(system, seed):
    sx = CubeComplex(system)
    for v in seeded_vertices(system, seed, 12, 4):
        link = sx.link(v)
        neighbors = sx.neighbors(v)
        assert neighbors == [(m, apply_move(v, m)) for m in link.moves]
        assert all(keeps_its_set(w) for _, w in neighbors)
        assert link.neighbors() == [link.mask(w) for _, w in neighbors]
        assert link.edges() == reference_pairs(link.moves)


@pytest.mark.parametrize("seed", [7, 1009])
@BUILT_SYSTEMS
def test_cliques_match_the_all_pairs_walk(system, seed):
    # The walk on the link's masks yields the cliques of the reference
    # walk in its order, each with the masks of the base and active
    # elements of the cube the chain of checked moves builds.
    sx = CubeComplex(system)
    sizes = set()
    for v in seeded_vertices(system, seed, 6, 5):
        link = sx.link(v)
        moves = link.moves
        assert link.edges() == reference_pairs(moves)
        for k in range(1, 7):
            got = list(_cliques(link, k))
            assert [c for c, _, _ in got] == list(reference_cliques(moves, k))
            sizes.update(len(c) for c, _, _ in got)
        for clique, base, active in got:
            cube = reference_cube_from_moves(v, [moves[i] for i in clique])
            assert link.mask(cube.base) == base, (v, clique)
            assert link.mask(cube.active) == active, (v, clique)
    # On houghton every basin holds a branch's ray, so a clique has at
    # most n moves.
    assert max(sizes) >= (5 if system is vs else system.n)


def test_cube_from_moves_rejects_basins_outside_or_overlapping():
    outside = Move.contract(ball("0"))  # basin {00, 01}
    for build in (cx.cube_from_moves, reference_cube_from_moves):
        with pytest.raises(MoveNotApplicable):
            build(fig_vertex(), [outside])
    quarters = validate_vertex([ball(w) for w in ("00", "01", "10", "11")])
    contractions = [m for m in cx.moves_at(quarters) if m.kind == "contract"]
    overlapping = [
        (a, b)
        for a, b in itertools.permutations(contractions, 2)
        if not a.basin.isdisjoint(b.basin)
    ]
    assert overlapping
    for pair in overlapping:
        for build in (cx.cube_from_moves, reference_cube_from_moves):
            with pytest.raises(MoveNotApplicable):
                build(quarters, list(pair))


def count_checked_builds(monkeypatch):
    """Per checked builder, the arguments of each call made to it."""
    calls = {"validate_vertex": [], "apply_move": []}
    for name, log in calls.items():
        real = getattr(core, name)

        def counted(*args, _real=real, _log=log):
            _log.append(args)
            return _real(*args)

        for module in (core, cubical, thompson, houghton):
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counted)
    return calls


@BUILT_SYSTEMS
def test_cube_layer_makes_no_checked_builds(system, monkeypatch):
    sx = CubeComplex(system)
    vertices = seeded_vertices(system, 7, 10, 4)
    calls = count_checked_builds(monkeypatch)
    for v in vertices:
        sx.cubes_at(v, 3)
        sx.check_flag(v, 3)
        sx.link(v).neighbors()
        sx.neighbors(v)
        system.standardize(v)
    for v1, v2 in zip(vertices[::2], vertices[1::2]):
        sx.join(v1, v2)
    assert calls == {"validate_vertex": [], "apply_move": []}


@pytest.mark.parametrize("seed", [7, 1009])
@BUILT_SYSTEMS
def test_join_targets_match_validate_vertex(system, seed):
    # `base_vertex` and `join_standard` build without a check, so each
    # must equal what `validate_vertex` makes of its own elements in
    # shuffled order, and cover the space.
    rng = rng_from_seed(seed)
    sx = CubeComplex(system)
    vertices = seeded_vertices(system, seed, 40, 5)
    targets = [system.base_vertex()] + [
        sx.join(v1, v2)[0] for v1, v2 in zip(vertices[::2], vertices[1::2])
    ]
    for w in targets:
        elements = list(w)
        rng.shuffle(elements)
        assert validate_vertex(elements).elements == w.elements, w
        assert system.is_full_support(w), w
    assert len({w.height for w in targets}) > 3


def contraction_bases(vertices):
    """The bases of the cliques of one or more contractions, up to 3, in
    walk order, each built by the chain of checked moves."""
    return [
        reference_cube_from_moves(v, [moves[i] for i in clique]).base.as_set()
        for sx, v in vertices
        for moves in [sx.moves_at(v)]
        for clique in reference_cliques(moves, 3)
        if clique and all(moves[i].kind == "contract" for i in clique)
    ]


def test_check_flag_builds_nothing_and_cubes_at_each_base_once(monkeypatch):
    # 100 seed-7 height-3 `v` and 100 height-4 `houghton` n=2 vertices.
    # `check_flag` runs on the link's masks: it reaches no `_reached`
    # and builds no vertex and no cube.  `cubes_at` builds the base of
    # each set of one or more contractions once, from the walk's mask,
    # reaching no `_reached` either, and one cube per clique.
    vertices = []
    for system, height in ((vs, 3), (HoughtonSystem(2), 4)):
        rng = rng_from_seed(7)
        sx = CubeComplex(system)
        vertices += [
            (sx, random_vertex(system, rng, height)) for _ in range(100)
        ]
    reports = [sx.check_flag(v, 3) for sx, v in vertices]
    bases = contraction_bases(vertices)
    reached, made, built = [], [], collections.Counter()
    real_reached, real_vertex = cubical._reached, cubical._vertex_unchecked
    init = cubical.Cube.__init__

    def reaching(v, out, into):
        reached.append(real_reached(v, out, into))
        return reached[-1]

    def vertex(elements):
        built["vertex"] += 1
        made.append(frozenset(elements))
        return real_vertex(elements)

    def cube(c, base, active):
        built["cube"] += 1
        init(c, base, active)

    monkeypatch.setattr(cubical, "_reached", reaching)
    monkeypatch.setattr(cubical, "_vertex_unchecked", vertex)
    monkeypatch.setattr(cubical.Cube, "__init__", cube)
    assert [sx.check_flag(v, 3) for sx, v in vertices] == reports
    assert reached == [] and not built
    cubes = [c for sx, v in vertices for c in sx.cubes_at(v, 3)]
    assert reached == [] and made == bases
    assert built == {"vertex": len(bases), "cube": len(cubes)}
    assert len(bases) > 1000


# -- exploration -----------------------------------------------------------------------------


def test_bfs_radius_zero_and_one():
    base = validate_vertex([ball("")])
    g0 = cx.bfs(base, 0)
    assert len(g0.vertices) == 1 and g0.edges == ()
    g1 = cx.bfs(base, 1)
    assert len(g1.vertices) == 2 and len(g1.edges) == 1
    halves = validate_vertex([ball("0"), ball("1")])
    g = cx.bfs(halves, 1)
    assert len(g.vertices) == 5 and len(g.edges) == 4


def test_bfs_deterministic_and_exports():
    base = validate_vertex([ball("")])
    g1 = cx.bfs(base, 2)
    g2 = cx.bfs(base, 2)
    assert g1 == g2
    dot = graph_to_dot(g1)
    assert dot.startswith("graph {") and '[label="1"]' in dot
    obj = graph_to_json_obj(vs, g1)
    assert set(obj) == {"vertices", "edges", "heights"}
    assert len(obj["vertices"]) == len(obj["heights"])


def test_bfs_cap():
    base = validate_vertex([ball("")])
    with pytest.raises(CapExceeded) as err:
        cx.bfs(base, 4, cap=5)
    assert err.value.partial is not None
    assert len(err.value.partial.vertices) == 5


def _graph_sets(graph):
    """The vertex set and the edge set (as vertex pairs) of a BFS graph."""
    vertices = graph.vertices
    return set(vertices), {
        frozenset((vertices[i], vertices[j])) for i, j in graph.edges
    }


def _depths(graph):
    """Each vertex of a BFS graph with its distance from the start."""
    adjacent = {i: [] for i in range(len(graph.vertices))}
    for i, j in graph.edges:
        adjacent[i].append(j)
        adjacent[j].append(i)
    depth = {0: 0}
    frontier = [0]
    while frontier:
        grown = []
        for i in frontier:
            for j in adjacent[i]:
                if j not in depth:
                    depth[j] = depth[i] + 1
                    grown.append(j)
        frontier = grown
    return {graph.vertices[i]: d for i, d in depth.items()}


def _brute_ball(system, start, radius):
    """The ball's vertex and edge sets from `children()` and `coexpansions`
    over all element subsets alone, with no `cubical` code."""
    seen = {start}
    frontier = [start]
    edges = set()
    for _ in range(radius):
        grown = []
        for v in frontier:
            for w in brute_neighbors(system, v):
                edges.add(frozenset((v, w)))
                if w not in seen:
                    seen.add(w)
                    grown.append(w)
        frontier = grown
    return seen, edges


# A fresh system per test, so a test may wrap its methods.
_SYSTEMS = {
    "v": VSystem,
    "houghton2": lambda: HoughtonSystem(2),
    "houghton3": lambda: HoughtonSystem(3),
}


def _seeded_start(system, seed):
    height = system.base_vertex().height + 2
    return random_vertex(system, rng_from_seed(seed), height)


@pytest.mark.parametrize("radius", [2, 3])
@pytest.mark.parametrize("seed", [7, 1009])
@pytest.mark.parametrize("name", sorted(_SYSTEMS))
def test_bfs_matches_brute_ball(name, seed, radius):
    system = _SYSTEMS[name]()
    start = _seeded_start(system, seed)
    graph = CubeComplex(system).bfs(start, radius)
    assert _graph_sets(graph) == _brute_ball(system, start, radius)


@pytest.mark.parametrize("name", sorted(_SYSTEMS))
def test_bfs_glues_each_candidate_basin_once(name):
    system = _SYSTEMS[name]()
    start = _seeded_start(system, 7)
    asked = []
    coexpansions = system.coexpansions

    def counting(elements):
        asked.append(elements)
        return coexpansions(elements)

    system.coexpansions = counting
    complex_ = CubeComplex(system)
    state = (dict(vars(system)), dict(vars(complex_)))
    graph = complex_.bfs(start, 3)
    # The basins a radius-3 traversal asks about: the candidates of
    # every vertex it expands, i.e. of every vertex closer than 3.
    expected = {
        frozenset(subset)
        for v, d in _depths(graph).items()
        if d < 3
        for subset in system.contraction_candidates(v)
    }
    assert len(asked) == len(set(asked)) == len(expected)
    assert set(asked) == expected
    # Nothing is kept between traversals: neither object gained state,
    # and a second traversal asks about every basin again, once.
    assert (vars(system), vars(complex_)) == state
    asked.clear()
    assert complex_.bfs(start, 3) == graph
    assert len(asked) == len(expected) and set(asked) == expected


@pytest.mark.parametrize("name", sorted(_SYSTEMS))
def test_moves_with_a_shared_dict_equal_moves_with_a_fresh_one(name):
    system = _SYSTEMS[name]()
    cx = CubeComplex(system)
    graph = cx.bfs(_seeded_start(system, 1009), 3)
    memo = {}
    candidates = 0
    for v in graph.vertices:
        assert cx.moves_at(v, memo) == cx.moves_at(v)
        candidates += sum(1 for _ in system.contraction_candidates(v))
    # The shared memo was hit, not just filled.
    basins = sum(isinstance(key, frozenset) for key in memo)
    assert basins < candidates


@pytest.mark.parametrize("name", sorted(_SYSTEMS))
def test_memoised_contractions_keep_their_key_as_basin(name):
    system = _SYSTEMS[name]()
    memo = {}
    for v in CubeComplex(system).bfs(_seeded_start(system, 7), 2).vertices:
        list(system.contractions(v, memo))
    contractions = [(key, m) for key, ms in memo.items() for m in ms]
    assert contractions
    for key, m in contractions:
        assert m.basin is key
        assert m.basin == frozenset(m.target.children())
        assert m.gain == frozenset((m.target,))


# -- stabilizers -------------------------------------------------------------------------------


def test_stabilizer_fixed_examples():
    assert len(cx.stabilizer(validate_vertex([ball("")]))) == 1
    stab = cx.stabilizer(validate_vertex([ball("0"), ball("1")]))
    assert {g.key() for g in stab} == {"->", "0->1,1->0"}


@given(seeds)
@settings(max_examples=10, deadline=None)
def test_stabilizer_order_is_height_factorial(seed):
    rng = random.Random(seed)
    k = rng.randint(3, 5)
    v = random_vertex(vs, rng, k)
    assert len(cx.stabilizer(v)) == math.factorial(k)


@pytest.mark.parametrize("seed", [7, 1009])
@pytest.mark.parametrize(
    "system",
    [VSystem(), HoughtonSystem(2), HoughtonSystem(3)],
    ids=["v", "houghton2", "houghton3"],
)
def test_stabilizer_matches_brute(system, seed):
    rng = rng_from_seed(seed)
    complex_ = CubeComplex(system)
    for h in range(system.base_vertex().height, 6):
        v = random_vertex(system, rng, h)
        assert complex_.stabilizer(v) == brute_stabilizer(system, v), h


@pytest.mark.parametrize(
    "system, height, tiling",
    [
        (VSystem(), 4, (thompson, "is_complete_code")),
        (HoughtonSystem(2), 6, (HoughtonSystem, "_tiles")),
    ],
    ids=["v", "houghton2"],
)
def test_stabilizer_keeps_every_check(system, height, tiling, monkeypatch):
    # The checks of the permutation walk: each class generator is
    # assembled once, with its tiling checked on both sides, and acted on
    # at each of v's k elements.  The span is walked on permutations, so
    # no group product is formed and nothing is inverted; each of the 24
    # elements is built once without a check, and each `assemble` ends
    # in the same builder.
    v = random_vertex(system, rng_from_seed(7), height)
    els = list(v)
    table = [[system.transfer(a, b) for b in els] for a in els]
    generators = len(_class_generators(_transfer_classes(table)))
    counts = collections.Counter()

    def count(owner, name):
        real = getattr(owner, name)

        def counted(*args):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(owner, name, counted)

    group_type = type(system.identity())
    for owner, name in (
        (type(system), "assemble"),
        tiling,
        (type(system), "act"),
        (type(system), "_assemble_unchecked"),
        (group_type, "__mul__"),
        (group_type, "inverse"),
    ):
        count(owner, name)
    order = len(CubeComplex(system).stabilizer(v))
    assert (order, generators) == (24, 2)
    # No "__mul__" or "inverse" key: neither was called.
    assert counts == {
        "assemble": generators,
        tiling[1]: 2 * generators,
        "act": len(els) * generators,
        "_assemble_unchecked": order + generators,
    }


def spanned_by_every_product(system, v):
    """The span of v's class generators, as the walk that forms every
    product g * t builds it: members in the order found, unsorted."""
    els = list(v)
    table = [[system.transfer(a, b) for b in els] for a in els]
    generators = [
        system.assemble([row[j] for row, j in zip(table, perm)])
        for perm in _class_generators(_transfer_classes(table))
    ]
    group = [system.identity()]
    span = set(group)
    for g in group:  # grows as it is walked
        for t in generators:
            h = g * t
            if h not in span:
                span.add(h)
                group.append(h)
    return group


@pytest.mark.parametrize("seed", [7, 1009])
@BUILT_SYSTEMS
def test_stabilizer_span_matches_the_walk_forming_every_product(
    system, seed, monkeypatch
):
    # The permutation walk forms no product, and builds each element it
    # returns once, outside `assemble`: |G| unchecked builds, or `cap`.
    calls = collections.Counter()
    group_type = type(system.identity())

    def count(owner, name):
        real = getattr(owner, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(owner, name, counted)

    count(group_type, "__mul__")
    count(type(system), "assemble")
    count(type(system), "_assemble_unchecked")

    def built():
        """Elements built outside `assemble` since the last call."""
        assert calls["__mul__"] == 0
        count = calls["_assemble_unchecked"] - calls["assemble"]
        calls.clear()
        return count

    complex_ = CubeComplex(system)
    key = group_type.key
    rng = rng_from_seed(seed)
    low = system.base_vertex().height
    for h in range(low, low + 6):
        v = random_vertex(system, rng, h)
        got = complex_.stabilizer(v)
        assert built() == len(got), h
        want = spanned_by_every_product(system, v)
        calls.clear()
        assert got == sorted(want, key=key), h
        for cap in (1, 2, 3, 5, 8, 13, 21, 50, 100):
            if cap >= len(want):
                assert complex_.stabilizer(v, cap=cap) == got, (h, cap)
                assert built() == len(want), (h, cap)
                continue
            with pytest.raises(CapExceeded) as err:
                complex_.stabilizer(v, cap=cap)
            assert built() == cap, (h, cap)
            assert err.value.partial == sorted(want[:cap], key=key), (h, cap)


def class_sizes(system, v):
    """The sizes of the classes of v's elements under "transfer(a, b) is
    not None", each element grouped with the elements related to it."""
    related = collections.Counter(
        frozenset(b for b in v if system.transfer(a, b) is not None)
        for a in v
    )
    return list(related.values())


@pytest.mark.parametrize("seed", [7, 1009])
@BUILT_SYSTEMS
def test_transfer_relation_is_an_equivalence(system, seed):
    # Elements of seeded vertices of several heights, so that pairs
    # within one vertex and across vertices both occur.
    pool = list(
        dict.fromkeys(
            b for v in seeded_vertices(system, seed, 12, 6) for b in v
        )
    )
    related = [[system.transfer(a, b) is not None for b in pool] for a in pool]
    n = len(pool)
    assert n >= 20 and sum(map(sum, related)) > n, n
    for i in range(n):
        assert related[i][i]
        for j in range(n):
            assert related[i][j] == related[j][i], (pool[i], pool[j])
            if related[i][j]:
                # Transitive: whatever j reaches, i reaches too.
                assert all(
                    related[i][m] for m in range(n) if related[j][m]
                ), (pool[i], pool[j])


@pytest.mark.parametrize("seed", [7, 1009])
@BUILT_SYSTEMS
def test_transfer_classes_are_the_row_patterns(system, seed):
    for v in seeded_vertices(system, seed, 12, 5):
        els = list(v)
        table = [[system.transfer(a, b) for b in els] for a in els]
        patterns = [
            tuple(j for j, piece in enumerate(row) if piece is not None)
            for row in table
        ]
        classes = _transfer_classes(table)
        assert sorted(classes) == sorted(set(patterns))
        assert list(classes) == sorted(classes, key=min)
        for i, pattern in enumerate(patterns):
            assert pattern == next(c for c in classes if i in c)
        assert sorted(map(len, classes)) == sorted(class_sizes(system, v))


@pytest.mark.parametrize("seed", [7, 1009])
@BUILT_SYSTEMS
def test_stabilizer_order_is_the_product_of_class_factorials(system, seed):
    rng = rng_from_seed(seed)
    complex_ = CubeComplex(system)
    low = system.base_vertex().height
    top = 7 if system.name == "v" else low + 5
    for h in range(low, top + 1):
        v = random_vertex(system, rng, h)
        order = math.prod(map(math.factorial, class_sizes(system, v)))
        assert len(complex_.stabilizer(v)) == order, h


def first_related_pair(system, v):
    return next(
        (a, b)
        for a, b in itertools.combinations(v, 2)
        if system.transfer(a, b) is not None
    )


@BUILT_SYSTEMS
def test_stabilizer_rejects_a_transfer_that_is_not_symmetric(
    system, monkeypatch
):
    v = random_vertex(system, rng_from_seed(7), system.base_vertex().height + 3)
    a, b = first_related_pair(system, v)
    real = system.transfer
    monkeypatch.setattr(
        system,
        "transfer",
        lambda x, y: None if (x, y) == (b, a) else real(x, y),
    )
    with pytest.raises(InputError, match="not an equivalence"):
        CubeComplex(system).stabilizer(v)


@BUILT_SYSTEMS
def test_stabilizer_rejects_a_generator_that_moves_the_vertex(
    system, monkeypatch
):
    v = random_vertex(system, rng_from_seed(7), system.base_vertex().height + 3)
    moved, _ = first_related_pair(system, v)
    outside = next(kid for b in v if b.children() for kid in b.children())
    assert outside not in v
    real = system.act
    monkeypatch.setattr(
        system, "act", lambda g, b: outside if b == moved else real(g, b)
    )
    with pytest.raises(InputError, match="does not fix the vertex"):
        CubeComplex(system).stabilizer(v)


@BUILT_SYSTEMS
def test_stabilizer_rejects_a_generator_that_permutes_the_vertex_wrongly(
    system, monkeypatch
):
    # Every image stays in v, but one element stays where each generator
    # of its class moves it: a generator must map els[i] to
    # els[perm[i]], not merely into v.
    v = random_vertex(system, rng_from_seed(7), system.base_vertex().height + 3)
    kept, _ = first_related_pair(system, v)
    real = system.act
    monkeypatch.setattr(
        system, "act", lambda g, b: b if b == kept else real(g, b)
    )
    with pytest.raises(InputError, match="does not fix the vertex"):
        CubeComplex(system).stabilizer(v)


@BUILT_SYSTEMS
def test_stabilizer_rejects_permutations_that_build_one_element(
    system, monkeypatch
):
    # A builder that keeps the class generators and sends every other
    # element to the identity passes the generator and order checks;
    # only the count of distinct elements built catches it.
    v = random_vertex(system, rng_from_seed(7), system.base_vertex().height + 3)
    els = list(v)
    table = [[system.transfer(a, b) for b in els] for a in els]
    generators = {
        system.assemble([row[j] for row, j in zip(table, perm)])
        for perm in _class_generators(_transfer_classes(table))
    }
    identity = system.identity()
    real = system._assemble_unchecked

    def collapsing(pieces):
        g = real(pieces)
        return g if g in generators else identity

    monkeypatch.setattr(system, "_assemble_unchecked", collapsing)
    with pytest.raises(InputError, match="build one group element"):
        CubeComplex(system).stabilizer(v)


def test_stabilizer_rejects_a_span_short_of_the_classes_product(monkeypatch):
    # A height-3 `v` vertex has one class of three elements.  Its swap
    # alone spans two group elements, not 3! = 6.
    v = random_vertex(vs, rng_from_seed(7), 3)
    els = list(v)
    table = [[vs.transfer(a, b) for b in els] for a in els]
    assert _transfer_classes(table) == ((0, 1, 2),)
    real = cubical._class_generators

    def swaps_only(classes):
        perms = real(classes)
        return [p for p in perms if all(p[j] == i for i, j in enumerate(p))]

    monkeypatch.setattr(cubical, "_class_generators", swaps_only)
    assert swaps_only(((0, 1, 2),)) == [(1, 0, 2)]
    with pytest.raises(InputError, match="not the classes' product"):
        cx.stabilizer(v)


# The engine's stabilizer is closed by construction, so the one closure
# check left is the reference's: `oracle.check_closed`, which
# `brute_stabilizer` runs on all |G|^2 products.
CLOSURE_CASES = pytest.mark.parametrize(
    "case, message",
    [
        # Dropping or swapping out an involution keeps every inverse in
        # the set, so only the composition check can catch it.
        ("drop-involution", "composition"),
        ("swap-in-non-member", "composition"),
        ("drop-identity", "composition"),
        ("drop-3-cycle", "inversion"),
    ],
)


def assert_closure_check_rejects(system, v, swap, case, message):
    """Break the order-6 stabilizer of v as `case` says; `swap` is an
    involution outside it."""
    stab = CubeComplex(system).stabilizer(v)
    identity = system.identity()
    check_closed(stab)
    involution = next(g for g in stab if g != identity and g * g == identity)
    three_cycle = next(g for g in stab if g * g != identity)
    dropped = {
        "drop-involution": involution,
        "swap-in-non-member": involution,
        "drop-identity": identity,
        "drop-3-cycle": three_cycle,
    }[case]
    broken = [g for g in stab if g != dropped]
    if case == "swap-in-non-member":
        assert swap == swap.inverse() and swap not in stab
        broken.append(swap)
    assert len(broken) == 6 - (case != "swap-in-non-member")
    with pytest.raises(InputError, match=f"not closed under {message}"):
        check_closed(broken)


@CLOSURE_CASES
def test_closure_check_raises_on_sets_that_are_not_closed(case, message):
    v = random_vertex(vs, rng_from_seed(7), 3)
    swap = VGroupElement.from_table([("0", "1"), ("1", "0")])
    assert_closure_check_rejects(vs, v, swap, case, message)


@CLOSURE_CASES
def test_closure_check_raises_on_houghton_sets_that_are_not_closed(
    case, message
):
    system = HoughtonSystem(2)
    v = random_vertex(system, rng_from_seed(7), 5)
    swap = HGroupElement.make(2, (0, 0), [((1, 1), (1, 2)), ((1, 2), (1, 1))])
    assert_closure_check_rejects(system, v, swap, case, message)


def test_stabilizer_cap():
    v = random_vertex(vs, rng_from_seed(7), 9)
    with pytest.raises(CapExceeded) as err:
        cx.stabilizer(v, cap=5)
    partial = err.value.partial
    assert len(partial) == 5
    assert [g.key() for g in partial] == sorted(g.key() for g in partial)
    assert all(vs.act_vertex(g, v) == v for g in partial)


def test_stabilizer_cap_names_the_order_and_builds_only_the_cap(monkeypatch):
    # Order 9! = 362,880 is known before the walk, which stops at the cap.
    v = random_vertex(vs, rng_from_seed(7), 9)
    built = []
    real = vs._assemble_unchecked

    def counted(pieces):
        built.append(pieces)
        return real(pieces)

    monkeypatch.setattr(vs, "_assemble_unchecked", counted)
    with pytest.raises(CapExceeded, match="order 362880 exceeds the cap"):
        cx.stabilizer(v, cap=1000)
    # One build per element, and one at the end of each generator's
    # `assemble` (a class of nine has two generators).
    assert len(built) == 1000 + 2


@BUILT_SYSTEMS
def test_stabilizer_cap_bounds_the_span_exactly(system):
    # Raised iff the order exceeds the cap, with exactly `cap` elements:
    # none at cap 0, even for the trivial group of the base vertex.
    complex_ = CubeComplex(system)
    v = random_vertex(system, rng_from_seed(7), system.base_vertex().height + 3)
    order = len(complex_.stabilizer(v))
    for w, cap in ((system.base_vertex(), 0), (v, 0), (v, order - 1)):
        with pytest.raises(CapExceeded) as err:
            complex_.stabilizer(w, cap=cap)
        partial = err.value.partial
        assert len(partial) == cap
        assert [g.key() for g in partial] == sorted(g.key() for g in partial)
        assert all(system.act_vertex(g, w) == w for g in partial)
    assert len(complex_.stabilizer(v, cap=order)) == order
    assert len(complex_.stabilizer(system.base_vertex(), cap=1)) == 1


def test_seed_validation():
    with pytest.raises(ValueError):
        rng_from_seed(-1)
    with pytest.raises(ValueError):
        rng_from_seed(1 << 64)
