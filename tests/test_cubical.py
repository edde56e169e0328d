"""Cubes, links, intersections, joins, exploration, stabilizers."""

import collections
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
from cubex import core, cubical, houghton, thompson
from cubex.core import AscendingPath
from cubex.cubical import (
    _admissible,
    _check_closed,
    _cliques,
    _disjoint_pairs,
)
from cubex.oracle import (
    brute_corners,
    brute_cube_intersection,
    brute_neighbor_count,
    brute_neighbors,
    brute_square_test,
    brute_stabilizer,
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
    lg = cx.link_graph(v)
    assert len(lg.nodes) == 4
    assert len(lg.edges) == 1
    (i, j), = lg.edges
    assert lg.nodes[i].kind == lg.nodes[j].kind == "expand"
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
    """`_cliques` as it was: each candidate tested against every member of
    the clique, with no table of pairs."""

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
    """`check_flag`'s verdicts as the loop it replaced computed them: each
    move pair tested against the corner set of every passed 2-cube, with
    the cliques, bases, neighbours and edges of the references above."""
    nodes = cx.link_graph(v).nodes
    neighbors = [apply_move(v, m) for m in nodes]
    edges = reference_pairs(nodes)
    failures = []
    two_cliques = {}
    for clique in reference_cliques(nodes, max_clique):
        if not clique:
            continue
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
    return tuple(failures), tuple(mismatches)


@pytest.mark.parametrize("seed", [7, 1009])
@pytest.mark.parametrize(
    "system",
    [vs, HoughtonSystem(2), HoughtonSystem(3)],
    ids=["v", "houghton2", "houghton3"],
)
def test_square_index_matches_the_reference_loop(system, seed, monkeypatch):
    # Some corners are hidden from the cubes, by a fixed rule, so that
    # cliques fail, squares go missing and mismatches occur.
    sx = CubeComplex(system)
    real = cubical.vertex_on_set

    def patchy(c, w):
        hidden = zlib.crc32(f"{c.key()}/{w.key()}".encode()) % 5 == 0
        return None if hidden else real(c, w)

    rng = rng_from_seed(seed)
    low = system.base_vertex().height
    mismatched = 0
    for h in range(low, low + 5):
        v = random_vertex(system, rng, h)
        for rule in (real, patchy):
            monkeypatch.setattr(cubical, "vertex_on_set", rule)
            rep = sx.check_flag(v, 3)
            want = reference_check_flag(sx, v, 3)
            assert (rep.failures, rep.square_mismatches) == want, (v, rule)
            assert rep.passed == (want == ((), ()))
            mismatched += len(rep.square_mismatches)
    assert mismatched > 5


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
def test_cube_bases_match_the_apply_move_chain(system, seed, monkeypatch):
    # Every cube `cubes_at` and `check_flag` build is recorded and then
    # built again by the chain of checked moves.
    sx = CubeComplex(system)
    built = []
    real = cubical._clique_cubes

    def recording(v, moves, *neighbors):
        cube_of = real(v, moves, *neighbors)

        def record(clique):
            cube = cube_of(clique)
            built.append((v, [moves[i] for i in clique], cube))
            return cube

        return record

    monkeypatch.setattr(cubical, "_clique_cubes", recording)
    for v in seeded_vertices(system, seed, 12, 4):
        moves = sx.moves_at(v)
        assert sx.cubes_at(v, 3) == [
            reference_cube_from_moves(v, [moves[i] for i in clique])
            for clique in reference_cliques(moves, 3)
        ]
        assert sx.check_flag(v, 3).passed
    for v, moves, cube in built:
        assert cube == reference_cube_from_moves(v, moves)
        assert keeps_its_set(cube.base)
    assert sum(cube.base != v for v, _, cube in built) > 100


@pytest.mark.parametrize("seed", [7, 1009])
@BUILT_SYSTEMS
def test_link_neighbours_match_apply_move(system, seed):
    sx = CubeComplex(system)
    for v in seeded_vertices(system, seed, 12, 4):
        lg = sx.link_graph(v)
        assert lg.neighbors == tuple(apply_move(v, m) for m in lg.nodes)
        assert all(keeps_its_set(w) for w in lg.neighbors)
        assert lg.edges == reference_pairs(lg.nodes)
        assert sx.neighbors(v) == list(zip(lg.nodes, lg.neighbors))


@pytest.mark.parametrize("seed", [7, 1009])
@BUILT_SYSTEMS
def test_cliques_match_the_all_pairs_walk(system, seed):
    sx = CubeComplex(system)
    sizes = set()
    for v in seeded_vertices(system, seed, 6, 5):
        moves = sx.moves_at(v)
        pairs = _disjoint_pairs(moves)
        for k in range(1, 7):
            got = list(_cliques(len(moves), pairs, k))
            assert got == list(reference_cliques(moves, k)), (v, k)
            sizes.update(len(c) for c in got)
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


def test_check_flag_counts_an_unbuildable_clique_as_a_failure(monkeypatch):
    # Every pair of moves is offered as a clique; those with overlapping
    # basins, and only those, must fail.
    def every_pair(n, pairs, max_size):
        for k in range(3):
            yield from itertools.combinations(range(n), k)

    monkeypatch.setattr(cubical, "_cliques", every_pair)
    quarters = validate_vertex([ball(w) for w in ("00", "01", "10", "11")])
    lg = cx.link_graph(quarters)
    rep = cx.check_flag(quarters, 2)
    assert rep.failures == tuple(
        (lg.nodes[i], lg.nodes[j])
        for i, j in itertools.combinations(range(len(lg.nodes)), 2)
        if (i, j) not in lg.edges
    )
    assert any(a.kind == b.kind == "contract" for a, b in rep.failures)
    assert not rep.square_mismatches


def count_checked_builds(monkeypatch, system):
    """Per builder, one flag per call: was it made inside `join_standard`?"""
    calls = {"validate_vertex": [], "apply_move": []}
    inside = []
    for name, log in calls.items():
        real = getattr(core, name)

        def counted(*args, _real=real, _log=log):
            _log.append(bool(inside))
            return _real(*args)

        for module in (core, cubical, thompson, houghton):
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counted)
    join_standard = type(system).join_standard

    def marked(self, s1, s2):
        inside.append(True)
        try:
            return join_standard(self, s1, s2)
        finally:
            inside.pop()

    monkeypatch.setattr(type(system), "join_standard", marked)
    return calls


@BUILT_SYSTEMS
def test_cube_layer_makes_no_checked_builds(system, monkeypatch):
    sx = CubeComplex(system)
    vertices = seeded_vertices(system, 7, 10, 4)
    calls = count_checked_builds(monkeypatch, system)
    for v in vertices:
        sx.cubes_at(v, 3)
        sx.check_flag(v, 3)
        sx.link_graph(v)
        sx.neighbors(v)
        system.standardize(v)
    assert calls == {"validate_vertex": [], "apply_move": []}
    for v1, v2 in zip(vertices[::2], vertices[1::2]):
        sx.join(v1, v2)
    assert calls["apply_move"] == []
    assert len(calls["validate_vertex"]) == 5
    assert all(calls["validate_vertex"])


def flag_reports_and_builds(monkeypatch, vertices, share):
    """`check_flag` on each (complex, vertex), with the link's neighbours
    passed to `_clique_cubes` or held back, and the `_reached` calls."""
    real_reached, real_cubes = cubical._reached, cubical._clique_cubes
    builds = []

    def reached(v, moves):
        builds.append(len(moves))
        return real_reached(v, moves)

    def cubes(v, moves, neighbors=()):
        return real_cubes(v, moves, neighbors if share else ())

    with monkeypatch.context() as patch:
        patch.setattr(cubical, "_reached", reached)
        patch.setattr(cubical, "_clique_cubes", cubes)
        reports = [sx.check_flag(v, 3) for sx, v in vertices]
    return reports, builds


def test_check_flag_builds_each_neighbour_once(monkeypatch):
    # 100 seed-7 height-3 `v` and 100 height-4 `houghton` n=2 vertices:
    # each contraction's neighbour was built again as its one-move base.
    vertices = []
    for system, height in ((vs, 3), (HoughtonSystem(2), 4)):
        rng = rng_from_seed(7)
        sx = CubeComplex(system)
        vertices += [
            (sx, random_vertex(system, rng, height)) for _ in range(100)
        ]
    shared, fewer = flag_reports_and_builds(monkeypatch, vertices, True)
    held, more = flag_reports_and_builds(monkeypatch, vertices, False)
    assert shared == held
    contractions = sum(
        m.kind == "contract" for sx, v in vertices for m in sx.moves_at(v)
    )
    assert len(more) - len(fewer) == contractions == 1000
    assert fewer.count(2) == more.count(2)


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
    graph = CubeComplex(system).bfs(_seeded_start(system, 1009), 3)
    glued = {}
    candidates = 0
    for v in graph.vertices:
        assert list(system.moves(v, glued)) == list(system.moves(v))
        candidates += sum(1 for _ in system.contraction_candidates(v))
    # The shared dict was hit, not just filled.
    assert len(glued) < candidates


@pytest.mark.parametrize("name", sorted(_SYSTEMS))
def test_memoised_contractions_keep_their_key_as_basin(name):
    system = _SYSTEMS[name]()
    glued = {}
    for v in CubeComplex(system).bfs(_seeded_start(system, 7), 2).vertices:
        list(system.moves(v, glued))
    contractions = [(key, m) for key, ms in glued.items() for m in ms]
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
        (HoughtonSystem(2), 6, (HoughtonSystem, "covers_space")),
    ],
    ids=["v", "houghton2"],
)
def test_stabilizer_keeps_every_check(system, height, tiling, monkeypatch):
    # Every admissible permutation is assembled and tiling-checked on
    # both sides, every element is acted on at each of v's k elements,
    # and the closure walk inverts each element once and forms two
    # products per element: the class generators span the group.
    v = random_vertex(system, rng_from_seed(7), height)
    els = list(v)
    admissible = len(
        list(_admissible([[system.transfer(a, b) for b in els] for a in els]))
    )
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
        (group_type, "__mul__"),
        (group_type, "inverse"),
    ):
        count(owner, name)
    order = len(CubeComplex(system).stabilizer(v))
    assert order == admissible == 24
    assert counts == {
        "assemble": order,
        tiling[1]: 2 * order,
        "act": len(els) * order,
        "__mul__": 2 * order,
        "inverse": order,
    }


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
    _check_closed(stab, identity)
    # A non-member among the elements walked first is ignored.
    _check_closed(stab, identity, [swap])
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
        broken = sorted(broken + [swap], key=type(swap).key)
    assert len(broken) == 6 - (case != "swap-in-non-member")
    for first in ((), [swap], [swap, *reversed(broken)]):
        with pytest.raises(InputError, match=f"not closed under {message}"):
            _check_closed(broken, identity, first)


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


def reference_check_closed(group, identity):
    """`_check_closed` as it was: the span regrown from the identity by
    every generator each time one is taken."""
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
                    if st.key() not in members:
                        raise InputError(
                            "stabilizer not closed under composition"
                        )
                    if st.key() not in span:
                        span.add(st.key())
                        grown.append(st)
            frontier = grown


def closure_verdict(check, group, identity, *first):
    try:
        check(group, identity, *first)
    except InputError as err:
        return str(err)
    return None


@pytest.mark.parametrize("seed", [7, 1009])
@pytest.mark.parametrize(
    "system",
    [VSystem(), HoughtonSystem(2), HoughtonSystem(3)],
    ids=["v", "houghton2", "houghton3"],
)
def test_incremental_closure_check_matches_the_regrown_span(system, seed):
    # Whole stabilizers, and the same with one element dropped or one
    # element of another vertex's stabilizer swapped in.  The elements
    # walked first, all of the group or some of it in shuffled order,
    # do not change the verdict.
    rng = rng_from_seed(seed)
    shuffler = random.Random(seed)
    complex_ = CubeComplex(system)
    identity = system.identity()
    verdicts = set()
    low = system.base_vertex().height
    for h in range(low + 1, low + 5):
        stab = complex_.stabilizer(random_vertex(system, rng, h))
        other = complex_.stabilizer(random_vertex(system, rng, h))
        for _ in range(4):
            i = rng.randrange(len(stab))
            for group in (
                stab,
                stab[:i] + stab[i + 1:],
                sorted(
                    stab[:i] + [rng.choice(other)] + stab[i + 1:],
                    key=type(identity).key,
                ),
            ):
                want = closure_verdict(reference_check_closed, group, identity)
                assert closure_verdict(_check_closed, group, identity) == want
                for size in (len(group), shuffler.randint(0, len(group))):
                    first = shuffler.sample(group, size)
                    got = closure_verdict(_check_closed, group, identity, first)
                    assert got == want, first
                verdicts.add(want)
    assert len(verdicts) == 3, verdicts


def test_stabilizer_cap():
    v = random_vertex(vs, rng_from_seed(7), 9)
    with pytest.raises(CapExceeded) as err:
        cx.stabilizer(v, cap=5)
    partial = err.value.partial
    assert len(partial) == 5
    assert [g.key() for g in partial] == sorted(g.key() for g in partial)
    assert all(vs.act_vertex(g, v) == v for g in partial)


def test_seed_validation():
    with pytest.raises(ValueError):
        rng_from_seed(-1)
    with pytest.raises(ValueError):
        rng_from_seed(1 << 64)
