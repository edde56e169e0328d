"""Larger seeded differential suites and degenerate configurations."""

import math

from cubex import (
    CubeComplex,
    HoughtonSystem,
    HRayClass,
    InputError,
    VSystem,
    cube_vertices,
    intersection_lemma_check,
    validate_vertex,
)
from cubex.houghton import SparseRegion, canonicalize_ray
from cubex.oracle import (
    brute_square_test,
    evaluate_ray,
    random_cube_at,
    random_h_ray,
    random_vertex,
    rng_from_seed,
)
from cubex.thompson import BallRegion

vs = VSystem()


def test_lemma_on_500_random_pairs():
    rng = rng_from_seed(500_1)
    for i in range(500):
        system = vs if i % 2 == 0 else HoughtonSystem(2)
        v = random_vertex(
            system, rng, system.base_vertex().height + rng.randint(0, 3)
        )
        c1 = random_cube_at(system, rng, v, 4)
        w = rng.choice(cube_vertices(c1))
        c2 = random_cube_at(system, rng, w, 4)
        assert intersection_lemma_check(c1, c2).passed
        assert intersection_lemma_check(c2, c1).passed


def test_square_iff_disjoint_on_1000_triples():
    rng = rng_from_seed(1000_1)
    cx = CubeComplex(vs)
    done = 0
    while done < 1000:
        v = random_vertex(vs, rng, rng.randint(2, 5))
        moves = cx.moves_at(v)
        for _ in range(min(25, len(moves) * 2)):
            m1, m2 = rng.sample(moves, 2)
            assert brute_square_test(vs, v, m1, m2) == m1.basin.isdisjoint(
                m2.basin
            )
            done += 1


def test_ray_transport_agrees_pointwise():
    # equivalence witness: precomposing the canonical representative with
    # the domain translation reproduces the raw map at every position
    rng = rng_from_seed(310)
    for _ in range(200):
        raw = random_h_ray(rng, 2)
        start = rng.randint(1, 9)
        canonical = canonicalize_ray(
            raw.branch, raw.exceptions, raw.tail, start=start
        )
        for position in range(start, start + 8):
            assert evaluate_ray(
                raw.branch, raw.exceptions, raw.tail, start, position
            ) == evaluate_ray(
                canonical.branch,
                canonical.exceptions,
                canonical.tail,
                1,
                position - start + 1,
            )


def test_pure_translation_ray_is_identity_class():
    # the map [3, oo) -> [7, oo) in one branch, checked by evaluation
    got = canonicalize_ray(1, [], 7, start=3)
    assert got == HRayClass(1, (), 7)
    for position in range(3, 11):
        assert evaluate_ray(1, [], 7, 3, position) == (1, position + 4)


def test_single_branch_system_is_degenerate_but_legal():
    h1 = HoughtonSystem(1)
    cx = CubeComplex(h1)
    base = h1.base_vertex()
    assert base.height == 1
    assert h1.is_full_support(base)
    moves = cx.moves_at(base)
    assert len(moves) == 1 and moves[0].kind == "expand"
    graph = cx.bfs(base, 3)
    assert [v.height for v in graph.vertices[:1]] == [1]
    # only translations fix the single ray; offsets must vanish, so the
    # stabilizer of any standard vertex is point permutations alone
    v = random_vertex(h1, rng_from_seed(4), 4)
    assert len(cx.stabilizer(v)) == math.factorial(3)
    assert cx.check_flag(v, 4).passed


def subset(a, b):
    """True iff region a lies inside region b: their union is b."""
    if isinstance(a, BallRegion):
        return BallRegion.make(a.words + b.words) == b
    return SparseRegion.make(a.points | b.points, a.tails + b.tails) == b


def test_height_grows_by_one_per_expansion():
    # both shipped systems split one element into exactly two
    rng = rng_from_seed(11)
    for system in (vs, HoughtonSystem(3)):
        v = random_vertex(
            system, rng, system.base_vertex().height + 2
        )
        for b in v:
            kids = b.children()
            if kids is not None:
                assert len(kids) == 2
                # each child's support adds nothing to its parent's
                assert all(subset(k.support(), b.support()) for k in kids)


def test_v_action_agrees_pointwise():
    from cubex.oracle import evaluate_table, random_v_element, random_v_group

    rng = rng_from_seed(77)
    for _ in range(150):
        g = random_v_group(rng, 3)
        b = random_v_element(rng, 3)
        gb = vs.act(g, b)
        depth = max(
            len(w)
            for t in (g.table, b.table, gb.table)
            for pair in t
            for w in pair
        ) + 1
        for _ in range(8):
            w = "".join(rng.choice("01") for _ in range(depth))
            assert evaluate_table(gb.table, w) == evaluate_table(
                g.table, evaluate_table(b.table, w)
            )


def test_h_action_agrees_pointwise():
    from cubex.oracle import random_h_group, random_h_ray

    h2 = HoughtonSystem(2)
    rng = rng_from_seed(78)
    for _ in range(150):
        g = random_h_group(rng, 2)
        b = random_h_ray(rng, 2)
        gb = h2.act(g, b)
        for position in range(1, 14):
            direct = g.apply(
                evaluate_ray(b.branch, b.exceptions, b.tail, 1, position)
            )
            assert direct == evaluate_ray(
                gb.branch, gb.exceptions, gb.tail, 1, position
            )
