"""Point/ray classes: canonical forms, peeling, prepending, the action."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubex import (
    CubeComplex,
    HGroupElement,
    HoughtonSystem,
    HPointClass,
    HRayClass,
    InputError,
    NotABijection,
    canonicalize_point,
    canonicalize_ray,
    validate_vertex,
)
from cubex.houghton import CrossBranchTail, SparseRegion
from cubex.oracle import (
    brute_neighbor_count,
    random_h_group,
    random_h_point,
    random_h_ray,
    random_vertex,
    rng_from_seed,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)

h2 = HoughtonSystem(2)


# -- canonical forms ------------------------------------------------------------


def test_point_class_is_its_image():
    assert canonicalize_point((2, 5)) == HPointClass((2, 5))
    assert canonicalize_point([2, 5]).support().points == frozenset({(2, 5)})


def test_ray_transport_is_position_relabeling():
    # a pure translation [3, oo) -> [7, oo) is the class of [id, [7, oo)]
    assert canonicalize_ray(1, [], 7, start=3) == HRayClass(1, (), 7)


def test_ray_reduction_merges_adjacent_exception():
    assert canonicalize_ray(1, [(1, 6)], 7) == HRayClass(1, (), 6)
    assert canonicalize_ray(1, [(2, 1), (1, 4), (1, 5)], 6) == HRayClass(
        1, ((2, 1),), 4
    )


def test_ray_rejections():
    with pytest.raises(CrossBranchTail):
        canonicalize_ray(1, [], 3, tail_branch=2)
    with pytest.raises(InputError):
        canonicalize_ray(1, [(1, 9)], 7)  # exception inside the tail
    with pytest.raises(InputError):
        canonicalize_ray(1, [(1, 1), (1, 1)], 7)  # repeated image


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_canonical_form_ignores_domain_start(seed):
    rng = random.Random(seed)
    r = random_h_ray(rng, 2)
    start = rng.randint(1, 12)
    assert canonicalize_ray(r.branch, r.exceptions, r.tail, start=start) == r


# -- expansion ------------------------------------------------------------------


def test_point_classes_do_not_expand():
    p = HPointClass((1, 3))
    assert p.children() is None


def test_expand_plain_ray():
    assert HRayClass(1, (), 1).children() == (
        HPointClass((1, 1)),
        HRayClass(1, (), 2),
    )


def test_expand_consumes_exception():
    assert HRayClass.make(1, [(2, 4)], 1).children() == (
        HPointClass((2, 4)),
        HRayClass(1, (), 1),
    )


@given(seeds)
@settings(max_examples=80, deadline=None)
def test_expand_prepend_roundtrip(seed):
    rng = random.Random(seed)
    r = random_h_ray(rng, 3)
    hs = HoughtonSystem(3)
    p, rest = r.children()
    assert hs.coexpansions(frozenset((p, rest))) == [r]
    assert union(p.support(), rest.support()) == r.support()
    assert SparseRegion.all_disjoint((p.support(), rest.support()))


def test_coexpansion_examples():
    out = h2.coexpansions(
        frozenset((HPointClass((1, 1)), HRayClass(1, (), 2)))
    )
    assert out == [HRayClass(1, (), 1)]
    # two points never form a basin
    assert (
        h2.coexpansions(frozenset((HPointClass((1, 1)), HPointClass((1, 2)))))
        == []
    )
    # collision with the ray's images -> no parent, not an error
    assert (
        h2.coexpansions(
            frozenset((HPointClass((1, 5)), HRayClass(1, (), 2)))
        )
        == []
    )


@given(seeds)
@settings(max_examples=80, deadline=None)
def test_at_most_one_coexpansion(seed):
    rng = random.Random(seed)
    n = rng.choice((2, 3))
    hs = HoughtonSystem(n)
    out = hs.coexpansions(
        frozenset((random_h_point(rng, n), random_h_ray(rng, n)))
    )
    assert len(out) <= 1


# -- regions -----------------------------------------------------------------------


def union(a, b):
    return SparseRegion.make(a.points | b.points, a.tails + b.tails)


def whole(n):
    """The whole space of n branches: a tail (i, 1) on each branch i."""
    return SparseRegion(frozenset(), tuple((i, 1) for i in range(1, n + 1)))


def test_region_normalization():
    r = SparseRegion.make({(1, 1), (1, 2)}, [(1, 3)])
    assert r == whole(1)
    r = SparseRegion.make({(2, 1)}, [(1, 4), (1, 2)])
    assert r.tails == ((1, 2),) and r.points == frozenset({(2, 1)})


def test_full_support_detection():
    assert h2.is_full_support(h2.base_vertex())
    assert not h2.is_full_support(
        validate_vertex([HRayClass(1, (), 1)])
    )
    v = validate_vertex(
        [HPointClass((1, 1)), HRayClass(1, (), 2), HRayClass(2, (), 1)]
    )
    assert h2.is_full_support(v)


def test_covers_space_matches_the_union_of_the_regions():
    h3 = HoughtonSystem(3)
    rng = random.Random(5)
    for _ in range(30):
        v = random_vertex(h3, rng, rng.randint(3, 7))
        for k in range(len(v) + 1):
            regions = [b.support() for b in v.elements[:k]]
            folded = SparseRegion(frozenset(), ())
            for r in regions:
                folded = union(folded, r)
            assert h3.covers_space(regions) == (folded == whole(3))


def test_full_support_check_never_builds_the_whole_space(monkeypatch):
    make = SparseRegion.make

    def guarded(points, tails):
        tails = list(tails)
        if len(tails) >= 1000:
            raise AssertionError(f"built a region of {len(tails)} tails")
        return make(points, tails)

    monkeypatch.setattr(SparseRegion, "make", staticmethod(guarded))
    one_ray = validate_vertex([HRayClass(1, (), 1)])
    assert not HoughtonSystem(10**12).is_full_support(one_ray)
    assert HoughtonSystem(1).is_full_support(one_ray)
    # a ray on a branch past n covers none of the space's branches
    rays = validate_vertex([HRayClass(1, (), 1), HRayClass(3, (), 1)])
    assert not h2.is_full_support(rays)
    assert not HoughtonSystem(1).is_full_support(rays)


def test_assemble_check_never_builds_the_whole_space(monkeypatch):
    # The tiling check counts the tails against n before it builds
    # anything: a system of 10**12 branches refuses the pieces of a small
    # vertex at once, without a region; a list of n offsets would not fit.
    v = random_vertex(h2, rng_from_seed(7), 5)
    pieces = [h2.transfer(b, b) for b in v]

    def guarded(points, tails):
        raise AssertionError("built a region")

    monkeypatch.setattr(SparseRegion, "make", staticmethod(guarded))
    assert h2.assemble(pieces) == h2.identity()
    with pytest.raises(NotABijection):
        HoughtonSystem(10**12).assemble(pieces)


# -- the group ----------------------------------------------------------------------


def test_group_construction_rejects_bad_maps():
    with pytest.raises(NotABijection):
        HGroupElement.make(2, (0, 0), {(1, 1): (1, 2)})
    with pytest.raises(NotABijection):
        # offset -1 with no image for position 1
        HGroupElement.make(2, (-1, 1), {})


@pytest.mark.parametrize(
    "offsets",
    [(0.5, -0.5), (1.0, -1), (True, -1), ("1", "-1"), [0, False]],
    ids=["halves", "float", "bool", "str", "bool-in-list"],
)
def test_group_offsets_must_be_ints(offsets):
    # `int(0.5)` is 0, so halves once made the identity in silence.
    with pytest.raises(InputError, match="offsets must be a list of ints"):
        HGroupElement.make(2, offsets, {})
    assert HGroupElement.make(2, [0, 0], {}) == h2.identity()


@pytest.mark.parametrize(
    "offsets", [(10**9, 0), (0, -(10**9)), (10**9, -(10**9))]
)
def test_group_offsets_beyond_the_exceptions_fail_at_once(offsets):
    # Each of the first |t| positions of a branch with offset t needs an
    # exception, so these are refused before any loop over |t| runs.
    with pytest.raises(NotABijection, match="offsets exceed"):
        HGroupElement.make(2, offsets, {(2, 1): (1, 1)})


def test_group_normalizes_redundant_exceptions():
    g = HGroupElement.make(2, (0, 0), {(1, 1): (1, 1)})
    assert g == h2.identity()


def test_shift_group_element():
    g = HGroupElement.make(2, (1, -1), {(2, 1): (1, 1)})
    assert g.apply((1, 1)) == (1, 2)
    assert g.apply((2, 5)) == (2, 4)
    assert g.apply((2, 1)) == (1, 1)
    assert g * g.inverse() == h2.identity()


@given(seeds)
@settings(max_examples=80, deadline=None)
def test_group_axioms(seed):
    rng = random.Random(seed)
    n = rng.choice((2, 3))
    hs = HoughtonSystem(n)
    g = random_h_group(rng, n)
    h = random_h_group(rng, n)
    assert g * g.inverse() == hs.identity()
    assert (g * h).inverse() == h.inverse() * g.inverse()
    for _ in range(10):
        x = (rng.randint(1, n), rng.randint(1, 12))
        assert (g * h).apply(x) == g.apply(h.apply(x))
        assert g.preimage(g.apply(x)) == x


def pointwise(n, offsets, f, gs):
    """`HGroupElement.make` of the map f, given point by point on every
    position up to where the elements gs stop deviating from a
    translation, and by `offsets` beyond."""
    top = 1 + sum(abs(t) for g in gs for t in g.offsets) + max(
        (p for g in gs for pair in g.exceptions for _, p in pair), default=0
    )
    return HGroupElement.make(
        n,
        offsets,
        {
            (i, p): f((i, p))
            for i in range(1, n + 1)
            for p in range(1, top + 1)
        },
    )


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("seed", [7, 1009])
def test_products_and_inverses_match_make(n, seed):
    # Products and inverses skip the bijection check.  Seeded elements
    # with nonzero offsets join the stabilizer, whose offsets are all 0.
    hs = HoughtonSystem(n)
    rng = rng_from_seed(seed)
    group = CubeComplex(hs).stabilizer(random_vertex(hs, rng, n + 4))
    assert len(group) == 24
    elements = group + [random_h_group(rng, n) for _ in range(6)]
    assert any(any(g.offsets) for g in elements)
    for g in elements:
        negated = tuple(-t for t in g.offsets)
        assert g.inverse() == pointwise(n, negated, g.preimage, [g])
        for h in elements:
            offsets = tuple(a + b for a, b in zip(g.offsets, h.offsets))
            want = pointwise(n, offsets, lambda x: g.apply(h.apply(x)), [g, h])
            assert g * h == want, (g, h)


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_action_on_elements(seed):
    rng = random.Random(seed)
    g = random_h_group(rng, 2)
    h = random_h_group(rng, 2)
    for b in (random_h_point(rng, 2), random_h_ray(rng, 2)):
        assert h2.act(h2.identity(), b) == b
        assert h2.act(g, h2.act(h, b)) == h2.act(g * h, b)
        kids = b.children()
        if kids is not None:
            assert h2.act(g, b).children() == tuple(
                h2.act(g, c) for c in kids
            )


def test_act_on_ray_through_exceptional_tail():
    g = HGroupElement.make(2, (0, 0), {(1, 1): (1, 2), (1, 2): (1, 1)})
    got = h2.act(g, HRayClass(1, (), 1))
    assert got == HRayClass.make(1, [(1, 2), (1, 1)], 3)


# -- transfers and stabilizers ----------------------------------------------------------


def test_transfer_kinds():
    p1, p2 = HPointClass((1, 1)), HPointClass((2, 7))
    piece = h2.transfer(p1, p2)
    assert piece.point_pairs == (((1, 1), (2, 7)),) and piece.tail_pair is None
    r1, r2 = HRayClass(1, (), 2), HRayClass(1, ((2, 3),), 5)
    piece = h2.transfer(r1, r2)
    assert piece is not None
    assert h2.transfer(r1, HRayClass(2, (), 1)) is None  # cross-branch
    assert h2.transfer(p1, r1) is None


def test_standard_vertex_stabilizer_is_point_permutations():
    cx = CubeComplex(h2)
    v = validate_vertex(
        [
            HPointClass((1, 1)),
            HPointClass((1, 2)),
            HPointClass((2, 1)),
            HRayClass(1, (), 3),
            HRayClass(2, (), 2),
        ]
    )
    stab = cx.stabilizer(v)
    assert len(stab) == math.factorial(3)
    assert all(h2.act_vertex(g, v) == v for g in stab)


# -- standardize and join -----------------------------------------------------------------


def test_standardize_peels_every_exception():
    v = validate_vertex(
        [HRayClass.make(1, [(2, 1)], 1), HRayClass(2, (), 2)]
    )
    path = h2.standardize(v)
    assert path.check()
    assert all(
        not b.exceptions
        for b in path.end
        if isinstance(b, HRayClass)
    )


def test_join_uses_max_tail_per_branch():
    s1 = validate_vertex(
        [HRayClass(1, (), 3), HRayClass(2, (), 3)]
        + [HPointClass((i, q)) for i in (1, 2) for q in (1, 2)]
    )
    s2 = validate_vertex(
        [HRayClass(1, (), 5), HRayClass(2, (), 5)]
        + [HPointClass((i, q)) for i in (1, 2) for q in (1, 2, 3, 4)]
    )
    assert h2.join_standard(s1, s2) == s2
    w, p1, p2 = CubeComplex(h2).join(s1, s2)
    assert w == s2
    assert len(p1) == 4 and len(p2) == 0
    assert p1.check()
    assert h2.join_standard(s1, s1) == s1


@given(seeds)
@settings(max_examples=30, deadline=None)
def test_join_dominates_both(seed):
    rng = random.Random(seed)
    cx = CubeComplex(h2)
    v1 = random_vertex(h2, rng, rng.randint(2, 6))
    v2 = random_vertex(h2, rng, rng.randint(2, 6))
    w, p1, p2 = cx.join(v1, v2)
    assert p1.start == v1 and p1.end == w and p1.check()
    assert p2.start == v2 and p2.end == w and p2.check()


# -- degree law ------------------------------------------------------------------------------


@given(seeds)
@settings(max_examples=30, deadline=None)
def test_degree_law(seed):
    rng = random.Random(seed)
    cx = CubeComplex(h2)
    v = random_vertex(h2, rng, rng.randint(2, 7))
    moves = cx.moves_at(v)
    rays = [b for b in v if b.children() is not None]
    points = [b for b in v if b.children() is None]
    ups = [m for m in moves if m.kind == "expand"]
    downs = [m for m in moves if m.kind == "contract"]
    assert len(ups) == len(rays)
    assert len(downs) <= len(points) * len(rays)
    assert len(moves) == brute_neighbor_count(h2, v)


def test_branch_count_validation():
    with pytest.raises(InputError):
        HoughtonSystem(0)
    with pytest.raises(InputError):
        h2.parse_element([3, 1])


def test_branch_count_rejects_a_bool():
    # `bool` is an `int`, so `True` would otherwise pass as n = 1.
    for n in (True, False):
        with pytest.raises(InputError):
            HoughtonSystem(n)
