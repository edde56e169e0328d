"""Vertex construction, supports, moves, and ascending paths."""

import pytest

from cubex import (
    DuplicateElement,
    Move,
    MoveNotApplicable,
    OverlappingSupports,
    VElement,
    VSystem,
    apply_move,
    glue,
    validate_vertex,
)
from cubex.thompson import BallRegion


def ball(w):
    """The identity class supported on the ball named by w."""
    return VElement((("", w),))


def test_validate_vertex_sorts_and_accepts_disjoint():
    v = validate_vertex([ball("1"), ball("0")])
    assert v.height == 2
    assert [b.key() for b in v] == ["->0", "->1"]


def test_validate_vertex_rejects_nested_balls():
    with pytest.raises(OverlappingSupports) as err:
        validate_vertex([ball("0"), ball("00")])
    assert err.value.indices == (0, 1)


def test_validate_vertex_rejects_duplicates():
    with pytest.raises(DuplicateElement):
        validate_vertex([ball("0"), ball("0")])


def test_five_element_vertex_is_valid():
    v = validate_vertex([ball(w) for w in ("00", "01", "100", "101", "11")])
    assert v.height == 5
    assert VSystem().is_full_support(v)


def test_full_support():
    vs = VSystem()
    assert vs.is_full_support(validate_vertex([ball("")]))
    assert not vs.is_full_support(validate_vertex([ball("0")]))
    assert vs.is_full_support(validate_vertex([ball("0"), ball("10"), ball("11")]))


def test_induced_partition_order_and_disjointness():
    v = validate_vertex([ball("0"), ball("10"), ball("11")])
    regions = [b.support() for b in v]
    assert [r.words for r in regions] == [("0",), ("10",), ("11",)]
    assert BallRegion.all_disjoint(regions)
    for i in range(len(regions)):
        for j in range(i + 1, len(regions)):
            assert BallRegion.all_disjoint((regions[i], regions[j]))


def test_restrict_prefix_containment():
    def restrict(v, b):
        """The elements of v whose support nests inside b's support: those
        whose words, joined to b's, leave b's unchanged."""
        words = b.support().words
        return [
            c
            for c in v
            if BallRegion.make(c.support().words + words).words == words
        ]

    v = validate_vertex([ball("00"), ball("01"), ball("1")])
    inside = restrict(v, ball("0"))
    assert sorted(b.key() for b in inside) == ["->00", "->01"]
    assert restrict(validate_vertex([ball("1")]), ball("0")) == []
    # an element restricted to itself, nothing else nesting
    assert restrict(v, ball("1")) == [ball("1")]


def test_apply_move_expand_contract_roundtrip():
    v = validate_vertex([ball("0"), ball("10"), ball("11")])
    up = apply_move(v, Move.expand(ball("0")))
    assert {b.key() for b in up} == {"->00", "->01", "->10", "->11"}
    assert up.height == v.height + 1
    down = apply_move(up, Move.contract(ball("0")))
    assert down == v


def test_contract_through_identity():
    halves = validate_vertex([ball("0"), ball("1")])
    whole = apply_move(halves, Move.contract(ball("")))
    assert whole == validate_vertex([ball("")])


def test_move_not_applicable():
    v = validate_vertex([ball("0"), ball("10"), ball("11")])
    with pytest.raises(MoveNotApplicable):
        apply_move(v, Move.expand(ball("1")))
    with pytest.raises(MoveNotApplicable):
        apply_move(v, Move.contract(ball("0")))  # children 00/01 not in v


def test_contract_needs_full_basin():
    v = validate_vertex([ball("0"), ball("10"), ball("111"), ball("110")])
    with pytest.raises(MoveNotApplicable):
        apply_move(v, Move.contract(ball("1")))


def test_moves_preserve_full_support():
    vs = VSystem()
    v = validate_vertex([ball("0"), ball("10"), ball("11")])
    assert vs.is_full_support(apply_move(v, Move.expand(ball("10"))))
    assert vs.is_full_support(apply_move(v, Move.contract(ball("1"))))


def test_coexpansions_contains_parent():
    vs = VSystem()
    b = glue(ball("01"), ball("00"))
    assert b in vs.coexpansions(frozenset(b.children()))


def test_basin_of_moves():
    m = Move.expand(ball("0"))
    assert m.basin == frozenset((ball("0"),))
    assert m.gain == frozenset((ball("00"), ball("01")))
    c = Move.contract(ball(""))
    assert c.basin == frozenset((ball("0"), ball("1")))
    assert c.gain == frozenset((ball(""),))
    # The sets take no part in equality or repr.
    assert m == Move.expand(ball("0")) and "basin" not in repr(m)
    v = validate_vertex([ball("1"), ball("0")])
    assert v.as_set() is v.as_set()
    assert v.as_set() == frozenset(v.elements)
    w = apply_move(v, c)
    assert w.as_set() is w.as_set()
    assert w.as_set() == frozenset(w.elements)
