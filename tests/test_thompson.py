"""Prefix-map classes: reduction, canonical forms, gluings, the action."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubex import (
    CubeComplex,
    InputError,
    NotABijection,
    OverlappingSupports,
    VElement,
    VGroupElement,
    VSystem,
    canonicalize,
    glue,
    reduce_table,
    validate_vertex,
)
from cubex.thompson import (
    BallRegion,
    IncompleteDomainCode,
    OverlappingImages,
    parse_table_text,
)
from cubex.oracle import (
    evaluate_table,
    random_v_element,
    random_v_group,
    tables_agree,
)

vs = VSystem()

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def elem(*entries):
    return VElement.from_table(entries)


# -- reduction ---------------------------------------------------------------


def test_reduce_identity_pair():
    assert reduce_table([("0", "0"), ("1", "1")]) == (("", ""),)


def test_reduce_transposition_is_fixed():
    t = (("0", "1"), ("1", "0"))
    assert reduce_table(t) == t


def test_reduce_merges_and_agrees_with_evaluation():
    raw = (("00", "10"), ("01", "11"), ("1", "0"))
    reduced = reduce_table(raw)
    assert reduced == (("0", "1"), ("1", "0"))
    assert tables_agree(raw, reduced, depth=3)


def test_reduce_rejects_incomplete_domain():
    with pytest.raises(IncompleteDomainCode):
        reduce_table([("0", "0")])
    with pytest.raises(IncompleteDomainCode):
        reduce_table([("0", "0"), ("1", "1"), ("11", "10")])


def test_reduce_rejects_overlapping_images():
    with pytest.raises(OverlappingImages):
        reduce_table([("0", "1"), ("1", "11")])


def test_parse_table_text():
    assert parse_table_text("00->1, 01->01, 1->00") == (
        ("00", "1"),
        ("01", "01"),
        ("1", "00"),
    )
    assert parse_table_text("->") == (("", ""),)
    with pytest.raises(InputError):
        parse_table_text("0->2")


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_reduction_preserves_the_map(seed):
    rng = random.Random(seed)
    b = random_v_element(rng, 4)
    # re-expand each entry one level and check reduction undoes nothing
    raw = [(d + bit, g + bit) for d, g in b.table for bit in "01"]
    depth = max(len(d) for d, _ in raw)
    assert reduce_table(raw) == b.table
    assert tables_agree(raw, b.table, depth)


# -- canonicalization ---------------------------------------------------------


def test_canonicalize_transports_domain():
    assert canonicalize([("1", "0")], "1") == elem(("", "0"))
    assert canonicalize([("01", "01")], "01") == elem(("", "01"))


def test_canonicalize_rejects_foreign_words():
    from cubex.thompson import DomainMismatch

    with pytest.raises(DomainMismatch):
        canonicalize([("0", "0"), ("1", "1")], "1")


@given(seeds)
@settings(max_examples=80, deadline=None)
def test_canonical_form_invariant_under_transport(seed):
    rng = random.Random(seed)
    b = random_v_element(rng, 3)
    w = "".join(rng.choice("01") for _ in range(rng.randint(0, 6)))
    raw = [(w + d, g) for d, g in b.table]
    assert canonicalize(raw, w) == b


# -- supports ------------------------------------------------------------------


def test_support_examples():
    assert elem(("", "0")).support().words == ("0",)
    assert elem(("0", "10"), ("1", "11")).support().words == ("1",)
    assert elem(("0", "1"), ("1", "0")).support().words == ("",)


def test_support_region_normalization_idempotent():
    r = BallRegion.make(["00", "01", "1"])
    assert r.words == ("",)
    assert BallRegion.make(r.words) == r


# -- expansion and gluing ---------------------------------------------------------


def test_expand_identity():
    assert elem(("", "")).children() == (elem(("", "0")), elem(("", "1")))


def test_expand_identity_transport():
    assert elem(("", "01")).children() == (
        elem(("", "010")),
        elem(("", "011")),
    )


def test_glue_identity_halves():
    assert glue(elem(("", "0")), elem(("", "1"))) == elem(("", ""))


def test_glue_swapped_halves_gives_transposition():
    a = glue(elem(("", "1")), elem(("", "0")))
    assert a == elem(("0", "1"), ("1", "0"))
    assert frozenset(a.children()) == frozenset(
        (elem(("", "0")), elem(("", "1")))
    )


def test_glue_requires_disjoint_supports():
    with pytest.raises(OverlappingSupports):
        glue(elem(("", "0")), elem(("", "00")))


@given(seeds)
@settings(max_examples=80, deadline=None)
def test_expand_glue_roundtrip(seed):
    rng = random.Random(seed)
    b = random_v_element(rng, 4)
    left, right = b.children()
    assert glue(left, right) == b
    ls, rs = left.support(), right.support()
    assert BallRegion.make(ls.words + rs.words) == b.support()
    assert BallRegion.all_disjoint((ls, rs))


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_coexpansions_exactly_two(seed):
    rng = random.Random(seed)
    b = random_v_element(rng, 4)
    pair = frozenset(b.children())
    out = vs.coexpansions(pair)
    assert len(out) == 2 and out[0] != out[1]
    assert all(frozenset(x.children()) == pair for x in out)
    assert b in out


def test_coexpansions_degenerate_inputs():
    b = elem(("", "0"))
    assert vs.coexpansions(frozenset((b,))) == []
    three = frozenset((elem(("", "00")), elem(("", "01")), elem(("", "1"))))
    assert vs.coexpansions(three) == []
    overlapping = frozenset((elem(("", "0")), elem(("", "00"))))
    assert vs.coexpansions(overlapping) == []


def test_coexpansions_of_halves_are_id_and_transposition():
    halves = frozenset((elem(("", "0")), elem(("", "1"))))
    out = vs.coexpansions(halves)
    assert {x.key() for x in out} == {"->", "0->1,1->0"}


# -- the group -------------------------------------------------------------------


def test_group_identity_and_transposition():
    a = VGroupElement.from_table([("0", "1"), ("1", "0")])
    assert a * a == vs.identity()
    assert a.inverse() == a


def test_group_rejects_non_bijection():
    with pytest.raises(NotABijection):
        VGroupElement.from_table([("0", "10"), ("1", "11")])


def test_act_identity_and_transposition():
    b = elem(("", "0"))
    a = VGroupElement.from_table([("0", "1"), ("1", "0")])
    assert vs.act(vs.identity(), b) == b
    assert vs.act(a, b) == elem(("", "1"))


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_group_axioms(seed):
    rng = random.Random(seed)
    g = random_v_group(rng, 3)
    h = random_v_group(rng, 3)
    e = vs.identity()
    assert g * g.inverse() == e
    assert g.inverse() * g == e
    assert (g * h).inverse() == h.inverse() * g.inverse()
    # composition agrees with pointwise evaluation
    depth = max(
        len(w) for t in ((g * h).table, g.table, h.table) for e2 in t for w in e2
    )
    for _ in range(20):
        w = "".join(rng.choice("01") for _ in range(depth + 2))
        assert evaluate_table((g * h).table, w) == evaluate_table(
            g.table, evaluate_table(h.table, w)
        )


def apply_group_to_region(g, region):
    """Image of a region under a group element, word by word."""
    words = []
    for w in region.words:
        for c, d in g.table:
            if w.startswith(c):
                words.append(d + w[len(c):])
            elif c.startswith(w):
                words.append(d)
    return BallRegion.make(words)


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_action_functorial_and_equivariant(seed):
    rng = random.Random(seed)
    g = random_v_group(rng, 3)
    h = random_v_group(rng, 3)
    b = random_v_element(rng, 3)
    assert vs.act(vs.identity(), b) == b
    assert vs.act(g, vs.act(h, b)) == vs.act(g * h, b)
    assert vs.act(g, b).support() == apply_group_to_region(g, b.support())
    assert vs.act(g, b).children() == tuple(
        vs.act(g, c) for c in b.children()
    )


# -- transfers ----------------------------------------------------------------------


def test_transfer_examples():
    b = elem(("", "0"))
    assert vs.transfer(b, b) == (("0", "0"),)
    assert vs.transfer(elem(("", "0")), elem(("", "1"))) == (("0", "1"),)


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_transfer_moves_the_element(seed):
    rng = random.Random(seed)
    b1 = random_v_element(rng, 3)
    b2 = random_v_element(rng, 3)
    piece = vs.transfer(b1, b2)
    # domain balls of the piece tile supp(b1); images tile supp(b2)
    assert BallRegion.make([d for d, _ in piece]) == b1.support()
    assert BallRegion.make([g for _, g in piece]) == b2.support()


# -- standardize and join --------------------------------------------------------------


def test_standardize_transposition_class():
    a_class = elem(("0", "1"), ("1", "0"))
    v = validate_vertex([a_class])
    path = vs.standardize(v)
    assert len(path) == 1
    assert {b.key() for b in path.end} == {"->0", "->1"}
    assert path.check()


def test_join_standard_refinement_order():
    s1 = validate_vertex([elem(("", "0")), elem(("", "1"))])
    s2 = validate_vertex(
        [elem(("", "0")), elem(("", "10")), elem(("", "11"))]
    )
    assert vs.join_standard(s1, s2) == s2
    w, p1, p2 = CubeComplex(vs).join(s1, s2)
    assert w == s2
    assert len(p1) == 1 and len(p2) == 0
    assert p1.check() and p2.check()


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_standardize_reaches_identity_classes(seed):
    from cubex.oracle import random_vertex

    rng = random.Random(seed)
    v = random_vertex(vs, rng, rng.randint(1, 5))
    path = vs.standardize(v)
    assert path.start == v
    assert path.check()
    assert all(
        len(b.table) == 1 and b.table[0][0] == "" for b in path.end
    )
