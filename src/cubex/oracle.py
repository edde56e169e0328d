"""Seeded random generators and independent brute-force verifiers.

The generators produce elements, group elements, vertices, and cubes
deterministically from a seed (same seed, same stream, any platform).
The brute checks re-derive neighbor counts, cube intersections, square
existence and stabilizers by plain enumeration so the main-path
routines can be tested differentially against them; they share element
types and the instance operations with the main path, but none of its
complex-level logic.
"""

from __future__ import annotations

import itertools
import random

from .core import (
    InputError,
    MoveNotApplicable,
    NotABijection,
    apply_move,
    validate_vertex,
)
from . import houghton, thompson
from .cubical import CubeComplex


def rng_from_seed(seed):
    if not isinstance(seed, int) or seed < 0 or seed >= 1 << 64:
        raise ValueError(f"seed must be a 64-bit unsigned int: {seed!r}")
    return random.Random(seed)


# -- word and element generators (prefix-substitution system) ----------------


def random_code(rng, leaves):
    """A uniform-ish complete prefix code with exactly `leaves` words."""
    if leaves == 1:
        return [""]
    split = rng.randint(1, leaves - 1)
    return ["0" + w for w in random_code(rng, split)] + [
        "1" + w for w in random_code(rng, leaves - split)
    ]


def random_code_by_depth(rng, depth_bound):
    """A complete prefix code grown by random subdivision, depth-bounded."""

    def grow(word):
        if len(word) < depth_bound and rng.random() < 0.55:
            return grow(word + "0") + grow(word + "1")
        return [word]

    return grow("")


def random_v_element(rng, depth_bound=4):
    """A random canonical prefix-map class.

    Domain: a random complete code of depth <= depth_bound.  Images: a
    random same-size subset of another complete code, randomly matched,
    so supports range from single balls to all of the space.
    """
    if depth_bound < 0:
        raise ValueError("depth bound must be >= 0")
    if depth_bound == 0:
        return thompson.VElement((("", ""),))
    domains = random_code_by_depth(rng, depth_bound)
    pool = random_code_by_depth(rng, depth_bound + 2)
    while len(pool) < len(domains):
        pool = random_code_by_depth(rng, depth_bound + 2)
    images = rng.sample(sorted(pool), len(domains))
    return thompson.VElement.from_table(list(zip(sorted(domains), images)))


def random_v_group(rng, depth_bound=4):
    leaves = len(random_code_by_depth(rng, depth_bound))
    domains = sorted(random_code(rng, leaves))
    images = sorted(random_code(rng, leaves))
    rng.shuffle(images)
    return thompson.VGroupElement.from_table(list(zip(domains, images)))


# -- generators for the point/ray system -------------------------------------


def random_h_point(rng, n):
    return houghton.HPointClass((rng.randint(1, n), rng.randint(1, 6)))


def random_h_ray(rng, n, max_exceptions=3):
    branch = rng.randint(1, n)
    tail = rng.randint(1, 5)
    exceptions = []
    seen = set()
    for _ in range(rng.randint(0, max_exceptions)):
        p = (rng.randint(1, n), rng.randint(1, 8))
        if p in seen or (p[0] == branch and p[1] >= tail):
            continue
        seen.add(p)
        exceptions.append(p)
    return houghton.HRayClass.make(branch, exceptions, tail)


def random_h_group(rng, n, spread=2):
    """A random eventually-translation bijection of the n-branch space."""
    offsets = [rng.randint(-spread, spread) for _ in range(n - 1)]
    offsets.append(-sum(offsets))
    starts = [
        max(1, 1 - t) + rng.randint(0, 3) for t in offsets
    ]
    domain_pts = [
        (i, p)
        for i, k in enumerate(starts, start=1)
        for p in range(1, k)
    ]
    image_pts = [
        (i, q)
        for i, (k, t) in enumerate(zip(starts, offsets), start=1)
        for q in range(1, k + t)
    ]
    rng.shuffle(image_pts)
    return houghton.HGroupElement.make(
        n, offsets, zip(domain_pts, image_pts)
    )


# -- vertex and cube generators ----------------------------------------------


def _target_key(m):
    return m.target.key()


def random_vertex(system, rng, height_bound):
    """A random full-support vertex of exactly `height_bound` elements,
    built by a random move sequence from the system's base vertex."""
    v = system.base_vertex()
    if height_bound < v.height:
        raise ValueError(
            f"height {height_bound} below the base height {v.height}"
        )
    ceiling = height_bound + 2
    for _ in range(3 * height_bound + 8):
        # A contraction lowers the height, which never exceeds the ceiling.
        candidates = [
            m
            for m in system.moves(v)
            if m.kind == "contract"
            or v.height + len(m.target.children()) - 1 <= ceiling
        ]
        if not candidates:
            break
        v = apply_move(v, rng.choice(sorted(candidates, key=_target_key)))
    while v.height > height_bound:
        contracts = [m for m in system.moves(v) if m.kind == "contract"]
        v = apply_move(v, rng.choice(sorted(contracts, key=_target_key)))
    while v.height < height_bound:
        expands = [m for m in system.moves(v) if m.kind == "expand"]
        v = apply_move(v, rng.choice(sorted(expands, key=_target_key)))
    return v


def random_cube_at(system, rng, v, max_dim):
    """A random cube containing v, spanned by a random disjoint move set."""
    moves = list(system.moves(v))
    rng.shuffle(moves)
    chosen = []
    for m in moves:
        if len(chosen) >= max_dim:
            break
        if all(m.basin.isdisjoint(c.basin) for c in chosen):
            chosen.append(m)
    return CubeComplex(system).cube_from_moves(v, chosen)


# -- brute-force verifiers -----------------------------------------------------


def evaluate_table(entries, word):
    """Image of a deep-enough word under a prefix-map table."""
    for d, g in entries:
        if word.startswith(d):
            return g + word[len(d):]
    raise ValueError(f"word {word!r} not covered by any table entry")


def tables_agree(t1, t2, depth):
    """Compare two tables by evaluating every word of a given depth."""
    words = ["".join(bits) for bits in itertools.product("01", repeat=depth)]
    return all(
        evaluate_table(t1, w) == evaluate_table(t2, w) for w in words
    )


def evaluate_ray(branch, images, tail, start, position):
    """Image of a domain position under a raw ray map.

    The raw map has domain [start, oo) in `branch`, sends its first
    len(images) positions to `images`, and translates the rest onto
    [tail, oo) of the same branch.
    """
    if position < start:
        raise ValueError(f"position {position} outside the domain")
    offset = position - start
    if offset < len(images):
        return tuple(images[offset])
    return (branch, tail + offset - len(images))


def brute_cube_intersection(c1, c2):
    """Literal set intersection of the two cubes' vertex sets."""
    return brute_corners(c1) & brute_corners(c2)


def brute_corners(c):
    """The set of a cube's corners, each built by `validate_vertex` from
    the base with one subset of the active elements expanded."""
    out = set()
    for r in range(c.dim + 1):
        for on in itertools.combinations(c.active, r):
            elements = [b for b in c.base if b not in on]
            elements += [kid for b in on for kid in b.children()]
            out.add(validate_vertex(elements))
    return out


def brute_neighbor_count(system, v):
    """The number of `brute_neighbors` of v."""
    return len(brute_neighbors(system, v))


def brute_neighbors(system, v):
    """The adjacent vertices, by exhaustive move application and dedupe.

    Considers expansions of every element and contractions of every
    subset of size >= 2, so it does not rely on the main path's
    contraction-candidate enumeration.
    """
    seen = set()
    for b in v:
        kids = b.children()
        if kids is None:
            continue
        rest = [x for x in v if x != b]
        seen.add(validate_vertex(rest + list(kids)))
    for size in range(2, len(v) + 1):
        for subset in itertools.combinations(v, size):
            for target in system.coexpansions(frozenset(subset)):
                rest = [x for x in v if x not in set(subset)]
                seen.add(validate_vertex(rest + [target]))
    return seen


def brute_square_test(system, v, m1, m2):
    """True iff the four vertices v, m1·v, m2·v, m2·m1·v close a square."""
    try:
        w1 = apply_move(v, m1)
        w2 = apply_move(v, m2)
        diag1 = apply_move(w1, m2)
        diag2 = apply_move(w2, m1)
    except MoveNotApplicable:
        return False
    return diag1 == diag2


def brute_stabilizer(system, v):
    """All group elements fixing v, sorted by key, by trying every one of
    the k! permutations of v's elements and checking closure on all
    |G|^2 products."""
    els = list(v)
    found = {}
    for perm in itertools.permutations(range(len(els))):
        pieces = []
        for i, j in enumerate(perm):
            piece = system.transfer(els[i], els[j])
            if piece is None:
                break
            pieces.append(piece)
        else:
            try:
                g = system.assemble(pieces)
            except NotABijection:
                continue
            if system.act_vertex(g, v) == v:
                found[g.key()] = g
    group = [found[k] for k in sorted(found)]
    members = set(found)
    for g in group:
        if g.inverse().key() not in members:
            raise InputError("stabilizer not closed under inversion")
        for h in group:
            if (g * h).key() not in members:
                raise InputError("stabilizer not closed under composition")
    return group
