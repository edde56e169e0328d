"""Structural verification suite.

Each check re-derives one of the library's structural guarantees on
seeded random data (plus a few fixed configurations) and returns a
CheckResult.  The same checks back the `cubex verify` command and the
acceptance test suite; sample counts can be scaled, with `None` meaning
each check's stock count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import oracle
from .core import InputError, Vertex, apply_move, validate_vertex
from .cubical import (
    CubeComplex,
    cube_intersection,
    cube_vertices,
    intersection_lemma_check,
)
from .houghton import HoughtonSystem, canonicalize_ray
from .thompson import VElement, VSystem, canonicalize


@dataclass(unsafe_hash=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}: {self.detail}"


def _result(name, failures, detail):
    if failures:
        return CheckResult(name, False, f"{detail}; failures: {failures[:3]}")
    return CheckResult(name, True, detail)


# -- 1: the fixed two-cube --------------------------------------------------


def check_square_cube(seed=0, samples=None):
    """The height-3 identity vertex carries the expected 2-cube."""
    vs = VSystem()
    cx = CubeComplex(vs)
    b0, b10, b11 = (VElement((("", w),)) for w in ("0", "10", "11"))
    v = validate_vertex([b0, b10, b11])
    cubes = [
        c
        for c in cx.cubes_at(v, 2)
        if c.dim == 2 and c.base == v and set(c.active) == {b0, b10}
    ]
    failures = []
    if len(cubes) != 1:
        failures.append(f"expected one matching cube, found {len(cubes)}")
    else:
        got = {w.key() for w in cube_vertices(cubes[0])}
        want = {
            "->0|->10|->11",
            "->0|->100|->101|->11",
            "->00|->01|->10|->11",
            "->00|->01|->100|->101|->11",
        }
        if got != want:
            failures.append(f"corner mismatch: {sorted(got)}")
    return _result("square-cube", failures, "fixed 2-cube reproduced")


# -- 2: two coexpansions per pair (prefix maps) ------------------------------


def check_two_coexpansions(seed=0, samples=500):
    vs = VSystem()
    rng = oracle.rng_from_seed(seed)
    failures = []
    for i in range(samples):
        v = oracle.random_vertex(vs, rng, 2)
        pair = frozenset(v)
        out = vs.coexpansions(pair)
        if len(out) != 2 or out[0] == out[1]:
            failures.append((i, v.key()))
            continue
        if any(frozenset(b.children()) != pair for b in out):
            failures.append((i, v.key()))
    return _result(
        "two-coexpansions",
        failures,
        f"{samples} random pairs each admit exactly 2 parents",
    )


# -- 3: at most one coexpansion (point/ray system) ----------------------------


def check_at_most_one_coexpansion(seed=0, samples=500):
    failures = []
    for n in (2, 3):
        hs = HoughtonSystem(n)
        rng = oracle.rng_from_seed(seed + n)
        for i in range(samples):
            p = oracle.random_h_point(rng, n)
            r = oracle.random_h_ray(rng, n)
            out = hs.coexpansions(frozenset((p, r)))
            if len(out) > 1:
                failures.append((n, i, "arbitrary pair"))
            parent = oracle.random_h_ray(rng, n)
            kids = parent.children()
            out = hs.coexpansions(frozenset(kids))
            if len(out) != 1 or out[0] != parent:
                failures.append((n, i, parent.key()))
    return _result(
        "at-most-one-coexpansion",
        failures,
        f"{samples} pairs per branch count, n in (2, 3)",
    )


# -- 4: degree law (prefix maps) ----------------------------------------------


def check_degree_law(seed=0, samples=200):
    vs = VSystem()
    cx = CubeComplex(vs)
    rng = oracle.rng_from_seed(seed)
    failures = []
    for i in range(samples):
        k = 1 + i % 6
        v = oracle.random_vertex(vs, rng, k)
        moves = cx.moves_at(v)
        neighbors = {apply_move(v, m) for m in moves}
        brute = oracle.brute_neighbor_count(vs, v)
        if not (len(moves) == len(neighbors) == brute == k * k):
            failures.append((i, k, len(moves), brute))
    return _result(
        "degree-law", failures, f"{samples} vertices, heights 1-6, degree k^2"
    )


# -- 5: link flag condition -----------------------------------------------------


FLAG_RADIUS = 3
FLAG_MAX_CLIQUE = 4


def check_flag_condition(seed=0, samples=100):
    """The flag condition at up to `samples` vertices of the ball of
    radius FLAG_RADIUS around each system's base vertex."""
    failures = []
    scanned = 0
    for system in (VSystem(), HoughtonSystem(2)):
        cx = CubeComplex(system)
        rng = oracle.rng_from_seed(seed)
        ball = list(cx.bfs(system.base_vertex(), FLAG_RADIUS).vertices)
        if len(ball) > samples:
            ball = rng.sample(ball, samples)
        for v in ball:
            rep = cx.check_flag(v, FLAG_MAX_CLIQUE)
            scanned += 1
            if not rep.passed:
                failures.append((system.name, v.key()))
    return _result(
        "flag-condition",
        failures,
        f"{scanned} vertices within radius {FLAG_RADIUS}, cliques <= {FLAG_MAX_CLIQUE}",
    )


# -- 6: cube intersections --------------------------------------------------------


CUBE_MAX_DIM = 4


def check_cube_intersections(seed=0, samples=200):
    failures = []
    for system in (VSystem(), HoughtonSystem(2)):
        cx = CubeComplex(system)
        rng = oracle.rng_from_seed(seed + (0 if system.name == "v" else 1))
        base_height = system.base_vertex().height
        for i in range(samples // 2):
            v = oracle.random_vertex(
                system, rng, base_height + rng.randint(0, 3)
            )
            c1 = oracle.random_cube_at(system, rng, v, CUBE_MAX_DIM)
            w = rng.choice(cube_vertices(c1))
            c2 = oracle.random_cube_at(system, rng, w, CUBE_MAX_DIM)
            got = cube_intersection(c1, c2)
            want = oracle.brute_cube_intersection(c1, c2)
            got_set = set(cube_vertices(got)) if got is not None else set()
            if got_set != want or not want:
                failures.append((system.name, i, "vertex-set mismatch"))
                continue
            if got not in cx.cubes_at(got.base, got.dim):
                failures.append((system.name, i, "not listed at its base"))
                continue
            if not intersection_lemma_check(c1, c2).passed:
                failures.append((system.name, i, "lemma forward"))
            if not intersection_lemma_check(c2, c1).passed:
                failures.append((system.name, i, "lemma reverse"))
    return _result(
        "cube-intersections",
        failures,
        f"{2 * (samples // 2)} sharing pairs, dims <= {CUBE_MAX_DIM}",
    )


# -- 7: directedness ---------------------------------------------------------------


def check_directedness(seed=0, samples=200):
    failures = []
    for system in (VSystem(), HoughtonSystem(2)):
        cx = CubeComplex(system)
        rng = oracle.rng_from_seed(seed)
        base_height = system.base_vertex().height
        for i in range(samples):
            v1 = oracle.random_vertex(
                system, rng, base_height + rng.randint(0, 4)
            )
            v2 = oracle.random_vertex(
                system, rng, base_height + rng.randint(0, 4)
            )
            w, p1, p2 = cx.join(v1, v2)
            ok = (
                p1.start == v1
                and p2.start == v2
                and p1.end == w
                and p2.end == w
                and p1.check()
                and p2.check()
            )
            if not ok:
                failures.append((system.name, i))
    return _result(
        "directedness",
        failures,
        f"{samples} vertex pairs per system joined by ascending paths",
    )


# -- 8: local finiteness --------------------------------------------------------------


def check_local_finiteness(seed=0, samples=200):
    failures = []
    vs = VSystem()
    cxv = CubeComplex(vs)
    rng = oracle.rng_from_seed(seed)
    for i in range(samples // 2):
        k = 1 + i % 6
        v = oracle.random_vertex(vs, rng, k)
        if len(cxv.moves_at(v)) != k + k * (k - 1):
            failures.append(("v", i, k))
    hs = HoughtonSystem(2)
    cxh = CubeComplex(hs)
    for i in range(samples // 2):
        v = oracle.random_vertex(hs, rng, 2 + i % 5)
        moves = cxh.moves_at(v)
        rays = [b for b in v if b.children() is not None]
        points = [b for b in v if b.children() is None]
        ups = [m for m in moves if m.kind == "expand"]
        downs = [m for m in moves if m.kind == "contract"]
        if len(ups) != len(rays) or len(downs) > len(points) * len(rays):
            failures.append(("houghton", i))
        if len(moves) != oracle.brute_neighbor_count(hs, v):
            failures.append(("houghton", i, "brute mismatch"))
    return _result(
        "local-finiteness",
        failures,
        f"{2 * (samples // 2)} vertices, move lists finite with exact counts",
    )


# -- 9: stabilizers and the action ------------------------------------------------------


def check_stabilizers(seed=0, samples=200):
    vs = VSystem()
    cx = CubeComplex(vs)
    rng = oracle.rng_from_seed(seed)
    failures = []
    idcls = VElement((("", ""),))
    base = Vertex((idcls,))
    if len(cx.stabilizer(base)) != 1:
        failures.append("base stabilizer not trivial")
    halves = validate_vertex(list(idcls.children()))
    stab2 = cx.stabilizer(halves)
    keys = {g.key() for g in stab2}
    if keys != {"->", "0->1,1->0"}:
        failures.append(f"height-2 stabilizer wrong: {sorted(keys)}")
    for k in (3, 4, 5):
        # The engine forms no group product; here all |G|^2 are formed.
        v = oracle.random_vertex(vs, rng, k)
        stab = cx.stabilizer(v)
        if len(stab) != math.factorial(k):
            failures.append(f"height-{k} stabilizer size")
        if any(vs.act_vertex(g, v) != v for g in stab):
            failures.append(f"height-{k} stabilizer moves the vertex")
        try:
            oracle.check_closed(stab)
        except InputError as err:
            failures.append(f"height-{k} {err}")
    failures.extend(_check_action_axioms(vs, seed, samples))
    failures.extend(_check_action_axioms(HoughtonSystem(2), seed, samples))
    return _result(
        "stabilizers",
        failures,
        f"orders 1/2/k!, action axioms on {samples} samples per system",
    )


def _random_group(system, rng):
    if system.name == "v":
        return oracle.random_v_group(rng, 3)
    return oracle.random_h_group(rng, system.n)


def _check_action_axioms(system, seed, samples):
    cx = CubeComplex(system)
    rng = oracle.rng_from_seed(seed)
    failures = []
    base_height = system.base_vertex().height
    for i in range(samples):
        g = _random_group(system, rng)
        h = _random_group(system, rng)
        v = oracle.random_vertex(
            system, rng, base_height + rng.randint(0, 3)
        )
        b = rng.choice(v.elements)
        if system.act(system.identity(), b) != b:
            failures.append((system.name, i, "identity"))
        if system.act(g, system.act(h, b)) != system.act(g * h, b):
            failures.append((system.name, i, "compatibility"))
        kids = b.children()
        if kids is not None:
            gkids = system.act_vertex(g, validate_vertex(kids)).as_set()
            if frozenset(system.act(g, c) for c in kids) != gkids or frozenset(
                system.act(g, b).children()
            ) != gkids:
                failures.append((system.name, i, "children"))
        gv = system.act_vertex(g, v)
        left = {system.act_vertex(g, w) for _, w in cx.neighbors(v)}
        right = {w for _, w in cx.neighbors(gv)}
        if left != right:
            failures.append((system.name, i, "adjacency"))
    return failures


# -- 10: canonical forms ---------------------------------------------------------------------


def check_canonical_soundness(seed=0, samples=1000):
    failures = []
    rng = oracle.rng_from_seed(seed)
    for i in range(samples):
        b = oracle.random_v_element(rng, 3)
        w1 = "".join(rng.choice("01") for _ in range(rng.randint(0, 5)))
        raw = [(w1 + d, g) for d, g in b.table]
        if canonicalize(raw, w1) != b:
            failures.append(("v", i))
    rng = oracle.rng_from_seed(seed)
    for i in range(samples):
        r = oracle.random_h_ray(rng, 2)
        start = rng.randint(1, 9)
        if (
            canonicalize_ray(r.branch, r.exceptions, r.tail, start=start)
            != r
        ):
            failures.append(("houghton-ray", i))
        # an unreduced representative: spell out tail points explicitly
        extra = rng.randint(1, 3)
        images = list(r.exceptions) + [
            (r.branch, r.tail + j) for j in range(extra)
        ]
        if canonicalize_ray(r.branch, images, r.tail + extra) != r:
            failures.append(("houghton-unreduced", i))
    return _result(
        "canonical-soundness",
        failures,
        f"{samples} transported representatives per system",
    )


ALL_CHECKS = (
    ("square-cube", check_square_cube),
    ("two-coexpansions", check_two_coexpansions),
    ("at-most-one-coexpansion", check_at_most_one_coexpansion),
    ("degree-law", check_degree_law),
    ("flag-condition", check_flag_condition),
    ("cube-intersections", check_cube_intersections),
    ("directedness", check_directedness),
    ("local-finiteness", check_local_finiteness),
    ("stabilizers", check_stabilizers),
    ("canonical-soundness", check_canonical_soundness),
)


def run_all(seed, samples=None, names=None):
    """Run the named checks (all by default) and return their results."""
    results = []
    for name, fn in ALL_CHECKS:
        if names and name not in names:
            continue
        if samples is None:
            results.append(fn(seed=seed))
        else:
            results.append(fn(seed=seed, samples=samples))
    return results
