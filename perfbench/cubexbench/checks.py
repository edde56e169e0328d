"""Answer checks, run outside the timed window.

Each check returns a list of problems, empty when the answer is right.
A check compares the answer against a property the method must have, or
against a computation made without the code under test: the brute
neighbourhoods below use only `children()` and `coexpansions` over all
element subsets, as `oracle.brute_neighbor_count` does, and no `cubical`
code.
"""

from __future__ import annotations

import itertools
import math


def _vertex_like(v, elements):
    """A vertex of v's type, with the canonical element order."""
    return type(v)(tuple(sorted(elements, key=lambda b: b.key())))


def brute_neighbors(system, v):
    """Every vertex one expansion or one contraction away from v."""
    els = list(v)
    out = set()
    for b in els:
        kids = b.children()
        if kids is not None:
            out.add(_vertex_like(v, [x for x in els if x != b] + list(kids)))
    for size in range(2, len(els) + 1):
        for subset in itertools.combinations(els, size):
            for target in system.coexpansions(frozenset(subset)):
                rest = [x for x in els if x not in subset]
                out.add(_vertex_like(v, rest + [target]))
    return out


def brute_ball(system, start, radius):
    """Vertex set and edge set of the radius ball around start."""
    dist = {start: 0}
    edges = set()
    frontier = [start]
    for d in range(radius):
        next_frontier = []
        for v in frontier:
            for w in brute_neighbors(system, v):
                if w not in dist:
                    dist[w] = d + 1
                    next_frontier.append(w)
                edges.add(frozenset((v, w)))
        frontier = next_frontier
    return set(dist), edges


def tiles_space(system, v):
    """True iff v's elements cover the space exactly once.

    Read straight from the element data, without the region algebra:
    on `v` the image words must form a complete prefix code; on
    `houghton` every branch needs one ray, and the points below its tail
    must each be covered once.
    """
    if system.name == "v":
        words = sorted(g for b in v for _, g in b.table)
        if any(w.startswith(u) for u, w in zip(words, words[1:])):
            return False
        depth = max(map(len, words))
        return sum(1 << (depth - len(w)) for w in words) == 1 << depth
    points = []
    tails = {}
    for b in v:
        if hasattr(b, "image"):
            points.append(b.image)
        else:
            if b.branch in tails:
                return False
            tails[b.branch] = b.tail
            points.extend(b.exceptions)
    if sorted(tails) != list(range(1, system.n + 1)):
        return False
    if len(set(points)) != len(points):
        return False
    if any(p >= tails[i] for i, p in points):
        return False
    return len(points) == sum(t - 1 for t in tails.values())


def degree_law(system, v):
    """The number of neighbours of a full-support vertex.

    k² at height k on `v`; n·(m+1) on `houghton` with n branches and m
    points (each ray expands, and each point contracts into each ray).
    """
    if system.name == "v":
        return v.height**2
    return system.n * (v.height - system.n + 1)


def stabilizer_order(system, v):
    """k! on `v`; m! on `houghton` with m points (the rays stay fixed)."""
    if system.name == "v":
        return math.factorial(v.height)
    return math.factorial(v.height - system.n)


def _distances(graph):
    adjacent = [[] for _ in graph.vertices]
    for i, j in graph.edges:
        adjacent[i].append(j)
        adjacent[j].append(i)
    dist = [None] * len(graph.vertices)
    dist[0] = 0
    frontier = [0]
    while frontier:
        next_frontier = []
        for i in frontier:
            for j in adjacent[i]:
                if dist[j] is None:
                    dist[j] = dist[i] + 1
                    next_frontier.append(j)
        frontier = next_frontier
    return dist, adjacent


def check_ball(system, start, radius, graph, reference=None, brute=False):
    """Problems with a BFS ball.

    `reference` is the (vertex count, edge count) of an earlier ball of
    the same run: the group acts transitively on vertices of one height,
    so every start of one height gives the same counts.  With `brute`,
    the vertex and edge sets are also compared with `brute_ball`.
    """
    problems = []
    verts = graph.vertices
    if not verts or verts[0] != start:
        return ["the ball does not start at its start vertex"]
    if len(set(verts)) != len(verts):
        problems.append("a vertex is listed twice")
    counts = (len(verts), len(graph.edges))
    if reference is not None and counts != reference:
        problems.append(f"counts {counts} differ from {reference}")
    dist, adjacent = _distances(graph)
    for i, v in enumerate(verts):
        if dist[i] is None or dist[i] > radius:
            problems.append(f"vertex {i} lies outside the radius")
            break
        if dist[i] < radius and len(adjacent[i]) != degree_law(system, v):
            problems.append(f"vertex {i} has degree {len(adjacent[i])}")
            break
        if not tiles_space(system, v):
            problems.append(f"vertex {i} does not tile the space")
            break
    for i, j in graph.edges:
        if abs(verts[i].height - verts[j].height) != 1:
            problems.append(f"edge {i}-{j} does not change height by one")
            break
    if brute:
        want_verts, want_edges = brute_ball(system, start, radius)
        if set(verts) != want_verts:
            problems.append("the vertex set differs from the brute BFS")
        got_edges = {frozenset((verts[i], verts[j])) for i, j in graph.edges}
        if got_edges != want_edges:
            problems.append("the edge set differs from the brute BFS")
    return problems


def check_stabilizer(system, v, group):
    problems = []
    want = stabilizer_order(system, v)
    if len(group) != want:
        problems.append(f"order {len(group)}, expected {want}")
    keys = [g.key() for g in group]
    if len(set(keys)) != len(keys):
        problems.append("repeated group elements")
    if any(system.act_vertex(g, v) != v for g in group):
        problems.append("an element moves the vertex")
    return problems


def check_intersection(corners, brute_corners):
    """`corners`: the vertex set of the computed intersection cube."""
    if not corners:
        return ["the cubes share a vertex, but the intersection is empty"]
    if corners != brute_corners:
        return ["the intersection differs from the brute intersection"]
    return []


def check_flag_report(report):
    return [] if report.passed else ["the flag condition failed"]


def check_join(v1, v2, answer):
    w, p1, p2 = answer
    problems = []
    if p1.start != v1 or p2.start != v2:
        problems.append("a join path does not start at its vertex")
    if p1.end != w or p2.end != w:
        problems.append("a join path does not end at the join")
    if not (p1.check() and p2.check()):
        problems.append("a join path is not ascending")
    return problems


def check_cubes_at(system, v, cubes, in_cube):
    """`in_cube(c, v)`: membership of v in cube c."""
    problems = []
    if not all(in_cube(c, v) for c in cubes):
        problems.append("a cube misses its vertex")
    edges = sum(1 for c in cubes if c.dim == 1)
    degree = len(brute_neighbors(system, v))
    if edges != degree:
        problems.append(f"{edges} 1-cubes, but degree {degree}")
    return problems
