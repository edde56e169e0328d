"""The four workloads.

Each workload builds its systems once, then makes its queries a round at
a time from a seeded generator: every query gets its own input, and all
queries of one kind have the same size.  A query's `call` is the only
thing timed.  It reaches the library through module and class
attributes at call time, so the traced run's wrappers see it.
"""

from __future__ import annotations

from . import checks

# Sizes of the inputs.  `full` is what the benchmark runs; `tiny` is for
# the smoke tests.  The full sizes keep one query near 10-100 ms, so a
# run of a few seconds holds the 100 queries that a 90th percentile
# with 10 samples beyond it needs.
SIZES = {
    "full": {
        "v-ball": {"height": 3, "radius": 3},
        "houghton-ball": {"n": 3, "height": 5, "radius": 3},
        "cube-queries": {"v_height": 3, "h_height": 4},
        "stabilizers": {"v_height": 4, "h_n": 2, "h_height": 6},
    },
    "tiny": {
        "v-ball": {"height": 2, "radius": 2},
        "houghton-ball": {"n": 2, "height": 3, "radius": 2},
        "cube-queries": {"v_height": 2, "h_height": 3},
        "stabilizers": {"v_height": 3, "h_n": 2, "h_height": 4},
    },
}

# Balls whose vertex and edge sets are also rebuilt by the brute BFS,
# at the start of each run.
BRUTE_BALLS = 2

# Largest cube a cube-intersection input spans.
CUBE_DIM = 3


class Query:
    """One timed call and the check of its answer.

    `weight(answer)` is the quantity the traced ratios divide by: the
    vertices a BFS discovered, or the order of a stabilizer.
    """

    __slots__ = ("op", "call", "check", "weight")

    def __init__(self, op, call, check, weight=None):
        self.op = op
        self.call = call
        self.check = check
        self.weight = weight


class BallWorkload:
    """BFS balls of one radius around seeded vertices of one height."""

    def __init__(self, lib, system, height, radius):
        self.lib = lib
        self.system = system
        self.complex = lib.cubical.CubeComplex(system)
        self.height = height
        self.radius = radius
        self.reference = None
        self.brute_left = BRUTE_BALLS

    def make_round(self, rng):
        v = self.lib.oracle.random_vertex(self.system, rng, self.height)
        return [
            Query(
                "bfs",
                lambda: self.complex.bfs(v, self.radius),
                lambda graph: self._check(v, graph),
                lambda graph: len(graph.vertices) - 1,
            )
        ]

    def _check(self, start, graph):
        brute = self.brute_left > 0
        self.brute_left -= 1
        problems = checks.check_ball(
            self.system, start, self.radius, graph, self.reference, brute
        )
        if self.reference is None and not problems:
            self.reference = (len(graph.vertices), len(graph.edges))
        return problems


def v_ball(lib, height, radius):
    return BallWorkload(lib, lib.thompson.VSystem(), height, radius)


def houghton_ball(lib, n, height, radius):
    return BallWorkload(lib, lib.houghton.HoughtonSystem(n), height, radius)


class CubeQueries:
    """A fixed mix of link, cube, intersection and join queries.

    One round holds each of the four kinds once on `v` and once on
    `houghton` with 2 branches, eight queries in all.
    """

    def __init__(self, lib, v_height, h_height):
        self.lib = lib
        self.cases = [
            (lib.cubical.CubeComplex(lib.thompson.VSystem()), v_height),
            (
                lib.cubical.CubeComplex(lib.houghton.HoughtonSystem(2)),
                h_height,
            ),
        ]

    def make_round(self, rng):
        queries = []
        for cx, height in self.cases:
            queries += self._queries(cx, height, rng)
        return queries

    def _queries(self, cx, height, rng):
        lib = self.lib
        system = cx.system

        def vertex():
            return lib.oracle.random_vertex(system, rng, height)

        flag_v = vertex()
        cubes_v = vertex()
        meet_v = vertex()
        c1 = lib.oracle.random_cube_at(system, rng, meet_v, CUBE_DIM)
        c2 = lib.oracle.random_cube_at(system, rng, meet_v, CUBE_DIM)
        join_v1, join_v2 = vertex(), vertex()

        def check_meet(cube):
            corners = (
                set() if cube is None else set(lib.cubical.cube_vertices(cube))
            )
            brute = lib.oracle.brute_cube_intersection(c1, c2)
            return checks.check_intersection(corners, brute)

        return [
            Query(
                "check_flag",
                lambda: cx.check_flag(flag_v),
                checks.check_flag_report,
            ),
            Query(
                "cubes_at",
                lambda: cx.cubes_at(cubes_v, height),
                lambda cubes: checks.check_cubes_at(
                    system, cubes_v, cubes, lib.cubical.vertex_in_cube
                ),
            ),
            Query(
                "cube_intersection",
                lambda: lib.cubical.cube_intersection(c1, c2),
                check_meet,
            ),
            Query(
                "join",
                lambda: cx.join(join_v1, join_v2),
                lambda answer: checks.check_join(join_v1, join_v2, answer),
            ),
        ]


class Stabilizers:
    """Stabilizers of seeded vertices: three on `v`, one on `houghton`.

    Both groups have the same order (4! at the full size).  The `v`
    times spread with the vertices' tables, and the `houghton` times lie
    inside that spread, so the mix leaves no gap for a quantile to jump
    across.  Three `v` queries a round keep the |G|² closure check, the
    cost ROADMAP item 3 targets, the larger share of the time.
    """

    def __init__(self, lib, v_height, h_n, h_height):
        self.lib = lib
        self.cases = [
            (lib.cubical.CubeComplex(lib.thompson.VSystem()), v_height, 3),
            (
                lib.cubical.CubeComplex(lib.houghton.HoughtonSystem(h_n)),
                h_height,
                1,
            ),
        ]

    def make_round(self, rng):
        queries = []
        for cx, height, count in self.cases:
            for _ in range(count):
                v = self.lib.oracle.random_vertex(cx.system, rng, height)
                queries.append(self._query(cx, v))
        return queries

    @staticmethod
    def _query(cx, v):
        return Query(
            "stabilizer",
            lambda: cx.stabilizer(v),
            lambda group: checks.check_stabilizer(cx.system, v, group),
            len,
        )


FACTORIES = {
    "v-ball": v_ball,
    "houghton-ball": houghton_ball,
    "cube-queries": CubeQueries,
    "stabilizers": Stabilizers,
}


def build(lib, name, scale="full"):
    """The workload `name` at the given scale, on the library `lib`."""
    return FACTORIES[name](lib, **SIZES[scale][name])
