"""One audit of every vertex and cube the engine builds unchecked.

`core._vertex_unchecked` and the `Cube` constructor trust their callers.
Ascent steps, group actions, cube corners and bases, link neighbours,
the meet of two cubes, joins and the `houghton` base vertex are disjoint
by construction, so nothing checks them as they are built.  Here every
module that binds `_vertex_unchecked` gets an audited copy, and so does
`Cube`.  Each vertex built must have no repeated element, pairwise
disjoint supports (the region type's `all_disjoint`) and full support.
Each cube's active elements must be distinct, in the base, expandable
and in key order.  Seeded queries then run through every trusted path,
on `v`, `houghton` n=2 and n=3, seeds 7 and 1009.

`stabilizer` builds its group elements with the system's
`_assemble_unchecked`, without `assemble`'s tiling check.  The same
queries audit each of those elements: it must be a bijection and equal
`assemble` of the same pieces.
"""

import ast
from pathlib import Path

import pytest

import cubex
from cubex import (
    CubeComplex,
    HoughtonSystem,
    VSystem,
    core,
    cube_intersection,
    cubical,
    houghton,
    thompson,
)
from cubex.core import _in_key_order
from cubex.thompson import is_complete_code
from cubex.oracle import (
    random_cube_at,
    random_h_group,
    random_v_group,
    random_vertex,
    rng_from_seed,
)

UNCHECKED = "_vertex_unchecked"
AUDITED = (core, cubical, houghton, thompson)
SYSTEMS = {
    "v": VSystem,
    "houghton2": lambda: HoughtonSystem(2),
    "houghton3": lambda: HoughtonSystem(3),
}


def binds_unchecked(path):
    """True iff the module defines `_vertex_unchecked` or imports it by
    name."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.FunctionDef) and node.name == UNCHECKED:
            return True
        if isinstance(node, ast.ImportFrom) and any(
            alias.name == UNCHECKED for alias in node.names
        ):
            return True
    return False


def test_the_audit_covers_every_module_that_binds_vertex_unchecked():
    src = Path(cubex.__file__).parent
    binding = {p.stem for p in src.glob("*.py") if binds_unchecked(p)}
    assert binding == {m.__name__.rpartition(".")[2] for m in AUDITED}


class Audit:
    """Counts, per query, the vertices and cubes built and audited."""

    def __init__(self, system, monkeypatch):
        self.system = system
        self.vertices = self.cubes = 0
        build = core._vertex_unchecked
        init = cubical.Cube.__init__

        def audited_build(elements):
            # A frozenset is kept as the vertex's member set, so it is
            # passed on as it came; anything else is passed as a list.
            if not isinstance(elements, frozenset):
                elements = list(elements)
            self.check_vertex(elements)
            return build(elements)

        def audited_init(cube, base, active):
            init(cube, base, active)
            self.check_cube(cube)

        for module in AUDITED:
            monkeypatch.setattr(module, UNCHECKED, audited_build)
        monkeypatch.setattr(cubical.Cube, "__init__", audited_init)

    def check_vertex(self, elements):
        assert elements, "an empty vertex"
        assert len(set(elements)) == len(elements), "a repeated element"
        supports = [b.support() for b in elements]
        assert type(supports[0]).all_disjoint(supports), "overlapping"
        assert self.system.is_full_support(elements), "not full support"
        self.vertices += 1

    def check_cube(self, cube):
        active = cube.active
        assert isinstance(active, tuple)
        assert len(set(active)) == len(active), "a repeated active element"
        assert all(b in cube.base for b in active), "active outside the base"
        assert all(b.children() is not None for b in active), "unexpandable"
        assert active == _in_key_order(active), "active not in key order"
        self.cubes += 1


def run_queries(system, seed, run):
    """Seeded queries through every trusted path, each as
    `run(name, function, *args)`."""
    rng = rng_from_seed(seed)
    cx = CubeComplex(system)
    low = system.base_vertex().height
    vertices = [random_vertex(system, rng, low + h) for h in range(1, 6)]
    if system.name == "v":
        group = [random_v_group(rng) for _ in range(4)]
    else:
        group = [random_h_group(rng, system.n) for _ in range(4)]
    run("bfs", cx.bfs, vertices[1], 3)
    for v in vertices:
        _, w = rng.choice(cx.neighbors(v))
        c1, c2, c3 = (random_cube_at(system, rng, u, 2) for u in (v, v, w))
        run("cubes_at", cx.cubes_at, v, 3)
        run("check_flag", cx.check_flag, v, 4)
        run("join", cx.join, v, vertices[0])
        run("cube_intersection", cube_intersection, c1, c2)
        run("cube_intersection", cube_intersection, c1, c3)
        run("stabilizer", cx.stabilizer, v)
        for g in group:
            run("act_vertex", system.act_vertex, g, v)


@pytest.mark.parametrize("seed", [7, 1009])
@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_every_trusted_build_is_a_vertex(name, seed, monkeypatch):
    system = SYSTEMS[name]()
    audit = Audit(system, monkeypatch)
    built = {}

    def run(query, function, *args):
        before = audit.vertices, audit.cubes
        function(*args)
        counts = built.setdefault(query, [0, 0])
        counts[0] += audit.vertices - before[0]
        counts[1] += audit.cubes - before[1]

    run_queries(system, seed, run)
    # Each query but `stabilizer` and `check_flag`, which build no
    # vertex, reached the audited `_vertex_unchecked`; the cube queries
    # but `check_flag`, which runs on the link's masks and builds no
    # cube, reached the audited `Cube` constructor.
    assert {q for q, (vertices, _) in built.items() if not vertices} == {
        "stabilizer",
        "check_flag",
    }
    assert built["check_flag"] == [0, 0]
    for query in ("cubes_at", "cube_intersection"):
        assert built[query][1] > 0, query


def check_bijection(g):
    if isinstance(g, thompson.VGroupElement):
        assert is_complete_code(d for d, _ in g.table), "domain not a code"
        assert is_complete_code(w for _, w in g.table), "image not a code"
    else:
        g._check_bijection()


@pytest.mark.parametrize("seed", [7, 1009])
@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_every_unchecked_group_build_is_a_bijection(name, seed, monkeypatch):
    system = SYSTEMS[name]()
    owner = type(system)
    build, assemble = owner._assemble_unchecked, owner.assemble
    checking = []  # non-empty while `assemble` runs: its build is checked
    audited = []

    def audited_assemble(self, pieces):
        checking.append(True)
        try:
            return assemble(self, pieces)
        finally:
            checking.pop()

    def audited_build(self, pieces):
        g = build(self, pieces)
        if not checking:
            check_bijection(g)
            assert g == audited_assemble(self, pieces)
            audited.append(g)
        return g

    monkeypatch.setattr(owner, "assemble", audited_assemble)
    monkeypatch.setattr(owner, "_assemble_unchecked", audited_build)
    built = {}

    def run(query, function, *args):
        audited.clear()
        result = function(*args)
        built[query] = built.get(query, 0) + len(audited)
        if query == "stabilizer":
            # Each element returned was built once, without a check.
            assert sorted(audited, key=str) == result

    run_queries(system, seed, run)
    assert {q for q, count in built.items() if count} == {"stabilizer"}
