"""Tests of the benchmark's own code.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

from cubexbench import bench, checks, workloads  # noqa: E402
from cubexbench.spans import Tracer  # noqa: E402

NAMES = sorted(workloads.FACTORIES)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


@pytest.fixture
def lib():
    return bench.Library()


def drop_last_vertex(graph):
    last = len(graph.vertices) - 1
    return type(graph)(
        graph.vertices[:-1],
        graph.heights[:-1],
        tuple(e for e in graph.edges if last not in e),
        graph.radius,
    )


@pytest.mark.parametrize("system_name", ["v", "houghton"])
def test_ball_check_fails_with_a_vertex_dropped(lib, system_name):
    if system_name == "v":
        system = lib.thompson.VSystem()
    else:
        system = lib.houghton.HoughtonSystem(2)
    start = lib.oracle.random_vertex(system, bench.input_rng(lib, 7, 0), 3)
    graph = lib.cubical.CubeComplex(system).bfs(start, 2)
    counts = (len(graph.vertices), len(graph.edges))
    assert checks.check_ball(system, start, 2, graph, counts, brute=True) == []
    bad = drop_last_vertex(graph)
    assert checks.check_ball(system, start, 2, bad, counts)
    assert checks.check_ball(system, start, 2, bad, brute=True)


def test_stabilizer_check_fails_with_an_element_dropped(lib):
    system = lib.thompson.VSystem()
    v = lib.oracle.random_vertex(system, bench.input_rng(lib, 7, 0), 3)
    group = lib.cubical.CubeComplex(system).stabilizer(v)
    assert checks.check_stabilizer(system, v, group) == []
    assert checks.check_stabilizer(system, v, group[:-1])
    assert checks.check_stabilizer(system, v, group + group[:1])


def test_intersection_check_fails_with_a_corner_dropped(lib):
    system = lib.houghton.HoughtonSystem(2)
    rng = bench.input_rng(lib, 7, 0)
    v = lib.oracle.random_vertex(system, rng, 4)
    c1 = lib.oracle.random_cube_at(system, rng, v, 3)
    c2 = lib.oracle.random_cube_at(system, rng, v, 3)
    meet = lib.cubical.cube_intersection(c1, c2)
    corners = set(lib.cubical.cube_vertices(meet))
    brute = lib.oracle.brute_cube_intersection(c1, c2)
    assert checks.check_intersection(corners, brute) == []
    assert checks.check_intersection(corners - {min(corners, key=str)}, brute)
    assert checks.check_intersection(set(), brute)


def test_tiling_check_rejects_a_vertex_that_misses_part_of_the_space(lib):
    system = lib.thompson.VSystem()
    whole = lib.oracle.random_vertex(system, bench.input_rng(lib, 7, 0), 3)
    assert checks.tiles_space(system, whole)
    part = type(whole)(whole.elements[1:])
    assert not checks.tiles_space(system, part)


@pytest.mark.parametrize("name", NAMES)
def test_wrappers_leave_results_unchanged(lib, name):
    workload = workloads.build(lib, name, "tiny")
    batch = workload.make_round(bench.input_rng(lib, 3, 0))
    want = [q.call() for q in batch]
    owners = (
        lib.core,
        lib.cubical,
        lib.thompson.VElement,
        lib.cubical.CubeComplex,
    )
    originals = {owner: dict(vars(owner)) for owner in owners}
    tracer = Tracer()
    tracer.install()
    try:
        got = [tracer.run_query(q)[0] for q in batch]
    finally:
        tracer.uninstall()
    assert got == want
    assert len(tracer.end_col) > len(batch)
    for owner, namespace in originals.items():
        assert dict(vars(owner)) == namespace


def test_wrappers_reach_calls_made_inside_the_library(lib):
    workload = workloads.build(lib, "v-ball", "tiny")
    query = workload.make_round(bench.input_rng(lib, 3, 0))[0]
    tracer = Tracer()
    tracer.install()
    try:
        tracer.run_query(query)
    finally:
        tracer.uninstall()
    table = tracer.totals()
    # bfs -> neighbors -> apply_move -> validate_vertex, all through
    # names bound by `from .core import ...` in `cubical`.
    assert table["core.apply_move"]["under"]["cubical.CubeComplex.bfs"] > 0
    moves = table["core.apply_move"]["calls"]
    assert table["core.validate_vertex"]["calls"] >= moves
    assert table["thompson.BallRegion.make"]["calls"] > 0


@pytest.mark.parametrize("name", NAMES)
def test_smoke_run_reports_every_end_to_end_metric(name):
    result = bench.measure(name, seed=5, seconds=0, scale="tiny")
    core = sys.modules["cubex.core"]
    assert not any(hasattr(f, "__wrapped__") for f in vars(core).values())
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= bench.MIN_QUERIES["tiny"]
    want = {m["name"]: m["unit"] for m in spec()["end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_later_set_ups_leave_the_runs_modules_in_place():
    setups = bench.SetUps("cube-queries", 5, "tiny", 0, bench.Speed())
    setups.median()
    assert len(setups.times) == bench.SETUP_REPEATS
    for short in ("core", "cubical", "thompson", "oracle"):
        assert sys.modules[f"cubex.{short}"] is getattr(setups.lib, short)


@pytest.mark.parametrize("name", NAMES)
def test_smoke_traced_run_reports_every_layer_metric(name):
    result, tracer = bench.trace(name, seed=5, seconds=0, scale="tiny")
    assert result["correct"] and result["failed"] == 0
    # The checks ran after the wrappers were removed: every span lies
    # inside a query.
    assert min(tracer.query_col) >= 0
    want = {m["name"]: m["unit"] for m in spec()["per_layer"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want


def test_command_refuses_to_run_without_the_sources(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "SRC", str(tmp_path / "src"))
    argv = ["--workload", "v-ball", "--seed", "1", "--seconds", "1"]
    assert bench.main(argv) == 2
