"""The transcript contract: outputs byte-identical to `tests/golden`.

For the same seed and input, `cubex verify all`, the demos (and the
`ball.dot` the fourth writes) and the complex commands on the files in
`tests/golden/inputs` must print exactly the bytes recorded under
`tests/golden`; so must the graph that `bfs --json` writes and the DOT
that `bfs --dot` writes.  Every command here runs in-process and exits 0.
"""

import runpy
from pathlib import Path

import pytest

from cubex.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
INPUTS = GOLDEN / "inputs"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def golden(name):
    return (GOLDEN / name).read_text()


def run(capsys, *argv):
    assert main([str(a) for a in argv]) == 0, argv
    return capsys.readouterr().out


@pytest.mark.parametrize("seed", [7, 1009])
def test_verify_all(capsys, seed):
    out = run(capsys, "verify", "all", "--seed", seed)
    assert out == golden(f"verify_all_seed{seed}.txt")


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo(capsys, monkeypatch, tmp_path, demo):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out == golden(demo.stem + ".txt")
    if demo.stem == "04_exploring_and_stabilizers":
        assert (tmp_path / "ball.dot").read_text() == golden("ball.dot")


def vertex(s, i):
    return INPUTS / f"{s}_vertex{i}.json"


def cube(s, i):
    return INPUTS / f"{s}_cube{i}.json"


COMMANDS = [
    case
    for s in ("v", "houghton3")
    for case in [
        (f"join_{s}.json", ["join", vertex(s, 1), vertex(s, 2)]),
        (f"cubes_{s}.json", ["cubes", "--max-dim", 2, vertex(s, 1)]),
        (f"link_{s}.json", ["link", "--check-flag", vertex(s, 1)]),
        (
            f"intersect_{s}.json",
            ["intersect", "--verify-brute", cube(s, 1), cube(s, 2)],
        ),
        (f"neighbors_{s}.json", ["neighbors", vertex(s, 1)]),
    ]
] + [
    ("link_v_vertex5.json", ["link", "--check-flag", vertex("v", 5)]),
] + [
    (f"stabilizer_{s}_vertex{i}.json", ["stabilizer", vertex(s, i)])
    for s, i in [("v", 1), ("v", 5), ("houghton3", 1)]
]


@pytest.mark.parametrize(
    "name, argv", COMMANDS, ids=[name for name, _ in COMMANDS]
)
def test_command(capsys, name, argv):
    assert run(capsys, *argv) == golden(name)


@pytest.mark.parametrize("s", ["v", "houghton3"])
def test_bfs_json(capsys, tmp_path, s):
    graph = tmp_path / "graph.json"
    out = run(capsys, "bfs", "--radius", 2, "--json", graph, vertex(s, 1))
    assert out == golden(f"bfs_{s}.json")
    assert graph.read_text() == golden(f"bfs_graph_{s}.json")


DOTS = [
    ("bfs_r3_v.dot", 3, vertex("v", 1)),
    ("bfs_r3_houghton3.dot", 3, vertex("houghton3", 1)),
    ("bfs_r2_v_vertex5.dot", 2, vertex("v", 5)),
]


@pytest.mark.parametrize(
    "name, radius, source", DOTS, ids=[name for name, _, _ in DOTS]
)
def test_bfs_dot(capsys, tmp_path, name, radius, source):
    dot = tmp_path / "ball.dot"
    run(capsys, "bfs", "--radius", radius, "--dot", dot, source)
    assert dot.read_text() == golden(name)
