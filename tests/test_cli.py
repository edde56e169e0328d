"""CLI subcommands, file formats, and exit codes."""

import json
from pathlib import Path

import pytest

from cubex import cli, cubical, literals, thompson
from cubex.cli import main
from cubex.oracle import random_vertex, rng_from_seed

GOLDEN_INPUTS = Path(__file__).parent / "golden" / "inputs"


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def base_v(tmp_path):
    return write(tmp_path, "base.json", {"instance": "v", "elements": [[["", ""]]]})


@pytest.fixture
def fig(tmp_path):
    return write(
        tmp_path,
        "fig.json",
        {"instance": "v", "elements": [[["", "0"]], [["", "10"]], [["", "11"]]]},
    )


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_canon_reduces(tmp_path, capsys):
    path = write(
        tmp_path,
        "elem.json",
        {"table": [["00", "10"], ["01", "11"], ["1", "0"]]},
    )
    code, out, _ = run(capsys, "canon", "--instance", "v", path)
    assert code == 0
    assert json.loads(out) == [["0", "1"], ["1", "0"]]


def test_canon_houghton(tmp_path, capsys):
    path = write(
        tmp_path,
        "ray.json",
        {"branch": 1, "exceptions": [[1, 6]], "tail": 7},
    )
    code, out, _ = run(capsys, "canon", "--instance", "houghton", path)
    assert code == 0
    assert json.loads(out) == {"branch": 1, "exceptions": [], "tail": 6}


def test_canon_parse_error(tmp_path, capsys):
    path = write(tmp_path, "bad.json", {"table": [["0", "0"]]})
    code, _, err = run(capsys, "canon", "--instance", "v", path)
    assert code == 2
    assert "error" in err


def test_neighbors(fig, capsys):
    code, out, _ = run(capsys, "neighbors", fig)
    assert code == 0
    data = json.loads(out)
    assert data["height"] == 3
    assert len(data["neighbors"]) == 9
    assert {n["height"] for n in data["neighbors"]} == {2, 4}


def test_link_with_flag(fig, capsys):
    code, out, _ = run(capsys, "link", fig, "--check-flag", "--max-clique", "4")
    assert code == 0
    data = json.loads(out)
    assert len(data["nodes"]) == 9 and len(data["edges"]) == 9
    assert data["flag"]["passed"] is True


def test_cubes_and_intersect(tmp_path, fig, capsys):
    code, out, _ = run(capsys, "cubes", fig, "--max-dim", "2")
    assert code == 0
    cubes = json.loads(out)
    assert sorted(c["dim"] for c in cubes) == [0] + [1] * 9 + [2] * 9
    square = next(
        c
        for c in cubes
        if c["dim"] == 2
        and sorted(tuple(map(tuple, e)) for e in c["active"])
        == [((("", "0"),)), ((("", "10"),))]
    )
    cube_path = write(tmp_path, "cube.json", square)
    code, out, _ = run(
        capsys, "intersect", cube_path, cube_path, "--verify-brute"
    )
    assert code == 0
    data = json.loads(out)
    assert data["verified"] is True
    assert data["intersection"]["active"] == square["active"]


def test_join(tmp_path, base_v, fig, capsys):
    code, out, _ = run(capsys, "join", base_v, fig)
    assert code == 0
    data = json.loads(out)
    assert data["join"]["elements"] == [[["", "0"]], [["", "10"]], [["", "11"]]]
    assert len(data["path_from_first"]["moves"]) == 2
    assert len(data["path_from_second"]["moves"]) == 0


def test_bfs_exports(tmp_path, base_v, capsys):
    dot = tmp_path / "g.dot"
    js = tmp_path / "g.json"
    code, out, _ = run(
        capsys, "bfs", base_v, "--radius", "1", "--dot", str(dot),
        "--json", str(js),
    )
    assert code == 0
    assert json.loads(out) == {
        "vertices": 2,
        "edges": 1,
        "radius": 1,
        "capped": False,
    }
    assert dot.read_text().count("--") == 1
    data = json.loads(js.read_text())
    assert set(data) == {"vertices", "edges", "heights"}
    assert data["heights"] == [1, 2]


def test_bfs_cap_exit_code(tmp_path, base_v, capsys):
    js = tmp_path / "g.json"
    code, out, err = run(
        capsys, "bfs", base_v, "--radius", "5", "--cap", "6",
        "--json", str(js),
    )
    assert code == 3
    assert json.loads(out)["capped"] is True
    assert "partial" in err
    assert len(json.loads(js.read_text())["vertices"]) == 6


@pytest.mark.parametrize("flag", ["--dot", "--json"])
@pytest.mark.parametrize("target", ["missing-dir", "directory"])
def test_bfs_unwritable_output_is_input_error(
    tmp_path, base_v, capsys, flag, target
):
    # A path under a directory that does not exist, or a directory itself.
    path = tmp_path
    if target == "missing-dir":
        path = tmp_path / "no-such-dir" / "g.out"
    code, out, err = run(
        capsys, "bfs", base_v, "--radius", "1", flag, str(path)
    )
    assert_input_error(code, out, err)
    assert str(path) in err


def test_act(tmp_path, capsys):
    g = write(tmp_path, "g.json", [["0", "1"], ["1", "0"]])
    v = write(
        tmp_path,
        "v.json",
        {"instance": "v", "elements": [[["", "0"]], [["", "1"]]]},
    )
    code, out, _ = run(capsys, "act", g, v)
    assert code == 0
    assert json.loads(out)["elements"] == [[["", "0"]], [["", "1"]]]


def test_act_houghton(tmp_path, capsys):
    g = write(
        tmp_path,
        "g.json",
        {"offsets": [1, -1], "exceptions": [[[2, 1], [1, 1]]]},
    )
    v = write(
        tmp_path,
        "v.json",
        {
            "instance": "houghton",
            "n": 2,
            "elements": [
                {"branch": 1, "exceptions": [], "tail": 1},
                {"branch": 2, "exceptions": [], "tail": 1},
            ],
        },
    )
    code, out, _ = run(capsys, "act", g, v)
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 2 and len(data["elements"]) == 2


def test_stabilizer(fig, capsys):
    code, out, _ = run(capsys, "stabilizer", fig)
    assert code == 0
    assert json.loads(out)["order"] == 6


def test_stabilizer_cap_writes_partial_group_and_exits_3(fig, capsys):
    # The order is the whole group's, 6, beside the 4 elements written.
    code, out, err = run(capsys, "stabilizer", fig, "--cap", "4")
    assert code == 3
    data = json.loads(out)
    assert data["order"] == 6 and len(data["elements"]) == 4
    assert err.startswith("cap of 4 elements") and len(err.splitlines()) == 1


def test_stabilizer_cap_writes_the_order_of_a_large_group(tmp_path, capsys):
    # A height-9 vertex with one class of nine elements: order 9!.
    system = thompson.VSystem()
    v = random_vertex(system, rng_from_seed(7), 9)
    path = write(tmp_path, "v.json", literals.vertex_to_obj(system, v))
    code, out, _ = run(capsys, "stabilizer", path, "--cap", "3")
    assert code == 3
    data = json.loads(out)
    assert data["order"] == 362880 and len(data["elements"]) == 3


def test_verify_single_check(capsys):
    code, out, _ = run(
        capsys, "verify", "square-cube", "--seed", "7"
    )
    assert code == 0
    assert out.startswith("PASS square-cube")


def test_verify_all_small(capsys):
    code, out, _ = run(
        capsys, "verify", "all", "--seed", "7", "--samples", "5"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 10
    assert all(line.startswith("PASS") for line in lines)


def test_verify_unknown_check(capsys):
    code, _, err = run(capsys, "verify", "nope", "--seed", "7")
    assert code == 2
    assert "unknown check" in err


def test_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, "neighbors", "/nonexistent.json")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "content",
    [
        b'{"instance": "v\xff"}',
        b"[" * 100_000 + b"]" * 100_000,
        b'{"instance": "houghton", "n": ' + b"9" * 5000 + b"}",
    ],
    ids=["not-utf8", "nested-too-deep", "too-many-digits"],
)
def test_undecodable_file_is_input_error(tmp_path, capsys, content):
    path = tmp_path / "v.json"
    path.write_bytes(content)
    code, out, err = run(capsys, "neighbors", str(path))
    assert_input_error(code, out, err)
    assert str(path) in err


def houghton_base(n):
    return {
        "instance": "houghton",
        "n": n,
        "elements": [
            {"branch": i, "exceptions": [], "tail": 1} for i in range(1, n + 1)
        ],
    }


@pytest.mark.parametrize(
    "first, second",
    [
        ({"instance": "v", "elements": [[["", ""]]]}, houghton_base(2)),
        (houghton_base(2), houghton_base(3)),
    ],
    ids=["v-houghton", "houghton2-houghton3"],
)
@pytest.mark.parametrize("command", ["intersect", "join"])
def test_commands_reject_mixed_instances(
    tmp_path, capsys, command, first, second
):
    paths = []
    for name, obj in (("a.json", first), ("b.json", second)):
        if command == "intersect":
            obj = dict(obj, active=[])
            obj["base"] = obj.pop("elements")
        paths.append(write(tmp_path, name, obj))
    code, _, err = run(capsys, command, *paths)
    assert code == 2
    what = {"intersect": "cubes", "join": "vertices"}[command]
    assert err == f"error: {what} belong to different instances\n"


def test_act_rejects_non_bijection_table(tmp_path, capsys):
    g = write(tmp_path, "g.json", [["0", "10"], ["1", "11"]])
    v = write(tmp_path, "v.json", {"instance": "v", "elements": [[["", ""]]]})
    code, _, err = run(capsys, "act", g, v)
    assert code == 2
    assert "error" in err


def assert_input_error(code, out, err):
    """Exit 2 with one `error:` line on stderr and nothing on stdout."""
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv", [("bfs", "--radius", "1"), ("stabilizer",)], ids=["bfs", "stab"]
)
def test_partial_vertex_is_rejected(tmp_path, capsys, argv):
    half = write(
        tmp_path, "half.json", {"instance": "v", "elements": [[["", "0"]]]}
    )
    code, out, err = run(capsys, argv[0], half, *argv[1:])
    assert_input_error(code, out, err)
    assert "does not cover" in err


@pytest.mark.parametrize("field", ["base", "active"])
def test_intersect_rejects_a_repeated_cube_element(tmp_path, capsys, field):
    # The first element listed twice: in either list it is the same
    # error, naming the two positions.
    obj = json.loads((GOLDEN_INPUTS / "v_cube1.json").read_text())
    obj[field] = obj[field][:1] + obj[field]
    cube = write(tmp_path, "twice.json", obj)
    code, out, err = run(capsys, "intersect", cube, cube)
    assert_input_error(code, out, err)
    assert "elements 0 and 1 are equal" in err


def ray(branch, tail):
    return {"branch": branch, "exceptions": [], "tail": tail}


def houghton2(*elements):
    return {"instance": "houghton", "n": 2, "elements": list(elements)}


@pytest.mark.parametrize(
    "vertex",
    [
        {
            "instance": "houghton",
            "n": 2,
            "elements": [
                [1, 1],
                {"branch": 1, "exceptions": []},
                {"branch": 2, "exceptions": [], "tail": 1},
            ],
        },
        {"instance": "v", "elements": [5]},
        {"instance": "v", "elements": [[["", "0", "1"]]]},
        # A JSON `true` is no count, though Python's `bool` is an `int`.
        houghton2([True, 1], ray(1, 2), ray(2, 1)),
        houghton2([1, True], ray(1, 2), ray(2, 1)),
        houghton2({"point": [True, 1]}, ray(1, 2), ray(2, 1)),
        houghton2(ray(True, 1), ray(2, 1)),
        houghton2(ray(1, True), ray(2, 1)),
        houghton2(ray(1, [True, 1]), ray(2, 1)),
        houghton2(dict(ray(1, 1), start=True), ray(2, 1)),
        houghton2(dict(ray(1, 2), exceptions=[[True, 1]]), ray(2, 1)),
        houghton2(ray(1, [1, 2, 3]), ray(2, 1)),
        houghton2(dict(ray(1, 1), exceptions=5), ray(2, 1)),
        houghton2("x"),
        {"instance": "v", "elements": [{"domain": ""}]},
        {"instance": "v", "elements": ["00-1"]},
        {"instance": "v", "elements": 5},
    ],
    ids=[
        "ray-without-tail",
        "v-element-int",
        "three-word-entry",
        "bool-point-branch",
        "bool-point-position",
        "bool-point-field",
        "bool-ray-branch",
        "bool-ray-tail",
        "bool-ray-tail-branch",
        "bool-ray-start",
        "bool-ray-exception",
        "three-item-tail",
        "int-exceptions",
        "string-element",
        "v-object-without-table",
        "entry-without-arrow",
        "int-elements",
    ],
)
def test_malformed_element_literal_is_input_error(tmp_path, capsys, vertex):
    path = write(tmp_path, "bad.json", vertex)
    assert_input_error(*run(capsys, "neighbors", path))


@pytest.mark.parametrize(
    "group",
    [
        [1, 2],
        {"offsets": [1, "a"]},
        {"offsets": [0, 0], "exceptions": [[1, 2, 3]]},
        {"offsets": [1000000000, 0]},
        {"offsets": [0, 0], "exceptions": [[[1, True], [1, 1]]]},
        {"offsets": [0, 0], "exceptions": [[[1, 1], [True, 1]]]},
        {"offsets": [0]},
        {"offsets": [0, 0], "exceptions": [[[3, 1], [1, 1]]]},
        {
            "offsets": [0, 0],
            "exceptions": [[[1, 1], [1, 2]], [[1, 1], [1, 3]]],
        },
    ],
    ids=[
        "list",
        "non-int-offset",
        "three-item-exception",
        "huge-offset",
        "bool-domain-point",
        "bool-image-point",
        "one-offset",
        "branch-out-of-range",
        "point-mapped-twice",
    ],
)
def test_malformed_houghton_group_literal_is_input_error(
    tmp_path, capsys, group
):
    g = write(tmp_path, "g.json", group)
    v = write(
        tmp_path,
        "v.json",
        {
            "instance": "houghton",
            "n": 2,
            "elements": [
                {"branch": 1, "exceptions": [], "tail": 1},
                {"branch": 2, "exceptions": [], "tail": 1},
            ],
        },
    )
    assert_input_error(*run(capsys, "act", g, v))


def test_v_group_object_without_table_is_input_error(tmp_path, capsys):
    g = write(tmp_path, "g.json", {"domain": ""})
    v = write(tmp_path, "v.json", {"instance": "v", "elements": [[["", ""]]]})
    code, out, err = run(capsys, "act", g, v)
    assert_input_error(code, out, err)
    assert "needs a 'table' field" in err


def test_cube_with_an_active_point_is_input_error(tmp_path, capsys):
    # A point has no children, so it cannot be a cube's active element.
    cube = write(
        tmp_path,
        "cube.json",
        {
            "instance": "houghton",
            "n": 2,
            "base": [[1, 1], ray(1, 2), ray(2, 1)],
            "active": [[1, 1]],
        },
    )
    code, out, err = run(capsys, "intersect", cube, cube)
    assert_input_error(code, out, err)
    assert "admits no expansion" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("bfs", "--radius", "-1"),
        ("cubes", "--max-dim", "-1"),
        ("bfs", "--radius", "1", "--cap", "-1"),
        ("stabilizer", "--cap", "-1"),
        ("link", "--check-flag", "--max-clique", "1"),
    ],
    ids=["radius", "max-dim", "bfs-cap", "stabilizer-cap", "max-clique"],
)
def test_size_below_its_range_is_input_error(fig, capsys, argv):
    code, out, err = run(capsys, argv[0], fig, *argv[1:])
    assert_input_error(code, out, err)
    assert f"{argv[-2]} must be at least" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("--seed", "7", "--samples", "0"),
        ("--seed", "-1"),
        ("--seed", str(1 << 64)),
    ],
    ids=["samples", "negative-seed", "seed-past-64-bits"],
)
def test_verify_rejects_bad_seed_or_samples_up_front(capsys, argv):
    assert_input_error(*run(capsys, "verify", "all", *argv))


def test_boolean_branch_count_is_input_error(tmp_path, capsys):
    path = write(
        tmp_path,
        "v.json",
        {
            "instance": "houghton",
            "n": True,
            "elements": [{"branch": 1, "exceptions": [], "tail": 1}],
        },
    )
    code, out, err = run(capsys, "cubes", "--max-dim", "0", path)
    assert_input_error(code, out, err)
    assert "branch count" in err


# -- exit 1: only a failed verification ----------------------------------


def grandchild_targets(monkeypatch):
    # Each coexpansion is swapped for its first grandchild, so its
    # children are not the basin: every clique holding a contraction
    # fails, with its cube's corner unequal to the vertex tested, and
    # so does every edge to a contraction.
    real = thompson.VSystem.coexpansions

    def broken(system, elements):
        return [t.children()[0].children()[0] for t in real(system, elements)]

    monkeypatch.setattr(thompson.VSystem, "coexpansions", broken)
    return 6 + 6, 6


def bases_without_active(monkeypatch):
    # Each clique's base comes out of the walk without its active
    # elements, so no clique's cube holds v or its neighbours: an
    # expansion's corner is unequal to v, and a contraction's target is
    # not in the base, the case where `vertex_on_set` raises InputError.
    real = cubical._cliques

    def walk(link, max_size):
        for clique, base, active in real(link, max_size):
            yield clique, base & ~active, active

    monkeypatch.setattr(cubical, "_cliques", walk)
    return 9 + 9, 9


@pytest.mark.parametrize(
    "fault",
    [grandchild_targets, bases_without_active],
    ids=["not-in-cube", "input-error"],
)
def test_link_exits_1_when_the_flag_check_fails(
    fig, capsys, monkeypatch, fault
):
    # The link of the fig vertex has 3 expansions and 6 contractions, and
    # 9 edges: the 3 expansion pairs, and each contraction with the
    # expansion of the element outside its basin.
    failures, mismatches = fault(monkeypatch)
    code, out, _ = run(
        capsys, "link", fig, "--check-flag", "--max-clique", "2"
    )
    assert code == 1
    flag = json.loads(out)["flag"]
    assert flag["passed"] is False
    assert flag["cliques_checked"] == 9 + 9
    assert flag["failures"] == failures
    assert flag["square_mismatches"] == mismatches


def test_link_reports_a_repeated_neighbour(fig, capsys, monkeypatch):
    # Each coexpansion is swapped for its first child, an element of its
    # basin, so contracting {0, 10} to 10 and {0, 11} to 11 both reach
    # the vertex without ball 0.  The link still prints; the flag check
    # fails with no clique checked, and neither form raises.
    real = thompson.VSystem.coexpansions

    def broken(system, elements):
        return [t.children()[0] for t in real(system, elements)]

    monkeypatch.setattr(thompson.VSystem, "coexpansions", broken)
    code, out, err = run(capsys, "link", fig)
    assert (code, err) == (0, "")
    assert len(json.loads(out)["nodes"]) == 9
    code, out, err = run(capsys, "link", fig, "--check-flag")
    assert (code, err) == (1, "")
    assert json.loads(out)["flag"] == {
        "passed": False,
        "cliques_checked": 0,
        "failures": 0,
        "square_mismatches": 0,
        "neighbor_map_injective": False,
    }


@pytest.mark.parametrize("name", ["v_vertex1", "houghton3_vertex1"])
def test_each_link_consumer_lists_the_moves_once(name, capsys, monkeypatch):
    # `check_flag`, `cubes_at` and `cubex link --check-flag` each read
    # one link, built from one `moves_at` call.
    path = GOLDEN_INPUTS / f"{name}.json"
    system, v = literals.parse_vertex_obj(json.loads(path.read_text()))
    sx = cubical.CubeComplex(system)
    calls = []
    real = cubical.CubeComplex.moves_at

    def counted(cx, w, *args):
        calls.append(w)
        return real(cx, w, *args)

    monkeypatch.setattr(cubical.CubeComplex, "moves_at", counted)
    for query in (lambda: sx.check_flag(v), lambda: sx.cubes_at(v, 3)):
        calls.clear()
        query()
        assert calls == [v]
    calls.clear()
    assert main(["link", str(path), "--check-flag"]) == 0
    capsys.readouterr()
    assert calls == [v]


def test_intersect_exits_1_when_the_brute_check_disagrees(
    capsys, monkeypatch
):
    monkeypatch.setattr(cli, "brute_cube_intersection", lambda c1, c2: set())
    cube = str(GOLDEN_INPUTS / "v_cube1.json")
    code, out, _ = run(capsys, "intersect", cube, cube, "--verify-brute")
    assert code == 1
    data = json.loads(out)
    assert data["verified"] is False
    assert data["intersection"] is not None
