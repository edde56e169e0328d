"""CLI subcommands, file formats, and exit codes."""

import json
from pathlib import Path

import pytest

from cubex import InputError, cli, cubical
from cubex.cli import main

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
    code, out, err = run(capsys, "stabilizer", fig, "--cap", "4")
    assert code == 3
    data = json.loads(out)
    assert data["order"] == 4 and len(data["elements"]) == 4
    assert err.startswith("cap of 4 elements") and len(err.splitlines()) == 1


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
    assert "different instances" in err


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
    ],
    ids=[
        "list",
        "non-int-offset",
        "three-item-exception",
        "huge-offset",
        "bool-domain-point",
        "bool-image-point",
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


def refuse_corner(c, w):
    raise InputError("corner refused")


@pytest.mark.parametrize(
    "vertex_on_set",
    [lambda c, w: None, refuse_corner],
    ids=["not-in-cube", "input-error"],
)
def test_link_exits_1_when_the_flag_check_fails(
    fig, capsys, monkeypatch, vertex_on_set
):
    # No clique's cube then holds its neighbours, so every clique fails
    # and every edge of the link lacks its square.
    monkeypatch.setattr(cubical, "vertex_on_set", vertex_on_set)
    code, out, _ = run(
        capsys, "link", fig, "--check-flag", "--max-clique", "2"
    )
    assert code == 1
    flag = json.loads(out)["flag"]
    assert flag["passed"] is False
    assert flag["failures"] == flag["cliques_checked"] == 9 + 9
    assert flag["square_mismatches"] == 9


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
