"""JSON literal schemas: round trips and validation."""

import pytest

from cubex import HRayClass, InputError, VElement, validate_vertex
from cubex.cubical import Cube
from cubex.literals import (
    cube_to_obj,
    get_system,
    parse_cube_obj,
    parse_vertex_obj,
    path_to_obj,
    vertex_to_obj,
)


def test_vertex_roundtrip_v():
    obj = {"instance": "v", "elements": [[["", "0"]], [["", "1"]]]}
    system, v = parse_vertex_obj(obj)
    assert system.name == "v" and v.height == 2
    assert parse_vertex_obj(vertex_to_obj(system, v))[1] == v
    # serialization is bit-exact under a second round trip
    assert vertex_to_obj(system, v) == vertex_to_obj(
        system, parse_vertex_obj(vertex_to_obj(system, v))[1]
    )


def test_vertex_roundtrip_houghton():
    obj = {
        "instance": "houghton",
        "n": 3,
        "elements": [
            [1, 1],
            {"branch": 1, "exceptions": [[2, 1]], "tail": 2},
            {"branch": 2, "exceptions": [], "tail": 2},
            {"branch": 3, "exceptions": [], "tail": 1},
        ],
    }
    system, v = parse_vertex_obj(obj)
    assert system.n == 3 and v.height == 4
    assert system.is_full_support(v)
    assert parse_vertex_obj(vertex_to_obj(system, v))[1] == v


def test_parser_reduces_elements():
    system = get_system("v")
    b = system.parse_element([["00", "00"], ["01", "01"], ["1", "1"]])
    assert b == VElement((("", ""),))
    text = system.parse_element("00->1, 01->01, 1->00")
    assert text.table == (("00", "1"), ("01", "01"), ("1", "00"))
    hs = get_system("houghton", 2)
    ray = hs.parse_element(
        {"branch": 1, "exceptions": [[1, 4]], "tail": 5, "start": 3}
    )
    assert ray == HRayClass(1, (), 4)


def test_unknown_instance_rejected():
    with pytest.raises(InputError):
        parse_vertex_obj({"instance": "nope", "elements": []})
    with pytest.raises(InputError):
        parse_vertex_obj({"elements": []})


def test_partial_vertex_and_cube_base_rejected():
    half = [[["", "0"]]]
    with pytest.raises(InputError, match="does not cover"):
        parse_vertex_obj({"instance": "v", "elements": half})
    with pytest.raises(InputError, match="does not cover"):
        parse_vertex_obj({"instance": "v", "elements": []})
    with pytest.raises(InputError, match="does not cover"):
        parse_cube_obj({"instance": "v", "base": half, "active": half})


def test_cube_roundtrip():
    system = get_system("v")
    b0 = system.parse_element([["", "0"]])
    b10 = system.parse_element([["", "10"]])
    b11 = system.parse_element([["", "11"]])
    c = Cube.make(validate_vertex([b0, b10, b11]), [b0, b10])
    obj = cube_to_obj(system, c)
    system2, c2 = parse_cube_obj(obj)
    assert c2 == c


def test_path_serialization_shape():
    system = get_system("v")
    v = validate_vertex([system.parse_element([["", ""]])])
    path = system.standardize(v)
    obj = path_to_obj(system, path)
    assert set(obj) == {"vertices", "moves"}
    assert len(obj["vertices"]) == len(obj["moves"]) + 1


def test_group_literals():
    system = get_system("v")
    g = system.parse_group([["0", "1"], ["1", "0"]])
    assert system.group_to_obj(g) == [["0", "1"], ["1", "0"]]
    hs = get_system("houghton", 2)
    gh = hs.parse_group(
        {"offsets": [1, -1], "exceptions": [[[2, 1], [1, 1]]]}
    )
    assert hs.group_to_obj(gh) == {
        "offsets": [1, -1],
        "exceptions": [[[2, 1], [1, 1]]],
    }
