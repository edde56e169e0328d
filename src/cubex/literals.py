"""Shared JSON literal formats for vertices, cubes, moves, and groups.

Vertex files look like::

    {"instance": "v", "elements": [[["", "0"]], [["", "1"]]]}
    {"instance": "houghton", "n": 2, "elements": [[1, 1], {"branch": 1, ...}]}

The `instance` tag selects the expansion system; `houghton` takes the
branch count `n` (default 2).  The vertex of a vertex file, and the
base of a cube file, must cover the whole space.  Element literals are
defined by the instance modules: prefix-map tables as `[[domain, image],
...]` pairs (or the `"00->1,01->01,1->00"` text grammar), points as
`[branch, position]`, and ray classes as objects with `branch`,
`exceptions`, and `tail` fields.  A literal of the wrong shape raises
InputError.
"""

from __future__ import annotations

from .core import InputError, _in_key_order, validate_vertex
from .cubical import Cube
from .houghton import HoughtonSystem
from .thompson import VSystem


def get_system(tag, n=2):
    if tag == "v":
        return VSystem()
    if tag == "houghton":
        return HoughtonSystem(n)
    raise InputError(f"unknown instance tag {tag!r}")


def system_from_obj(obj):
    if not isinstance(obj, dict) or "instance" not in obj:
        raise InputError("object needs an 'instance' tag")
    return get_system(obj["instance"], obj.get("n", 2))


def vertex_to_obj(system, v):
    return {
        **system.header(),
        "elements": [system.element_to_obj(b) for b in v],
    }


def _parse_elements(system, obj, field):
    items = obj.get(field, [])
    if not isinstance(items, list):
        raise InputError(f"{field!r} must be a list of element literals")
    return [system.parse_element(e) for e in items]


def _parse_full_vertex(system, obj, field):
    v = validate_vertex(_parse_elements(system, obj, field))
    if not system.is_full_support(v):
        raise InputError(
            f"the vertex in {field!r} does not cover the whole space"
        )
    return v


def parse_vertex_obj(obj):
    """Load a vertex file object; returns (system, vertex).

    The vertex must cover the whole space: every command works on the
    full-support vertices of the complex.
    """
    system = system_from_obj(obj)
    return system, _parse_full_vertex(system, obj, "elements")


def cube_to_obj(system, c):
    return {
        **system.header(),
        "base": [system.element_to_obj(b) for b in c.base],
        "active": [system.element_to_obj(b) for b in c.active],
    }


def parse_cube_obj(obj):
    system = system_from_obj(obj)
    base = _parse_full_vertex(system, obj, "base")
    active = _parse_elements(system, obj, "active")
    return system, Cube.make(base, active)


def move_to_obj(system, m):
    obj = {"kind": m.kind, "target": system.element_to_obj(m.target)}
    if m.kind == "contract":
        obj["basin"] = [
            system.element_to_obj(b) for b in _in_key_order(m.basin)
        ]
    return obj


def path_to_obj(system, path):
    return {
        "vertices": [
            [system.element_to_obj(b) for b in v] for v in path.vertices
        ],
        "moves": [move_to_obj(system, m) for m in path.moves],
    }
