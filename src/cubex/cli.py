"""Command-line surface.

Subcommands cover canonicalization (`canon`), complex queries
(`neighbors`, `link`, `cubes`, `intersect`, `join`, `act`,
`stabilizer`), exploration with DOT/JSON export (`bfs`), and the
verification suite (`verify`).  Inputs come from JSON files (see
`literals` for the schemas); results go to stdout as JSON.

Exit codes: 0 success, 1 verification failure, 2 malformed input
(an input file that cannot be read counts, and so does an output file
that cannot be written), 3 exploration or stabilizer cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import literals, verify
from .core import CapExceeded, InputError
from .cubical import (
    CubeComplex,
    cube_intersection,
    cube_vertices,
    graph_to_dot,
    graph_to_json_obj,
    intersection_lemma_check,
)
from .oracle import brute_cube_intersection


def _load_json(path):
    # ValueError covers bad JSON, bytes that are not UTF-8 and an integer
    # past the digit limit; RecursionError, JSON nested too deep.
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as err:
        raise InputError(f"{path}: {err}") from err


def _write_text(path, text):
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as err:
        raise InputError(f"{path}: {err}") from err


def _emit(obj):
    json.dump(obj, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


# The least value each size flag accepts.  The square check of
# `link --check-flag` needs the 2-cliques.
_LEAST = {"radius": 0, "max_dim": 0, "cap": 0, "samples": 1, "max_clique": 2}


def _check_sizes(args):
    for name, least in _LEAST.items():
        value = getattr(args, name, None)
        if value is not None and value < least:
            flag = "--" + name.replace("_", "-")
            raise InputError(f"{flag} must be at least {least}, not {value}")


def _capped(call, message):
    """`call()` and None; or, once the call exceeds its cap, the partial
    result and the CapExceeded, with `message` as one line on stderr."""
    try:
        return call(), None
    except CapExceeded as err:
        print(message, file=sys.stderr)
        return err.partial, err


def cmd_canon(args):
    system = literals.get_system(args.instance, args.n)
    b = system.parse_element(_load_json(args.element_file))
    _emit(system.element_to_obj(b))
    return 0


def cmd_neighbors(args):
    system, v = literals.parse_vertex_obj(_load_json(args.vertex_file))
    cx = CubeComplex(system)
    out = {
        "height": v.height,
        "neighbors": [
            {
                "move": literals.move_to_obj(system, m),
                "height": w.height,
                "elements": [system.element_to_obj(b) for b in w],
            }
            for m, w in cx.neighbors(v)
        ],
    }
    _emit(out)
    return 0


def cmd_link(args):
    system, v = literals.parse_vertex_obj(_load_json(args.vertex_file))
    link = CubeComplex(system).link(v)
    out = {
        "nodes": [literals.move_to_obj(system, m) for m in link.moves],
        "edges": [list(e) for e in sorted(link.edges())],
    }
    status = 0
    if args.check_flag:
        rep = link.check_flag(args.max_clique)
        out["flag"] = {
            "passed": rep.passed,
            "cliques_checked": rep.cliques_checked,
            "failures": len(rep.failures),
            "square_mismatches": len(rep.square_mismatches),
            "neighbor_map_injective": rep.neighbor_map_injective,
        }
        if not rep.passed:
            status = 1
    _emit(out)
    return status


def cmd_cubes(args):
    system, v = literals.parse_vertex_obj(_load_json(args.vertex_file))
    cx = CubeComplex(system)
    cubes = cx.cubes_at(v, args.max_dim)
    _emit(
        [
            dict(literals.cube_to_obj(system, c), dim=c.dim)
            for c in cubes
        ]
    )
    return 0


def _load_pair(parse, path1, path2, what):
    """The literals in two files, parsed by `parse`; InputError unless
    they name the same instance."""
    system, x1 = parse(_load_json(path1))
    system2, x2 = parse(_load_json(path2))
    if system.header() != system2.header():
        raise InputError(f"{what} belong to different instances")
    return system, x1, x2


def cmd_intersect(args):
    system, c1, c2 = _load_pair(
        literals.parse_cube_obj, args.cube1, args.cube2, "cubes"
    )
    got = cube_intersection(c1, c2)
    out = {
        "intersection": None if got is None else literals.cube_to_obj(system, got)
    }
    status = 0
    if args.verify_brute:
        want = brute_cube_intersection(c1, c2)
        got_set = set(cube_vertices(got)) if got is not None else set()
        lemma_ok = (
            intersection_lemma_check(c1, c2).passed
            and intersection_lemma_check(c2, c1).passed
        )
        ok = got_set == want and lemma_ok
        out["verified"] = ok
        if not ok:
            status = 1
    _emit(out)
    return status


def cmd_join(args):
    system, v1, v2 = _load_pair(
        literals.parse_vertex_obj, args.vertex1, args.vertex2, "vertices"
    )
    cx = CubeComplex(system)
    w, p1, p2 = cx.join(v1, v2)
    _emit(
        {
            "join": literals.vertex_to_obj(system, w),
            "path_from_first": literals.path_to_obj(system, p1),
            "path_from_second": literals.path_to_obj(system, p2),
        }
    )
    return 0


def cmd_bfs(args):
    system, v = literals.parse_vertex_obj(_load_json(args.vertex_file))
    cx = CubeComplex(system)
    graph, capped = _capped(
        lambda: cx.bfs(v, args.radius, cap=args.cap),
        f"cap of {args.cap} vertices exceeded; writing partial graph",
    )
    if args.dot:
        _write_text(args.dot, graph_to_dot(graph))
    if args.json:
        obj = graph_to_json_obj(system, graph)
        _write_text(args.json, json.dumps(obj, indent=2) + "\n")
    _emit(
        {
            "vertices": len(graph.vertices),
            "edges": len(graph.edges),
            "radius": graph.radius,
            "capped": capped is not None,
        }
    )
    return 3 if capped else 0


def cmd_act(args):
    system, v = literals.parse_vertex_obj(_load_json(args.vertex_file))
    g = system.parse_group(_load_json(args.group_file))
    _emit(literals.vertex_to_obj(system, system.act_vertex(g, v)))
    return 0


def cmd_stabilizer(args):
    system, v = literals.parse_vertex_obj(_load_json(args.vertex_file))
    cx = CubeComplex(system)
    stab, capped = _capped(
        lambda: cx.stabilizer(v, cap=args.cap),
        f"cap of {args.cap} elements exceeded; writing partial stabilizer",
    )
    _emit(
        {
            "order": capped.total if capped else len(stab),
            "elements": [system.group_to_obj(g) for g in stab],
        }
    )
    return 3 if capped else 0


def cmd_verify(args):
    names = None if args.what == "all" else {args.what}
    if names and args.what not in {n for n, _ in verify.ALL_CHECKS}:
        raise InputError(f"unknown check {args.what!r}")
    if not 0 <= args.seed < 1 << 64:
        raise InputError(
            f"--seed must be a 64-bit unsigned int, not {args.seed}"
        )
    results = verify.run_all(args.seed, samples=args.samples, names=names)
    for r in results:
        print(r.line())
    return 0 if all(r.passed for r in results) else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cubex",
        description="Compute in simple expansion systems and their"
        " cubical complexes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("canon", help="canonicalize an element literal")
    p.add_argument("--instance", required=True, choices=("v", "houghton"))
    p.add_argument("--n", type=int, default=2, help="branch count (houghton)")
    p.add_argument("element_file")
    p.set_defaults(fn=cmd_canon)

    p = sub.add_parser("neighbors", help="all adjacent vertices")
    p.add_argument("vertex_file")
    p.set_defaults(fn=cmd_neighbors)

    p = sub.add_parser("link", help="link graph of a vertex")
    p.add_argument("vertex_file")
    p.add_argument("--check-flag", action="store_true")
    p.add_argument("--max-clique", type=int, default=6)
    p.set_defaults(fn=cmd_link)

    p = sub.add_parser("cubes", help="cubes through a vertex")
    p.add_argument("vertex_file")
    p.add_argument("--max-dim", type=int, required=True)
    p.set_defaults(fn=cmd_cubes)

    p = sub.add_parser("intersect", help="intersection of two cubes")
    p.add_argument("cube1")
    p.add_argument("cube2")
    p.add_argument("--verify-brute", action="store_true")
    p.set_defaults(fn=cmd_intersect)

    p = sub.add_parser("join", help="common upper bound of two vertices")
    p.add_argument("vertex1")
    p.add_argument("vertex2")
    p.set_defaults(fn=cmd_join)

    p = sub.add_parser("bfs", help="explore the 1-skeleton")
    p.add_argument("vertex_file")
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--dot", help="write DOT to this path")
    p.add_argument("--json", help="write the graph JSON to this path")
    p.add_argument("--cap", type=int, default=100_000)
    p.set_defaults(fn=cmd_bfs)

    p = sub.add_parser("act", help="apply a group element to a vertex")
    p.add_argument("group_file")
    p.add_argument("vertex_file")
    p.set_defaults(fn=cmd_act)

    p = sub.add_parser("stabilizer", help="group elements fixing a vertex")
    p.add_argument("vertex_file")
    p.add_argument("--cap", type=int, default=100_000)
    p.set_defaults(fn=cmd_stabilizer)

    p = sub.add_parser("verify", help="run the structural checks")
    p.add_argument("what", help="'all' or one check name")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--samples", type=int, default=None)
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        _check_sizes(args)
        return args.fn(args)
    except InputError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except CapExceeded as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
