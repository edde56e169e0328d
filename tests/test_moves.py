"""Moves built once per traversal, checked against moves built afresh.

`CubeComplex.bfs` passes one memo through `moves_at` into the system's
`expansions` and `contractions`, so each element's expansion move and
each basin's contraction moves are built once per traversal, and
`houghton` asks only about point–ray pairs.  Each fast path is compared,
on seeded vertices (`v`, `houghton` n=2 and n=3, seeds 7 and 1009),
with the path it replaces: candidates from the default
`combinations(v, 2)`, a fresh `Move.expand` for every element, and a
breadth-first loop over `moves_at` and `apply_move` with no memo at all.
A memo shared over a walk or a traversal holds exactly what was asked.
None of these may depend on hash order, and a traversal must leave no
reference cycle behind, which would keep its moves alive until the
cycle collector ran.  That is why `bfs` may pause the collector while
it runs; it must leave the collector as it found it on every exit.
"""

import collections
import gc
import itertools

import pytest

from cubex import (
    CubeComplex,
    HoughtonSystem,
    Move,
    Vertex,
    VSystem,
    apply_move,
    core,
)
from cubex.core import CapExceeded, ExpansionSystem
from cubex.cubical import ExplorationGraph
from cubex.oracle import random_vertex, rng_from_seed

SEEDS = [7, 1009]
# A fresh system per test, so a test may wrap its methods.
SYSTEMS = {
    "v": VSystem,
    "houghton2": lambda: HoughtonSystem(2),
    "houghton3": lambda: HoughtonSystem(3),
}
NAMES = pytest.mark.parametrize("name", sorted(SYSTEMS))


def seeded_start(system, seed, height=None):
    """A seeded vertex of `height`, by default two above the base."""
    if height is None:
        height = system.base_vertex().height + 2
    return random_vertex(system, rng_from_seed(seed), height)


def listed_moves(system, v, memo=None):
    """Every move at v, expansions first: the order `oracle` shuffles."""
    return [*system.expansions(v, memo), *system.contractions(v, memo)]


def seeded_vertices(system, seed):
    """Seeded vertices of six heights, each with its neighbours."""
    rng = rng_from_seed(seed)
    low = system.base_vertex().height
    for h in range(low, low + 6):
        v = random_vertex(system, rng, h)
        yield v
        yield from (apply_move(v, m) for m in listed_moves(system, v))


def same_moves(got, want):
    """Equal move lists, also in the sets each move swaps, which take no
    part in `Move` equality."""
    assert got == want
    assert [(m.basin, m.gain) for m in got] == [
        (m.basin, m.gain) for m in want
    ]


def reference_moves(system, v):
    """`listed_moves(v)` from every 2-subset, as `ExpansionSystem` asks
    by default, with every move built afresh."""
    moves = [Move.expand(b) for b in v if b.children() is not None]
    for subset in ExpansionSystem.contraction_candidates(system, v):
        basin = frozenset(subset)
        moves += [
            Move("contract", t, basin, frozenset((t,)))
            for t in system.coexpansions(basin)
        ]
    return moves


@NAMES
@pytest.mark.parametrize("seed", SEEDS)
def test_moves_equal_the_moves_of_every_pair(name, seed):
    # `houghton` asks only about point–ray pairs; every pair it skips has
    # no coexpansion, and the moves keep the default's order.
    system = SYSTEMS[name]()
    skipped = kept = 0
    for v in seeded_vertices(system, seed):
        same_moves(listed_moves(system, v), reference_moves(system, v))
        asked = list(system.contraction_candidates(v))
        every = list(itertools.combinations(v, 2))
        assert asked == [pair for pair in every if pair in asked]
        for pair in every:
            if pair not in asked:
                assert system.coexpansions(frozenset(pair)) == []
                skipped += 1
        kept += len(asked)
    assert kept > 100
    if name == "v":
        assert skipped == 0
    else:
        assert skipped > 100, skipped


@NAMES
@pytest.mark.parametrize("seed", SEEDS)
def test_memoised_expansions_equal_fresh_moves(name, seed):
    system = SYSTEMS[name]()
    memo = {}
    asked = 0
    for v in seeded_vertices(system, seed):
        moves = list(system.expansions(v, memo))
        fresh = [Move.expand(b) for b in v if b.children() is not None]
        same_moves(moves, fresh)
        assert all(m.target in v for m in moves)
        # A second call hands back the same objects.
        again = list(system.expansions(v, memo))
        assert all(a is b for a, b in zip(again, moves))
        asked += len(moves)
        same_moves(
            CubeComplex(system).moves_at(v, memo),
            CubeComplex(system).moves_at(v),
        )
    # The elements map to their expansion moves, and the memo was hit,
    # not just filled.
    expanded = {b: m for b, m in memo.items() if not isinstance(b, frozenset)}
    assert all(
        m.kind == "expand" and m.target == b for b, m in expanded.items()
    )
    assert len(expanded) < asked / 2, (len(expanded), asked)


def asked_memo(system, calls):
    """The memo that answers exactly the `(kind, v)` calls: each
    expandable element of v asked about by "expand", mapped to its
    expansion move, and each candidate basin of v asked about by
    "contract", mapped to its contraction moves, all built afresh."""
    want = {}
    for kind, v in calls:
        if kind == "expand":
            want.update(
                (b, Move.expand(b)) for b in v if b.children() is not None
            )
            continue
        for subset in system.contraction_candidates(v):
            basin = frozenset(subset)
            targets = system.coexpansions(basin)
            want[basin] = [Move.contract(t) for t in targets]
    return want


def same_memo(got, want):
    """Equal memos; each contraction keeps its own key as its basin."""
    assert got.keys() == want.keys()
    for key, moves in got.items():
        if isinstance(key, frozenset):
            same_moves(moves, want[key])
            assert all(m.basin is key for m in moves)
        else:
            same_moves([moves], [want[key]])


@NAMES
@pytest.mark.parametrize("seed", SEEDS)
def test_a_memo_shared_over_a_walk_holds_what_was_asked(name, seed):
    system = SYSTEMS[name]()
    memo = {}
    calls = []
    for v in seeded_vertices(system, seed):
        same_moves(listed_moves(system, v, memo), listed_moves(system, v))
        calls += [("expand", v), ("contract", v)]
    same_memo(memo, asked_memo(system, calls))
    kinds = collections.Counter(isinstance(k, frozenset) for k in memo)
    assert min(kinds.values()) > 20, kinds


@NAMES
@pytest.mark.parametrize("seed", SEEDS)
def test_a_memo_shared_over_a_bfs_holds_what_was_asked(name, seed):
    # Every call `bfs` makes gets the one memo, yields what a fresh call
    # yields, in the same order, and leaves in the memo exactly what it
    # asked about.
    system = SYSTEMS[name]()
    memos, calls = [], []

    def recording(kind, real):
        def generate(v, memo=None):
            memos.append(memo)
            calls.append((kind, v))
            moves = list(real(v, memo))
            same_moves(moves, list(real(v)))
            return iter(moves)

        return generate

    start = seeded_start(system, seed)
    # The vertices `bfs` takes moves from: those closer than the radius.
    inner = CubeComplex(system).bfs(start, 2).vertices
    system.expansions = recording("expand", system.expansions)
    system.contractions = recording("contract", system.contractions)
    CubeComplex(system).bfs(start, 3)
    assert collections.Counter(calls) == collections.Counter(
        (kind, v) for v in inner for kind in ("expand", "contract")
    )
    assert all(memo is memos[0] for memo in memos)
    same_memo(memos[0], asked_memo(system, calls))


@NAMES
def test_bfs_builds_each_expansion_move_once(name, monkeypatch):
    system = SYSTEMS[name]()
    start = seeded_start(system, 7)
    built = []
    expand = Move.expand.__func__

    def counting(cls, b):
        built.append(b)
        return expand(cls, b)

    monkeypatch.setattr(core.Move, "expand", classmethod(counting))
    graph = CubeComplex(system).bfs(start, 3)
    monkeypatch.undo()
    # The elements a radius-3 traversal expands: those of every vertex
    # closer than 3, the vertices it takes moves from.
    near = reference_bfs(CubeComplex(system), start, 2).vertices
    want = {b for v in near for b in v if b.children() is not None}
    assert len(built) == len(set(built)) == len(want)
    assert set(built) == want
    assert len(graph.vertices) > len(near)


def reference_bfs(cx, start, radius):
    """`CubeComplex.bfs` as a plain loop: every move from `moves_at`
    with no dict, every neighbour built by `apply_move`."""
    index = {start: 0}
    order = [start]
    edges = set()
    frontier = [start]
    for _ in range(radius):
        grown = []
        for v in sorted(frontier, key=Vertex.key):
            for m in cx.moves_at(v):
                w = apply_move(v, m)
                if w not in index:
                    index[w] = len(order)
                    order.append(w)
                    grown.append(w)
                edges.add(tuple(sorted((index[v], index[w]))))
        frontier = grown
    return ExplorationGraph(
        tuple(order),
        tuple(v.height for v in order),
        tuple(sorted(edges)),
        radius,
    )


@NAMES
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "radius, height",
    [(2, None), (3, None), (2, 4), (2, 5), (2, 6)],
    ids=["2", "3", "2-h4", "2-h5", "2-h6"],
)
def test_bfs_matches_the_loop_without_memos(name, seed, radius, height):
    # Starts two above the base, and starts of heights up to 6: from
    # height 6, a radius-2 ball holds 730 vertices on `v`.
    system = SYSTEMS[name]()
    cx = CubeComplex(system)
    start = seeded_start(system, seed, height)
    graph = cx.bfs(start, radius)
    want = reference_bfs(cx, start, radius)
    assert graph == want
    keys = [v.key() for v in graph.vertices]
    assert keys == [v.key() for v in want.vertices]
    assert len(graph.vertices) > 20


@NAMES
@pytest.mark.parametrize("seed", SEEDS)
def test_bfs_leaves_no_reference_cycle(name, seed):
    # With the collector off, everything a traversal built must go as
    # soon as its graph is dropped; a move cached on its own target
    # would leave cycles for `gc.collect()` to find.
    system = SYSTEMS[name]()
    cx = CubeComplex(system)
    start = seeded_start(system, seed)
    gc.collect()
    gc.disable()
    try:
        graph = cx.bfs(start, 2)
        assert len(graph.vertices) > 10
        del graph
        assert gc.collect() == 0
    finally:
        gc.enable()



class Stop(Exception):
    """Raised from inside a traversal by a wrapped system method."""


def watched_bfs(name, exit):
    """A radius-2 `bfs` from a seeded start that ends by `exit`: a
    normal return, CapExceeded under a cap of 3 (below any of these
    balls), or Stop raised by `expansions` at its second call.  Returns
    what `gc.isenabled()` said at each call to `expansions`."""
    system = SYSTEMS[name]()
    start = seeded_start(system, 7)
    seen = []
    expansions = system.expansions

    def recording(v, memo=None):
        seen.append(gc.isenabled())
        if exit == "error" and len(seen) == 2:
            raise Stop
        return expansions(v, memo)

    system.expansions = recording
    cx = CubeComplex(system)
    if exit == "return":
        assert len(cx.bfs(start, 2).vertices) > 10
    else:
        with pytest.raises(CapExceeded if exit == "cap" else Stop):
            cx.bfs(start, 2, cap=3 if exit == "cap" else 100_000)
    return seen


EXITS = pytest.mark.parametrize("exit", ["return", "cap", "error"])


@NAMES
@EXITS
def test_bfs_pauses_the_collector_and_turns_it_back_on(name, exit):
    assert gc.isenabled()
    seen = watched_bfs(name, exit)
    assert gc.isenabled()
    assert seen and not any(seen)


@NAMES
@EXITS
def test_bfs_leaves_a_paused_collector_paused(name, exit):
    gc.disable()
    try:
        seen = watched_bfs(name, exit)
        assert not gc.isenabled()
    finally:
        gc.enable()
    assert seen and not any(seen)
