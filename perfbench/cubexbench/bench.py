"""Run loop, metrics and command line of the benchmark.

One workload runs in one process, as one closed-loop client: the next
query starts when the previous one has returned.  Only the query's call
into the public API is timed; inputs are made and answers checked
between calls.  A run is made of whole rounds of queries, so `failed`
is the same share of `attempted` in every run.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time
import traceback

from . import workloads

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# A 90th percentile needs 10 samples beyond it.
MIN_QUERIES = {"full": 100, "tiny": 2}

# Set-up is repeated this many times in a run; setup_s is the median.
SETUP_REPEATS = 5

# The speed probe: its word count, and its time on the reference
# machine (2 vCPUs of an Intel Xeon, Python 3.11.7, at its faster speed).
PROBE_WORDS = 2500
REFERENCE_PROBE_S = 2.0e-3

# Query index of the untimed warm-up input.
WARMUP = -1

# The per-layer metrics reported by a traced run.  `.calls` is calls per
# query and `.self_ms` self time per query; the named ratios are computed
# in `layer_metrics`.
LAYER_CALLS = (
    "core.validate_vertex",
    "core.apply_move",
    "thompson.BallRegion.make",
    "thompson.VElement.support",
    "thompson.VElement.children",
    "houghton.SparseRegion.make",
    "houghton.HRayClass.make",
    "cubical.CubeComplex.moves_at",
    "cubical.cube_vertices",
    "thompson.compose_entries",
    "thompson.VGroupElement.mul",
    "houghton.HGroupElement.make",
)
LAYER_SELF = (
    "core.validate_vertex",
    "core.apply_move",
    "thompson.BallRegion.make",
    "thompson.VSystem.coexpansions",
    "houghton.SparseRegion.make",
    "cubical.CubeComplex.moves_at",
    "cubical.CubeComplex.bfs",
    "cubical.cube_vertices",
    "cubical.cube_intersection",
    "cubical.CubeComplex.check_flag",
    "cubical.CubeComplex.cubes_at",
    "cubical.CubeComplex.join",
    "thompson.compose_entries",
    "houghton.HGroupElement.make",
    "cubical.CubeComplex.stabilizer",
)


def cubex_modules():
    """The cubex entries of `sys.modules`."""
    return {k: m for k, m in sys.modules.items() if k.split(".")[0] == "cubex"}


class Library:
    """The cubex modules of one import."""

    def __init__(self):
        for name in cubex_modules():
            del sys.modules[name]
        cubex = importlib.import_module("cubex")
        if os.path.dirname(os.path.abspath(cubex.__file__)) != os.path.join(
            SRC, "cubex"
        ):
            raise ImportError(f"cubex imported from {cubex.__file__}")
        for short in ("core", "thompson", "houghton", "cubical", "oracle"):
            setattr(self, short, importlib.import_module(f"cubex.{short}"))


def input_rng(lib, seed, index):
    """The generator of one query round's inputs; same seed, same inputs."""
    mixed = (seed * 0x9E3779B97F4A7C15 + index) % (1 << 64)
    return lib.oracle.rng_from_seed(mixed)


def set_up(name, seed, scale):
    """Import, build the workload, make the first round, warm up once."""
    t0 = time.perf_counter()
    lib = Library()
    workload = workloads.build(lib, name, scale)
    first = workload.make_round(input_rng(lib, seed, 0))
    workload.make_round(input_rng(lib, seed, WARMUP))[0].call()
    return time.perf_counter() - t0, lib, workload, first


def check(query, answer):
    """Problems with an answer; a check that raises is a problem too."""
    try:
        return query.check(answer)
    except Exception:
        return ["the check raised:\n" + traceback.format_exc()]


class Tally:
    """Operations attempted, failed and wrong; times of those that passed.

    A round's queries are all run first and checked afterwards, so no
    check runs between the round's timed calls and the probe or the
    wrappers that follow them.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.times = []  # seconds, one per successful query

    def run_round(self, batch, run):
        """`run(query)` -> (answer, seconds) for each query; None where
        it raised."""
        return [self._attempt(q, run) for q in batch]

    def _attempt(self, query, run):
        self.attempted += 1
        try:
            return run(query)
        except Exception:
            self.failed += 1
            print(f"{query.op} raised:", file=sys.stderr)
            traceback.print_exc()
            return None

    def check_round(self, batch, outcomes, factor=1.0):
        """Check the answers of `run_round`; keep the times of the right
        ones, multiplied by `factor`.  Returns the right answers, None
        in place of the others."""
        return [self._accept(q, o, factor) for q, o in zip(batch, outcomes)]

    def _accept(self, query, outcome, factor):
        if outcome is None:
            return None
        answer, seconds = outcome
        problems = check(query, answer)
        if problems:
            self.failed += 1
            self.wrong += 1
            print(f"{query.op}: {'; '.join(problems)}", file=sys.stderr)
            return None
        self.times.append(seconds * factor)
        return answer


def timed(query):
    t0 = time.perf_counter()
    answer = query.call()
    return answer, time.perf_counter() - t0


def probe():
    """Seconds taken by a fixed piece of pure-Python work.

    The host of this machine alternates between two speeds, up to 1.75x
    apart, for seconds at a time, and the query times of a whole run
    can fall in either.  Timing the probe next to the queries measures
    the speed they ran at.
    """
    t0 = time.perf_counter()
    words = sorted(
        format(i * 2654435761 % 4294967296, "b") for i in range(PROBE_WORDS)
    )
    counts = {}
    for w in words:
        counts[w[:8]] = counts.get(w[:8], 0) + len(w)
    frozenset(counts)
    return time.perf_counter() - t0


class Speed:
    """Scales times taken between two probes to the reference speed.

    A time t measured between probes p1 and p2 is reported as
    t * REFERENCE_PROBE_S / ((p1 + p2) / 2): the time it would take on
    the reference machine at its faster speed.
    """

    def start(self):
        self.before = probe()

    def factor(self):
        """The factor for the times taken since `start()`."""
        return 2 * REFERENCE_PROBE_S / (self.before + probe())


def scaled_set_up(speed, *args):
    """`set_up(*args)`, with its time scaled to the reference speed."""
    speed.start()
    elapsed, *rest = set_up(*args)
    return (elapsed * speed.factor(), *rest)


class SetUps:
    """Set-up times, taken at evenly spaced points of a run.

    Each later set-up imports afresh and is thrown away; the run goes
    on with the first one's import, which is put back in `sys.modules`
    afterwards.  Spreading them over the run lets their median see the
    same mix of machine speeds as the queries.
    """

    def __init__(self, name, seed, scale, seconds, speed):
        self.args = (speed, name, seed, scale)
        self.seconds = seconds
        elapsed, self.lib, self.workload, self.first = scaled_set_up(
            *self.args
        )
        self.times = [elapsed]

    def _again(self):
        kept = cubex_modules()
        self.times.append(scaled_set_up(*self.args)[0])
        for name in cubex_modules():
            del sys.modules[name]
        sys.modules.update(kept)
        gc.collect()

    def due(self, elapsed):
        """Take the next set-up if the run has reached its point."""
        if len(self.times) < SETUP_REPEATS:
            if elapsed * SETUP_REPEATS >= self.seconds * len(self.times):
                self._again()

    def median(self):
        while len(self.times) < SETUP_REPEATS:
            self._again()
        shown = ", ".join(f"{t:.4f}" for t in self.times)
        print(f"set-up times (s, in run order): {shown}", file=sys.stderr)
        return statistics.median(self.times)


def measure(name, seed, seconds, scale="full"):
    """The untraced run; returns the result object.

    Every time it reports is scaled by `Speed` to the reference speed.
    """
    speed = Speed()
    setups = SetUps(name, seed, scale, seconds, speed)
    lib, workload, batch = setups.lib, setups.workload, setups.first
    tally = Tally()
    index = 0
    started = time.perf_counter()
    while True:
        speed.start()
        outcomes = tally.run_round(batch, timed)
        tally.check_round(batch, outcomes, speed.factor())
        index += 1
        elapsed = time.perf_counter() - started
        if elapsed >= seconds and tally.attempted >= MIN_QUERIES[scale]:
            break
        setups.due(elapsed)
        batch = workload.make_round(input_rng(lib, seed, index))
    if len(tally.times) < 2:
        raise RuntimeError(f"{tally.failed} of {tally.attempted} failed")
    return {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": end_to_end(tally.times, setups.median()),
    }


def trace(name, seed, seconds, scale="full"):
    """The traced run; returns the result object and the tracer.

    Each round runs untraced and then traced, and the two answers must
    be equal.  The answers are checked after the wrappers are removed,
    so only the queries' own calls leave spans.  The run stops at
    `seconds`, or at the end of the round in which the tracer passes its
    span cap.
    """
    from .spans import Tracer

    _, lib, workload, batch = set_up(name, seed, scale)
    tracer = Tracer()
    untraced, traced = Tally(), Tally()
    index = 0
    started = time.perf_counter()
    while True:
        answers = untraced.check_round(batch, untraced.run_round(batch, timed))
        tracer.install()
        try:
            outcomes = traced.run_round(batch, tracer.run_query)
        finally:
            tracer.uninstall()
        got = traced.check_round(batch, outcomes)
        for q, want, have in zip(batch, answers, got):
            if None not in (want, have) and have != want:
                traced.failed += 1
                traced.wrong += 1
                print(q.op, "traced answer differs", file=sys.stderr)
        index += 1
        if tracer.full or time.perf_counter() - started >= seconds:
            break
        batch = workload.make_round(input_rng(lib, seed, index))
    result = {
        "correct": untraced.wrong == traced.wrong == 0,
        "attempted": untraced.attempted + traced.attempted,
        "failed": untraced.failed + traced.failed,
        "metrics": layer_metrics(tracer, untraced, traced),
    }
    return result, tracer


def end_to_end(times, setup_s):
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "queries_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
        "query_p50_ms": {
            "value": statistics.median(times) * 1e3,
            "unit": "ms",
        },
        "query_p90_ms": {
            "value": statistics.quantiles(times, n=10)[8] * 1e3,
            "unit": "ms",
        },
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "unit": "MB",
        },
    }


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, untraced, traced):
    """Per-query layer numbers from the spans, and the tracing overhead."""
    table = tracer.totals()
    queries = len(tracer.queries)
    empty = {"calls": 0, "self_s": 0.0, "none": 0, "under": {}}
    out = {}
    for name in LAYER_CALLS:
        out[f"{name}.calls"] = {
            "value": table.get(name, empty)["calls"] / queries,
            "unit": "count",
        }
    for name in LAYER_SELF:
        out[f"{name}.self_ms"] = {
            "value": table.get(name, empty)["self_s"] * 1e3 / queries,
            "unit": "ms",
        }

    def weight(op):
        return sum(w for o, w in tracer.queries if o == op)

    built = table.get("core.apply_move", empty)["under"].get(
        "cubical.CubeComplex.bfs", 0
    )
    products = sum(
        table.get(f"{group}.mul", empty)["under"].get(
            "cubical.CubeComplex.stabilizer", 0
        )
        for group in ("thompson.VGroupElement", "houghton.HGroupElement")
    )
    transfers = table.get("houghton.HoughtonSystem.transfer", empty)
    ratios = {
        "cubical.CubeComplex.bfs.new_per_neighbor": _ratio(
            weight("bfs"), built
        ),
        "cubical.CubeComplex.stabilizer.products_per_element": _ratio(
            products, weight("stabilizer")
        ),
        "houghton.HoughtonSystem.transfer.hit_ratio": _ratio(
            transfers["calls"] - transfers["none"], transfers["calls"]
        ),
        "trace.overhead_x": _ratio(sum(traced.times), sum(untraced.times)),
    }
    for name, value in ratios.items():
        out[name] = {"value": value, "unit": "ratio"}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=sorted(workloads.FACTORIES)
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cubex", "__init__.py")):
        print(f"no cubex sources under {SRC}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 1 << 64:
        print("--seed must be a 64-bit unsigned int", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    try:
        if args.trace:
            result, tracer = trace(args.workload, args.seed, args.seconds)
        else:
            result = measure(args.workload, args.seed, args.seconds)
            tracer = None
    except RuntimeError as err:
        print(err, file=sys.stderr)
        return 1
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(
        OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}"
    )
    with open(stem + ".json", "w", encoding="utf-8") as out:
        json.dump(result, out, indent=1)
    if tracer is not None:
        tracer.dump(stem + ".spans.gz")
    print(json.dumps(result))
    return 0 if result["correct"] else 1
