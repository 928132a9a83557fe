"""Workload ``sweep``: the exhaustive conformance sweep of
``repro enumerate`` at ``--max-props 2 --max-objects 3``, full matrix,
``--parallel 2``.

It is the only workload that runs the worker pool, the ``sql`` and
``dbapi`` backends and the SQL oracle transports.  Its input is the whole
bounded query and store space, so the seed does not change it.

The timed run calls ``repro.enumerate.runner.run`` with the runner's
``check_learners`` and ``check_backends`` replaced by timing wrappers
(restored afterwards): an op is one (query, store) pair and its latency
the ``check_backends`` call; an ingest is one store's turn, from the end
of the previous store's last check to the end of its own last check, in
which the runner closes the old store's backends, loads the store into
every backend leg and checks every query against it; a dialogue is one
learner-matrix leg.
"""

from __future__ import annotations

from time import perf_counter

import repro.enumerate.runner as runner
from repro.core.normalize import brute_force_equivalent
from repro.data.backends import create_backend
from repro.enumerate import MatrixSpec, enumerate_queries, enumerate_stores
from repro.enumerate.differ import (
    BACKEND_LEGS,
    check_backends,
    question_bound,
    run_learner_leg,
)
from repro.enumerate.space import store_vocabulary
from repro.parallel import ShardWorkerPool

from perfbench.measure import median, metric, percentile, self_peak_rss_mb
from perfbench.spans import Tracer

MAX_PROPS = 2
MAX_OBJECTS = 3
MAX_ROWS = 2
PROCESSES = 2


class _Discard:
    """A corpus sink that keeps nothing (the summary is returned)."""

    def write(self, text: str) -> int:
        return len(text)


def config() -> "runner.RunConfig":
    return runner.RunConfig(
        max_props=MAX_PROPS,
        max_objects=MAX_OBJECTS,
        max_rows=MAX_ROWS,
        matrix="full",
        parallel=PROCESSES,
    )


def set_up() -> tuple:
    """A sweep's fixed cost, measured as the runner on the smallest space
    (max-props 1, max-objects 2): worker pool start and shutdown, space
    enumeration, and a few learner legs, backend builds and checks.
    Returns ``(seconds, divergences)``."""
    began = perf_counter()
    result = runner.run(
        runner.RunConfig(
            max_props=1,
            max_objects=2,
            max_rows=MAX_ROWS,
            matrix="full",
            parallel=PROCESSES,
        ),
        _Discard(),
    )
    return perf_counter() - began, result.divergences


class SweepTally:
    def __init__(self) -> None:
        self.pair_s: list = []
        self.store_s: list = []
        self.questions: list = []
        #: Per sweep: (pairs, wall seconds) and (learner legs, seconds in
        #: ``check_learners``).
        self.sweeps: list = []
        self.learning: list = []
        self.pairs = 0
        self.learner_runs = 0
        self.divergences = 0
        self.problems: list = []


def timed_sweep(tally: SweepTally) -> None:
    """One ``runner.run`` with timing wrappers around the checks."""
    check_pair = runner.check_backends
    check_query = runner.check_learners
    state = {"store": None, "last": 0.0, "store_began": 0.0, "legs": 0,
             "leg_s": 0.0}

    def timed_check_learners(*args, **kwargs):
        began = perf_counter()
        report, divergences = check_query(*args, **kwargs)
        ended = perf_counter()
        state["leg_s"] += ended - began
        state["legs"] += report["combos"]
        tally.questions.extend(report["questions"].values())
        state["last"] = ended
        return report, divergences

    def timed_check_backends(entry, store, *args, **kwargs):
        began = perf_counter()
        if store.id != state["store"]:
            if state["store"] is not None:
                tally.store_s.append(state["last"] - state["store_began"])
            state["store"] = store.id
            state["store_began"] = state["last"]
        result = check_pair(entry, store, *args, **kwargs)
        ended = perf_counter()
        tally.pair_s.append(ended - began)
        state["last"] = ended
        return result

    runner.check_learners = timed_check_learners
    runner.check_backends = timed_check_backends
    try:
        began = perf_counter()
        result = runner.run(config(), _Discard())
        if state["store"] is not None:
            tally.store_s.append(state["last"] - state["store_began"])
        tally.sweeps.append((result.pairs, perf_counter() - began))
        tally.learning.append((state["legs"], state["leg_s"]))
    finally:
        runner.check_learners = check_query
        runner.check_backends = check_pair
    summary = result.summary()
    tally.pairs += result.pairs
    tally.learner_runs += result.learner_runs
    tally.divergences += len(result.divergences)
    if not summary["bound_ok"]:
        tally.problems.append(f"sweep summary {summary}")
    for divergence in result.divergences[:20]:
        tally.problems.append(str(divergence.to_record()))


def sweep_count(seconds: int) -> int:
    """Fixed op counts: whole sweeps per run, scaled by ``--seconds``."""
    return max(3, round(seconds / 2.5))


def _rate(parts: list) -> float:
    """Items per second over ``(items, seconds)`` parts taken together."""
    return sum(n for n, _ in parts) / sum(t for _, t in parts)


def run(seed: int, seconds: int) -> dict:
    del seed  # the space is exhaustive: every seed sweeps the same pairs
    setups = []
    tally = SweepTally()
    for _ in range(sweep_count(seconds)):
        # One set-up before each sweep, so the samples span the run.
        elapsed, divergences = set_up()
        setups.append(elapsed)
        tally.divergences += len(divergences)
        timed_sweep(tally)
    complete = len(tally.pair_s) == tally.pairs and bool(tally.store_s)
    metrics = {
        "ops_per_s": metric(_rate(tally.sweeps), "1/s"),
        "op_ms_p50": metric(percentile(tally.pair_s, 0.50) * 1e3, "ms"),
        "op_ms_p99": metric(percentile(tally.pair_s, 0.99) * 1e3, "ms"),
        "setup_s": metric(median(setups), "s"),
        "peak_rss_mb": metric(self_peak_rss_mb(), "MiB"),
        "dialogues_per_s": metric(_rate(tally.learning), "1/s"),
        "questions_per_dialogue": metric(
            sum(tally.questions) / len(tally.questions), "count"
        ),
        "ingest_ms_p50": metric(percentile(tally.store_s, 0.50) * 1e3, "ms"),
        "ingest_ms_p90": metric(percentile(tally.store_s, 0.90) * 1e3, "ms"),
    }
    if not complete:
        tally.problems.append(
            f"timed {len(tally.pair_s)} pair checks for {tally.pairs} pairs"
        )
    return {
        "attempted": tally.pairs + tally.learner_runs,
        "failed": tally.divergences,
        "correct": tally.divergences == 0 and complete and not tally.problems,
        "metrics": metrics,
        "samples": {
            "op_ms": len(tally.pair_s),
            "ingest_ms": len(tally.store_s),
            "dialogues": sum(legs for legs, _ in tally.learning),
            "sweeps": len(tally.sweeps),
        },
        "problems": tally.problems,
    }


# ----------------------------------------------------------------------
# Traced replay
# ----------------------------------------------------------------------
class _TimedBackend:
    """Forwards to a built backend, with a span around each public call
    ``check_backends`` makes.  Backends load the store lazily, on their
    first call, so that call is its own span, ``differ.backend_load``."""

    def __init__(self, backend, tracer: Tracer, leg: str) -> None:
        self._backend = backend
        self._tracer = tracer
        self._leg = leg
        self._loaded = False

    def _span(self):
        kind = "check" if self._loaded else "load"
        self._loaded = True
        return self._tracer.span(f"differ.backend_{kind}.{self._leg}")

    def matches_many(self, *args, **kwargs):
        with self._span():
            return self._backend.matches_many(*args, **kwargs)

    def execute(self, *args, **kwargs):
        with self._span():
            return self._backend.execute(*args, **kwargs)

    def matching_bits(self, *args, **kwargs):
        with self._span():
            return self._backend.matching_bits(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._backend, name)


def legs(matrix: MatrixSpec) -> list:
    return [leg for leg in matrix.backends if leg in BACKEND_LEGS]


def _leg_ok(target, learner: str, outcome, first: dict) -> bool:
    """The checks ``check_learners`` makes on a leg: a learner's first
    leg learns a query equivalent to ``target`` within the question
    bound, and every later leg of that learner repeats it exactly."""
    reference = first.setdefault(learner, outcome)
    if reference is outcome:
        bound = question_bound(learner, target)
        return brute_force_equivalent(outcome.learned, target) and (
            bound is None or outcome.questions <= bound
        )
    return (outcome.transcript, outcome.stats, outcome.learned) == (
        reference.transcript, reference.stats, reference.learned
    )


def replay(tracer: Tracer) -> dict:
    """The sweep's work through the public functions of ``enumerate``,
    ``parallel``, ``oracle`` and ``data.backends``, in the runner's
    order, with a span around each call."""
    span = tracer.span
    matrix = config().matrix_spec()
    counts = {"pairs": 0, "legs": 0, "stores": 0, "divergences": 0}
    with span("parallel.pool_start"):
        pool = ShardWorkerPool(processes=PROCESSES)
        pool.ping()
    try:
        with span("space.enumerate"):
            queries = list(enumerate_queries(MAX_PROPS))
            by_n: dict = {}
            for entry in queries:
                by_n.setdefault(entry.n, []).append(entry)
            stores = {
                n: list(enumerate_stores(n, MAX_OBJECTS, max_rows=MAX_ROWS))
                for n in sorted(by_n)
            }
        for request, entry in enumerate(queries):
            if not entry.query.require_guarantees:
                continue
            tracer.request = request
            first: dict = {}
            for learner, oracle, driver, parallel in matrix.learner_combos():
                with span(f"differ.learner_leg.{oracle}.{parallel}"):
                    outcome = run_learner_leg(
                        entry.query, learner, oracle, driver, parallel, pool
                    )
                counts["legs"] += 1
                if not _leg_ok(entry.query, learner, outcome, first):
                    counts["divergences"] += 1
        for n, entries in sorted(by_n.items()):
            vocabulary = store_vocabulary(n)
            for store in stores[n]:
                counts["stores"] += 1
                tracer.request = store.id
                relation = store.relation(vocabulary)
                backends = {}
                try:
                    for leg in legs(matrix):
                        name, options = BACKEND_LEGS[leg]
                        options = dict(options)
                        if leg == "sharded-pool":
                            options["pool"] = pool
                        with span(f"differ.backend_build.{leg}"):
                            built = create_backend(
                                name, relation, vocabulary, **options
                            )
                        backends[leg] = _TimedBackend(built, tracer, leg)
                    for entry in entries:
                        with span("differ.check_backends"):
                            _, divergences = check_backends(
                                entry, store, backends, relation, vocabulary
                            )
                        counts["pairs"] += 1
                        counts["divergences"] += len(divergences)
                finally:
                    for leg, backend in backends.items():
                        close = getattr(backend._backend, "close", None)
                        if close is not None:
                            with span(f"differ.backend_close.{leg}"):
                                close()
    finally:
        pool.close()
    return counts
