"""Workload ``store-query``: seeded role-preserving queries against a
wide relation on the default backend, with an ingest every tenth op.

This is the only workload on the data path.  An ingest adds
:data:`INGEST_OBJECTS` objects and refreshes the backend, so the full
index rebuild is charged to the write; a query is one ``execute_batch``.
The two op kinds have separate latency metrics, so a change that moves
cost from one to the other shows on both.  Every timed figure is taken
over the whole run, so the full garbage collections that the index
rebuilds bring on (about one ingest in four) count in full.

Answers are checked after the timed loop against the per-object
reference ``QueryEngine.execute``: the first query after a seeded fifth
of the ingests (it must see the new objects), plus the first and last
query.  The relation only grows by appending, and a per-object answer
does not depend on other objects, so the reference run on the final
relation, cut at the relation's length when the query ran, is the
answer the query should have returned.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from time import perf_counter

from repro.core.generators import random_role_preserving
from repro.core.query import QhornQuery, compile_query
from repro.core.serialize import query_from_dict, query_to_dict
from repro.data import BoolIs, NestedRelation, QueryEngine, Vocabulary
from repro.data.schema import Attribute, FlatSchema, NestedSchema

from perfbench.measure import median, metric, percentile, self_peak_rss_mb
from perfbench.spans import Tracer

#: Boolean attributes per row (a relation dense in the 2^8 mask space).
WIDTH = 8
#: Objects in the relation before the first op.
BASE_OBJECTS = 20_000
#: Every INGEST_EVERY-th op is an ingest of INGEST_OBJECTS objects.
INGEST_EVERY = 10
INGEST_OBJECTS = 20
#: Share of ingests whose next query is checked against the reference.
CHECK_SHARE = 0.2
#: Relation builds per run; ``setup_s`` is their median.
SETUPS = 5
#: Distinct queries run before the timed ops: enough to fill the
#: program's compiled-query cache, so that the timed ops meet a store in
#: its steady state (a full cache that evicts, and the heap that goes
#: with it) rather than in its first minute.  No timed query is among
#: them, so every timed query is still compiled afresh.
WARMUP_QUERIES = (compile_query.cache_info().maxsize or 0) + 20


@dataclass
class Inputs:
    base: list
    #: One entry per op, in its JSON wire form: a query, or (at the
    #: positions :func:`is_ingest` names) a list of [key, rows] to ingest.
    ops: list
    warmup: list
    #: Op positions whose answers are checked after the run.
    checked: set


def _rows(rng: random.Random) -> list:
    return [
        {f"b{j + 1}": bool(rng.getrandbits(1)) for j in range(WIDTH)}
        for _ in range(rng.randrange(1, 4))
    ]


def make_inputs(seed: int, op_count: int) -> Inputs:
    """Relation rows, distinct queries, ingest rows and the checked ops,
    all from ``seed``."""
    rng = random.Random(seed)
    base = [(f"w{i}", _rows(rng)) for i in range(BASE_OBJECTS)]
    seen: set = set()

    def fresh_query():
        while True:
            query = random_role_preserving(WIDTH, rng)
            if query not in seen:
                seen.add(query)
                return query

    warmup = [
        json.dumps(query_to_dict(fresh_query()))
        for _ in range(WARMUP_QUERIES)
    ]
    ops: list = []
    checked: set = set()
    added = 0
    check_next = True
    for position in range(op_count):
        if is_ingest(position):
            batch = []
            for _ in range(INGEST_OBJECTS):
                batch.append((f"i{added}", _rows(rng)))
                added += 1
            ops.append(json.dumps(batch))
            check_next = rng.random() < CHECK_SHARE
            continue
        ops.append(json.dumps(query_to_dict(fresh_query())))
        if check_next:
            checked.add(position)
            check_next = False
    last_query = max(i for i in range(len(ops)) if not is_ingest(i))
    checked.add(last_query)
    return Inputs(base=base, ops=ops, warmup=warmup, checked=checked)


def is_ingest(position: int) -> bool:
    return position % INGEST_EVERY == INGEST_EVERY - 1


def decode(op: str) -> QhornQuery:
    """A query op as the store receives it over a wire.  Inputs are kept
    in this form until their op runs, so the pre-generated inputs add
    no objects for the program's garbage collections to walk."""
    return query_from_dict(json.loads(op))


def vocabulary() -> tuple:
    flat = FlatSchema(
        name="wide",
        attributes=tuple(Attribute.boolean(f"b{i + 1}") for i in range(WIDTH)),
    )
    vocab = Vocabulary(flat, [BoolIs(f"b{i + 1}") for i in range(WIDTH)])
    return flat, vocab


def build_relation(base: list) -> tuple:
    flat, vocab = vocabulary()
    relation = NestedRelation(NestedSchema(name="wide_objects", embedded=flat))
    for key, rows in base:
        relation.add_object(key, rows)
    return relation, vocab


def set_up(inputs: Inputs, backend=None) -> QueryEngine:
    """What a user pays before the first query: load the relation,
    build the engine and answer a first query (the index build)."""
    relation, vocab = build_relation(inputs.base)
    if backend is None:
        engine = QueryEngine(relation, vocab)
    else:
        engine = QueryEngine(relation, vocab, backend=backend(relation, vocab))
    engine.execute_batch(decode(inputs.warmup[0]))
    return engine


@dataclass
class Tally:
    #: Query and ingest latencies, and the wall time of the whole loop.
    query_s: list = field(default_factory=list)
    ingest_s: list = field(default_factory=list)
    wall_s: float = 0.0
    answers: list = field(default_factory=list)
    #: position → (answer keys, relation length when the query ran)
    observed: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)


def run_ops(engine: QueryEngine, inputs: Inputs) -> Tally:
    """The timed loop: every op of ``inputs`` in order."""
    relation = engine.relation
    tally = Tally()
    for op in inputs.warmup[1:]:
        engine.execute_batch(decode(op))
    started = perf_counter()
    for position, op in enumerate(inputs.ops):
        tally.attempted += 1
        if is_ingest(position):
            batch = json.loads(op)
            began = perf_counter()
            for key, rows in batch:
                relation.add_object(key, rows)
            engine.backend.refresh()
            tally.ingest_s.append(perf_counter() - began)
            continue
        query = decode(op)
        began = perf_counter()
        answers = engine.execute_batch(query)
        tally.query_s.append(perf_counter() - began)
        tally.answers.append(len(answers))
        if position in inputs.checked:
            tally.observed[position] = (
                [obj.key for obj in answers],
                len(relation),
            )
    tally.wall_s = perf_counter() - started
    return tally


def check(engine: QueryEngine, inputs: Inputs, tally: Tally) -> None:
    """Compare each checked query's answer keys with the per-object
    reference path, after the timed loop."""
    position_of = {obj.key: i for i, obj in enumerate(engine.relation)}
    for position, (keys, length) in sorted(tally.observed.items()):
        query = decode(inputs.ops[position])
        expected = [
            obj.key
            for obj in engine.execute(query)
            if position_of[obj.key] < length
        ]
        if keys != expected:
            tally.failed += 1
            if len(tally.problems) < 20:
                tally.problems.append(
                    f"query {query.shorthand()!r} at op {position}: "
                    f"{len(keys)} answers, reference {len(expected)}"
                )


def op_count(seconds: int) -> int:
    """Fixed op counts, scaled by ``--seconds`` only: at least 100
    ingests (ten beyond p90) and 1000 queries (ten beyond p99)."""
    return max(1120, 150 * seconds)


def run(seed: int, seconds: int) -> dict:
    inputs = make_inputs(seed, op_count(seconds))
    setups = []
    engine = None
    for _ in range(SETUPS):
        engine = None  # drop the previous relation before building anew
        began = perf_counter()
        engine = set_up(inputs)
        setups.append(perf_counter() - began)
    inputs.base = None  # the relation holds its own copies of the rows
    tally = run_ops(engine, inputs)
    check(engine, inputs, tally)
    metrics = {
        "ops_per_s": metric(tally.attempted / tally.wall_s, "1/s"),
        "op_ms_p50": metric(percentile(tally.query_s, 0.50) * 1e3, "ms"),
        "op_ms_p99": metric(percentile(tally.query_s, 0.99) * 1e3, "ms"),
        "setup_s": metric(median(setups), "s"),
        "peak_rss_mb": metric(self_peak_rss_mb(), "MiB"),
        "dialogues_per_s": metric(
            len(tally.query_s) / sum(tally.query_s), "1/s"),
        "questions_per_dialogue": metric(
            sum(tally.answers) / len(tally.answers), "count"
        ),
        "ingest_ms_p50": metric(percentile(tally.ingest_s, 0.50) * 1e3, "ms"),
        "ingest_ms_p90": metric(percentile(tally.ingest_s, 0.90) * 1e3, "ms"),
    }
    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "correct": tally.failed == 0 and bool(tally.observed),
        "metrics": metrics,
        "samples": {
            "op_ms": len(tally.query_s),
            "ingest_ms": len(tally.ingest_s),
            "checked": len(tally.observed),
        },
        "problems": tally.problems,
    }


def replay(
    engine: QueryEngine, inputs: Inputs, tracer: Tracer, tally: Tally
) -> dict:
    """The same ops with a span around each public call.  A query is
    split into ``query.compile`` (first compile of a fresh query),
    ``backend.matching_bits`` (the kernel, called once more on its own)
    and ``engine.execute_batch``; materialisation is the latter minus
    the former.  Checked answers go to ``tally`` as in :func:`run_ops`."""
    relation = engine.relation
    span = tracer.span
    answers = 0
    queries = 0
    for position, op in enumerate(inputs.ops):
        tracer.request = position
        tally.attempted += 1
        if is_ingest(position):
            batch = json.loads(op)
            with span("ingest"):
                for key, rows in batch:
                    with span("relation.add_object"):
                        relation.add_object(key, rows)
                with span("index.build"):
                    engine.backend.refresh()
            continue
        query = decode(op)
        with span("query"):
            with span("query.compile"):
                query.compile()
            with span("backend.matching_bits"):
                engine.backend.matching_bits(query)
            with span("engine.execute_batch"):
                result = engine.execute_batch(query)
        answers += len(result)
        queries += 1
        if position in inputs.checked:
            tally.observed[position] = (
                [obj.key for obj in result],
                len(relation),
            )
    return {"answers": answers, "queries": queries}
