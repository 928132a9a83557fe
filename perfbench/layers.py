"""The traced run: per-layer tables and metrics of every workload.

Each workload's work is replayed in this process with the same code,
with spans off and on, alternated twice; the difference between the
faster wall time of each kind is the tracing overhead.  The replays
call the program's public functions in the order the program itself
calls them (``RoundServer`` for the serve workloads,
``repro.enumerate.runner`` for the sweep), so a layer's self time is the
time spent in that public call.  Nothing in the
program is changed or patched for the traced run.
"""

from __future__ import annotations

import gc
import os
from collections import defaultdict
from time import perf_counter

from repro.oracle import QueryOracle
from repro.protocol import drive
from repro.server import LEARNERS, SessionStore

from perfbench import serving, storequery, sweep
from perfbench.spans import Tracer

#: Dialogues replayed per serve workload, and ops per store-query replay.
TRACE_DIALOGUES = {"serve": 100, "serve-resume": 40}
TRACE_STORE_OPS = 300


def _passes(tracer: Tracer) -> list:
    """Untraced and traced replays, alternated twice.  The spans come
    from ``tracer``, the first traced pass; each kind's wall time is its
    faster pass, since a noisy host only ever adds time."""
    return [("untraced", Tracer(False)), ("traced", tracer),
            ("untraced", Tracer(False)), ("traced", Tracer())]


def _record(walls: dict, label: str, seconds: float) -> None:
    walls[label] = min(seconds, walls.get(label, seconds))


def _overhead(walls: dict) -> tuple:
    """The tracing overhead as a share of the untraced wall time, and
    the table line that reports it."""
    share = (walls["traced"] - walls["untraced"]) / walls["untraced"]
    return share, (
        f"replay wall: untraced {walls['untraced'] * 1e3:.1f} ms, traced "
        f"{walls['traced'] * 1e3:.1f} ms, tracing overhead "
        f"{(walls['traced'] - walls['untraced']) * 1e3:.1f} ms ({share:.1%})"
    )


def _us(ns: float, calls: int) -> float:
    return ns / 1e3 / calls if calls else 0.0


def _table(title: str, summary: dict, per: int, per_name: str) -> list:
    """Rows: span name, calls, self ms, self us per call, us per op and
    share of the summed self time."""
    total = sum(row["self_ns"] for row in summary.values()) or 1
    lines = [
        f"== {title}",
        f"{'layer':<36}{'calls':>9}{'self_ms':>11}{'us/call':>10}"
        f"{'us/' + per_name:>11}{'share':>8}",
    ]
    for name, row in sorted(
        summary.items(), key=lambda item: -item[1]["self_ns"]
    ):
        lines.append(
            f"{name:<36}{row['calls']:>9}{row['self_ns'] / 1e6:>11.2f}"
            f"{_us(row['self_ns'], row['calls']):>10.2f}"
            f"{_us(row['self_ns'], per):>11.2f}"
            f"{row['self_ns'] / total:>8.1%}"
        )
    return lines


class _TimedOracle:
    """A ``QueryOracle`` with a span around every answer call."""

    def __init__(self, oracle, tracer: Tracer) -> None:
        self._oracle = oracle
        self._span = tracer.span

    def ask(self, question):
        with self._span("oracle.answer"):
            return self._oracle.ask(question)

    def ask_many(self, questions):
        with self._span("oracle.answer"):
            return self._oracle.ask_many(questions)

    def __getattr__(self, name):
        return getattr(self._oracle, name)


def _learner_steps(dialogues: list, tracer: Tracer) -> None:
    """Each intent driven directly with ``repro.protocol.drive`` against
    a ``QueryOracle``: the learner's own step time, oracle excluded."""
    for request, dialogue in enumerate(dialogues):
        tracer.request = request
        oracle = _TimedOracle(QueryOracle(dialogue.intent), tracer)
        learner = LEARNERS[dialogue.learner](oracle)
        with tracer.span("learner.step"):
            drive(learner, oracle)


def serve_layers(root: str, workdir: str, seed: int, workload: str) -> dict:
    resume = workload == "serve-resume"
    dialogues = serving.make_dialogues(seed, TRACE_DIALOGUES[workload])
    problems: list = []
    # The untraced round time over loopback, one connection so no round
    # waits behind another: what the layers below have to explain.
    with serving.ServerProcess(root, workdir, f"trace-{workload}") as server:
        server.start()
        serving.serve_dialogues(server.port, dialogues[:5], resume, 1)
        tally, _ = serving.serve_dialogues(server.port, dialogues, resume, 1)
    problems.extend(tally.problems)
    e2e = tally.round_s + tally.open_s
    round_us = sum(e2e) / len(e2e) * 1e6

    # A first untraced pass warms up and counts snapshot bytes; the wall
    # times come from the passes after it.
    walls = {}
    tracer = Tracer()
    passes = [("bytes", Tracer(False))] + _passes(tracer)
    for number, (label, active) in enumerate(passes):
        path = os.path.join(workdir, f"replay-{workload}-{number}.sqlite")
        with SessionStore(path) as store:
            gc.collect()
            began = perf_counter()
            counted = serving.replay(
                dialogues, store, active, resume, count_bytes=label == "bytes"
            )
            _record(walls, label, perf_counter() - began)
        if label == "bytes":
            save_bytes = counted["save_bytes"]
        counts = counted
    summary = tracer.summary()
    learner = Tracer()
    _learner_steps(dialogues, learner)
    learner_summary = learner.summary()

    ops = counts["ops"]
    layer_ns = sum(row["self_ns"] for row in summary.values())
    rounds = sum(len(d.questions) for d in dialogues)
    asked = sum(d.asked for d in dialogues)

    def per_call(name: str) -> float:
        row = summary.get(name)
        return _us(row["self_ns"], row["calls"]) if row else 0.0

    def calls(name: str) -> int:
        return summary.get(name, {"calls": 0})["calls"]

    store_calls = sum(
        calls(f"store.{verb}") for verb in ("save", "load", "claim", "release")
    )
    overhead, overhead_line = _overhead(walls)
    layer_us = layer_ns / 1e3 / ops
    p = workload
    metrics = {
        f"{p}.wire.encode_us_per_msg": (per_call("wire.encode"), "us"),
        f"{p}.wire.decode_us_per_msg": (per_call("wire.decode"), "us"),
        f"{p}.wire.bytes_per_round": (counts["wire_bytes"] / ops, "bytes"),
        f"{p}.session.start_us_per_dialogue": (per_call("session.start"), "us"),
        f"{p}.session.feed_us_per_round": (per_call("session.feed"), "us"),
        f"{p}.session.snapshot_us_per_round": (
            per_call("session.snapshot"), "us"),
        f"{p}.learner.step_us_per_round": (
            _us(learner_summary["learner.step"]["self_ns"], rounds), "us"),
        f"{p}.oracle.answer_us_per_round": (
            _us(learner_summary["oracle.answer"]["self_ns"], rounds), "us"),
        f"{p}.learner.questions_per_round": (asked / rounds, "count"),
        f"{p}.store.save_us_per_call": (per_call("store.save"), "us"),
        f"{p}.store.bytes_per_save": (
            save_bytes / counts["saves"], "bytes"),
        f"{p}.store.calls_per_round": (store_calls / ops, "count"),
        f"{p}.server.layer_us_per_round": (layer_us, "us"),
        f"{p}.server.round_us_untraced": (round_us, "us"),
        f"{p}.server.unaccounted_share": (1 - layer_us / round_us, "fraction"),
        f"{p}.trace.overhead_share": (overhead, "fraction"),
    }
    if resume:
        metrics.update({
            f"{p}.session.resume_us_per_call": (per_call("session.resume"), "us"),
            f"{p}.session.replayed_questions_per_resume": (
                counts["replayed"] / counts["resumes"], "count"),
            f"{p}.store.load_us_per_call": (per_call("store.load"), "us"),
            f"{p}.store.claim_us_per_call": (per_call("store.claim"), "us"),
            f"{p}.store.release_us_per_call": (per_call("store.release"), "us"),
        })
    table = _table(
        f"{workload}: {len(dialogues)} dialogues, {ops} rounds replayed "
        f"in-process (RoundServer's calls)",
        summary, ops, "round",
    )
    table += _table(
        "  inside session.feed: the learner driven directly (drive + "
        "QueryOracle)", learner_summary, rounds, "round",
    )
    table += [
        f"untraced round over loopback: {round_us:.1f} us; layers explain "
        f"{layer_us:.1f} us; unaccounted (event loop, socket): "
        f"{1 - layer_us / round_us:.1%}",
        overhead_line,
    ]
    if counts["mismatched"]:
        problems.append(
            f"{counts['mismatched']} replayed dialogues left the reference"
        )
    return {
        "metrics": metrics,
        "table": table,
        "tracer": tracer,
        "attempted": tally.attempted + len(dialogues),
        "failed": tally.failed + counts["mismatched"],
        "problems": problems,
    }


def store_query_layers(seed: int) -> dict:
    inputs = storequery.make_inputs(seed, TRACE_STORE_OPS)
    walls = {}
    tracer = Tracer()
    for label, active in _passes(tracer):
        engine = None  # drop the previous relation before building anew
        engine = storequery.set_up(inputs)
        for op in inputs.warmup[1:]:
            engine.execute_batch(storequery.decode(op))
        tally = storequery.Tally()
        began = perf_counter()
        counts = storequery.replay(engine, inputs, active, tally)
        _record(walls, label, perf_counter() - began)
    storequery.check(engine, inputs, tally)
    distinct = engine.index.distinct_masks
    summary = tracer.summary()
    queries = counts["queries"]
    ingests = summary["index.build"]["calls"]
    overhead, overhead_line = _overhead(walls)

    def total_us(name: str) -> float:
        return summary[name]["total_ns"] / 1e3

    p = "store-query"
    metrics = {
        f"{p}.index.build_ms_per_refresh": (
            total_us("index.build") / 1e3 / ingests, "ms"),
        f"{p}.relation.add_us_per_object": (
            total_us("relation.add_object")
            / summary["relation.add_object"]["calls"], "us"),
        f"{p}.backend.matching_bits_us_per_query": (
            total_us("backend.matching_bits") / queries, "us"),
        f"{p}.engine.materialize_us_per_query": (
            (total_us("engine.execute_batch")
             - total_us("backend.matching_bits")) / queries, "us"),
        f"{p}.query.compile_us": (total_us("query.compile") / queries, "us"),
        f"{p}.index.distinct_masks": (distinct, "count"),
        f"{p}.engine.answers_per_query": (counts["answers"] / queries, "count"),
        f"{p}.trace.overhead_share": (overhead, "fraction"),
    }
    table = _table(
        f"store-query: {queries} queries and {ingests} ingests of "
        f"{storequery.INGEST_OBJECTS} objects on "
        f"{storequery.BASE_OBJECTS} objects (bitmask backend; "
        f"backend.matching_bits is an extra call per query)",
        summary, queries + ingests, "op",
    )
    table.append(overhead_line)
    return {
        "metrics": metrics,
        "table": table,
        "tracer": tracer,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
    }


def sweep_layers() -> dict:
    walls = {}
    tracer = Tracer()
    for label, active in _passes(tracer):
        gc.collect()
        began = perf_counter()
        counts = sweep.replay(active)
        _record(walls, label, perf_counter() - began)
    summary = tracer.summary()
    overhead, overhead_line = _overhead(walls)
    pairs = counts["pairs"]
    stores = counts["stores"]
    by_parallel: dict = defaultdict(lambda: [0, 0])
    by_oracle: dict = defaultdict(lambda: [0, 0])
    for name, row in summary.items():
        if name.startswith("differ.learner_leg."):
            oracle, parallel = name.split(".")[2:]
            for bucket in (by_parallel[parallel], by_oracle[oracle]):
                bucket[0] += row["total_ns"]
                bucket[1] += row["calls"]

    def row_ms(name: str) -> float:
        return summary[name]["total_ns"] / 1e6

    p = "sweep"
    metrics = {
        f"{p}.parallel.pool_start_ms": (row_ms("parallel.pool_start"), "ms"),
        f"{p}.space.enumerate_ms": (row_ms("space.enumerate"), "ms"),
        f"{p}.differ.check_backends_self_us": (
            summary["differ.check_backends"]["self_ns"] / 1e3 / pairs, "us"),
        f"{p}.trace.overhead_share": (overhead, "fraction"),
    }
    for parallel, (ns, calls) in sorted(by_parallel.items()):
        metrics[f"{p}.differ.learner_leg_ms.{parallel}"] = (ns / 1e6 / calls, "ms")
    for oracle, (ns, calls) in sorted(by_oracle.items()):
        metrics[f"{p}.oracle.transport_ms.{oracle}"] = (ns / 1e6 / calls, "ms")
    for leg in sweep.legs(sweep.config().matrix_spec()):
        build = summary[f"differ.backend_build.{leg}"]
        metrics[f"{p}.differ.backend_build_ms.{leg}"] = (
            build["total_ns"] / 1e6 / stores, "ms")
        load = summary[f"differ.backend_load.{leg}"]
        metrics[f"{p}.differ.backend_load_us.{leg}"] = (
            load["total_ns"] / 1e3 / stores, "us")
        check = summary[f"differ.backend_check.{leg}"]
        metrics[f"{p}.differ.backend_check_us.{leg}"] = (
            check["total_ns"] / 1e3 / pairs, "us")
    table = _table(
        f"sweep: {counts['legs']} learner legs, {stores} stores, {pairs} "
        f"pairs (max-props {sweep.MAX_PROPS}, max-objects "
        f"{sweep.MAX_OBJECTS}, --parallel {sweep.PROCESSES})",
        summary, pairs, "pair",
    )
    table.append(overhead_line)
    return {
        "metrics": metrics,
        "table": table,
        "tracer": tracer,
        "attempted": pairs + counts["legs"],
        "failed": counts["divergences"],
        "problems": [],
    }
