"""The benchmark's own tests, at toy sizes.

Run with ``python -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import (
    layers,
    measure,
    run,
    serving,
    spans,
    storequery,
    sweep,
    workloads,
)
from repro.core.parser import parse_query
from repro.data.backends.bitmask import BitmaskBackend
from repro.enumerate.differ import run_learner_leg

ROOT = Path(__file__).resolve().parent.parent


def _declared(kind: str) -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {entry["name"]: entry["unit"] for entry in spec[kind]}


@pytest.fixture
def toy(monkeypatch):
    """Shrink every workload to a few seconds in total."""
    monkeypatch.setattr(serving, "dialogue_count", lambda seconds, resume: 10)
    monkeypatch.setattr(serving, "SETUPS", 2)
    monkeypatch.setattr(storequery, "BASE_OBJECTS", 300)
    monkeypatch.setattr(storequery, "WARMUP_QUERIES", 20)
    monkeypatch.setattr(storequery, "op_count", lambda seconds: 60)
    monkeypatch.setattr(sweep, "MAX_PROPS", 1)
    monkeypatch.setattr(sweep, "MAX_OBJECTS", 2)
    monkeypatch.setattr(sweep, "sweep_count", lambda seconds: 1)
    monkeypatch.setattr(layers, "TRACE_DIALOGUES", {"serve": 6, "serve-resume": 4})
    monkeypatch.setattr(layers, "TRACE_STORE_OPS", 40)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_timed_run_emits_every_end_to_end_metric(toy, tmp_path, workload):
    result = workloads.timed(str(ROOT), str(tmp_path), workload, 3, 1)
    assert result["correct"], result["problems"]
    assert result["failed"] == 0 and result["attempted"] > 0
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == _declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_emits_every_per_layer_metric(toy, tmp_path):
    result = workloads.traced(
        str(ROOT), str(tmp_path), "sweep", 3, str(tmp_path)
    )
    assert result["correct"], result["problems"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == _declared("per_layer")
    for workload in workloads.WORKLOADS:
        assert (tmp_path / f"spans-{workload}.jsonl").stat().st_size > 0
    report = "\n".join(result["report"])
    assert "unaccounted" in report and "tracing overhead" in report


def test_result_line_has_exactly_the_contract_keys(toy, capsys):
    code = run.main(
        ["--workload", "store-query", "--seed", "5", "--seconds", "1"]
    )
    last = capsys.readouterr().out.strip().splitlines()[-1]
    result = json.loads(last)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0


def test_wrong_client_answer_is_a_failed_op(tmp_path):
    dialogues = serving.make_dialogues(11, 3)
    wrong = dialogues[0]
    flipped = [not answer for answer in json.loads(wrong.answers[1])]
    wrong.answers[1] = json.dumps(flipped).encode()
    with serving.ServerProcess(str(ROOT), str(tmp_path), "wrong") as server:
        server.start()
        tally, _ = serving.serve_dialogues(server.port, dialogues, False)
    assert tally.failed >= 1
    assert tally.attempted > tally.failed


class _CorruptBackend(BitmaskBackend):
    """Drops the first answer of every query (or invents one)."""

    def execute(self, query):
        answers = super().execute(query)
        return answers[1:] if answers else [next(iter(self.relation))]


def test_corrupted_backend_answer_is_a_failed_op(toy):
    inputs = storequery.make_inputs(9, 60)
    engine = storequery.set_up(inputs, backend=_CorruptBackend)
    tally = storequery.run_ops(engine, inputs)
    storequery.check(engine, inputs, tally)
    assert tally.failed == len(tally.observed) >= 2


def test_server_is_reaped_when_the_run_fails(toy, tmp_path, monkeypatch):
    started = []
    popen = subprocess.Popen

    def spy(*args, **kwargs):
        process = popen(*args, **kwargs)
        started.append(process)
        return process

    def broken(*args, **kwargs):
        raise RuntimeError("client fault")

    monkeypatch.setattr(serving.subprocess, "Popen", spy)
    monkeypatch.setattr(serving, "serve_dialogues", broken)
    with pytest.raises(RuntimeError, match="client fault"):
        serving.run(str(ROOT), str(tmp_path), 1, 1, resume=False)
    assert len(started) == serving.SETUPS
    assert all(process.returncode is not None for process in started)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_self_time_subtracts_children():
    tracer = spans.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    summary = tracer.summary()
    outer, inner = summary["outer"], summary["inner"]
    assert inner["calls"] == 2
    assert outer["self_ns"] == outer["total_ns"] - inner["total_ns"]
    assert spans.Tracer(enabled=False).span("x") is spans.Tracer(False).span("y")


def test_percentile_is_nearest_rank():
    values = [float(i) for i in range(1, 101)]
    assert measure.percentile(values, 0.50) == 50.0
    assert measure.percentile(values, 0.99) == 99.0
    assert measure.percentile([3.0], 0.90) == 3.0


def test_wrong_learner_leg_is_a_failed_op():
    target = parse_query("∀x1→x2 ∃x1x2", n=2)
    other = parse_query("∃x1x2", n=2)
    good = run_learner_leg(target, "qhorn1", "direct", "pull", "serial")
    first: dict = {}
    assert sweep._leg_ok(target, "qhorn1", good, first)
    assert sweep._leg_ok(target, "qhorn1", good, first)
    wrong = dataclasses.replace(good, learned=other)
    assert not sweep._leg_ok(target, "qhorn1", wrong, first)
    assert not sweep._leg_ok(target, "qhorn1", wrong, {})
