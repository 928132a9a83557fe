"""The timed and the traced run over the four workloads."""

from __future__ import annotations

import os

from perfbench import layers, serving, storequery, sweep
from perfbench.measure import metric
from perfbench.run import WORKLOADS


def timed(root: str, workdir: str, workload: str, seed: int, seconds: int) -> dict:
    """One workload with tracing off: its end-to-end metrics."""
    if workload in ("serve", "serve-resume"):
        result = serving.run(
            root, workdir, seed, seconds, resume=workload == "serve-resume"
        )
    elif workload == "store-query":
        result = storequery.run(seed, seconds)
    else:
        result = sweep.run(seed, seconds)
    result["report"] = [f"== {workload} (seed {seed})"] + [
        f"{name:<24}{m['value']:>16.6g} {m['unit']}"
        for name, m in result["metrics"].items()
    ] + [f"samples {result['samples']}"]
    return result


def _layers(root: str, workdir: str, workload: str, seed: int) -> dict:
    if workload in ("serve", "serve-resume"):
        return layers.serve_layers(root, workdir, seed, workload)
    if workload == "store-query":
        return layers.store_query_layers(seed)
    return layers.sweep_layers()


def traced(
    root: str, workdir: str, workload: str, seed: int, spans_dir: str
) -> dict:
    """The separate traced run: every workload's per-layer table and
    metrics, the requested workload first.  The replays have fixed sizes.
    Spans stay in memory until the end, then go to one JSON-lines file
    per workload in ``spans_dir``."""
    order = [workload] + [w for w in WORKLOADS if w != workload]
    result = {"attempted": 0, "failed": 0, "metrics": {}, "report": [],
              "problems": []}
    tracers = {}
    for name in order:
        part = _layers(root, workdir, name, seed)
        tracers[name] = part["tracer"]
        result["attempted"] += part["attempted"]
        result["failed"] += part["failed"]
        result["problems"] += part["problems"]
        result["report"] += part["table"] + [""]
        for key, (value, unit) in part["metrics"].items():
            result["metrics"][key] = metric(value, unit)
    for name, tracer in tracers.items():
        tracer.write(os.path.join(spans_dir, f"spans-{name}.jsonl"))
    result["correct"] = result["failed"] == 0 and not result["problems"]
    return result
