"""The traced run: every layer's numbers, whatever the workload.

The suite keeps each workload's process layout and is sized in
operations, so it attempts the same operations on every run:

1. CLI: fresh interpreters run `pb_cliprobe.py` (import, parser, main);
2. service, untraced: plain `repro serve`, two cost clients;
3. service, traced: the same load against `pb_launcher.py`;
4. service, traced, mixed: one cost client, one search/scenario client;
5. exploration: a session running untraced then traced rotations, then
   one inline corpus run.

Self time of a layer is its span minus the spans nested in it.  Waits
are means over the spans that waited; busy times are medians.  The
tracing overhead is the traced median over the untraced one, minus 1,
on the same load.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from pathlib import Path

import pb_checks
import pb_inputs
import pb_workloads
from pb_common import (
    BenchError,
    ROOT,
    ServerProcess,
    child_env,
    median,
    serve_argv,
)
from pb_trace import durations_ms, per_root_ms, self_times_ms

CLI_PROBES = 5
COST_ROUNDS = 5      # per client, cost phases
MIXED_COST_ROUNDS = 3
MIXED_HEAVY_ROUNDS = 1
SESSION_ROTATIONS = 2  # untraced, then the same number traced

UNITS = {
    "cli.import_ms": "ms",
    "cli.parser_ms": "ms",
    "cli.main_ms": "ms",
    "cli.interpreter_ms": "ms",
    "service.handler_ms": "ms",
    "service.decode_ms": "ms",
    "registry.hash_ms": "ms",
    "service.cache_ms": "ms",
    "service.cache_hit_ratio": "ratio",
    "service.queue_wait_ms": "ms",
    "service.batch_size": "requests",
    "service.lock_wait_ms": "ms",
    "explore.build_ms": "ms",
    "engine.evaluate_ms": "ms",
    "engine.die_cache_hit_ratio": "ratio",
    "service.encode_ms": "ms",
    "service.transport_ms": "ms",
    "service.search_ms": "ms",
    "service.scenario_ms": "ms",
    "search.linearize_ms": "ms",
    "search.evaluate_ms": "ms",
    "search.prune_ms": "ms",
    "search.keep_ratio": "ratio",
    "scenario.figure_ms": "ms",
    "scenario.montecarlo_ms": "ms",
    "scenario.reuse_ms": "ms",
    "scenario.partition_ms": "ms",
    "scenario.search_ms": "ms",
    "scenario.other_ms": "ms",
    "corpus.execute_ms": "ms",
    "corpus.pool_overhead_ms": "ms",
    "corpus.store_ms": "ms",
    "corpus.hash_ms": "ms",
    "corpus.registry_hash_ms": "ms",
    "explore.search_ms": "ms",
    "explore.scenario_ms": "ms",
    "explore.corpus_ms": "ms",
    "explore.resume_ms": "ms",
    "trace.service_overhead_pct": "%",
    "trace.explore_overhead_pct": "%",
}


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


# ----------------------------------------------------------------------
# 1. CLI
# ----------------------------------------------------------------------


def cli_layer(seed: int, work: Path, outcome: dict) -> dict:
    env = child_env(work)
    points = [op for op in pb_inputs.cli_rounds(seed, 1)[0] if op is not None]
    samples = []
    for point in points[:CLI_PROBES]:
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("pb_cliprobe.py")),
             *pb_inputs.cli_argv(point)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        wall_ms = (time.perf_counter() - start) * 1e3
        outcome["attempted"] += 1
        if proc.returncode != 0:
            outcome["failed"] += 1
            continue
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
        outcome["problems"] += pb_checks.check_cli_output(
            sample["stdout"], pb_checks.reference_cost(point)
        )
        sample["rest_ms"] = wall_ms - (
            sample["import_ms"] + sample["parser_ms"] + sample["main_ms"]
        )
        samples.append(sample)
    if not samples:
        raise BenchError("every CLI probe failed")
    return {
        "cli.import_ms": median(s["import_ms"] for s in samples),
        "cli.parser_ms": median(s["parser_ms"] for s in samples),
        "cli.main_ms": median(s["main_ms"] for s in samples),
        "cli.interpreter_ms": median(s["rest_ms"] for s in samples),
    }


# ----------------------------------------------------------------------
# 2-4. service
# ----------------------------------------------------------------------


def _launcher_argv(spans: Path) -> list[str]:
    return [sys.executable, str(Path(__file__).with_name("pb_launcher.py")),
            str(spans), *serve_argv()[3:]]


def _fixed(rounds: int):
    state = {"done": 0}

    def keep_going() -> bool:
        state["done"] += 1
        return state["done"] < rounds
    return keep_going


def _serve_phase(argv, work, tag, loops_spec, outcome, figures=None):
    """One server, fixed rounds per client; returns (health, calls)."""
    server = ServerProcess(argv, work, tag)
    try:
        loops, _elapsed = pb_workloads.drive(server.port, loops_spec)
        health = server.health()
    finally:
        code = server.stop()
    if code not in (0, None):
        raise BenchError(f"{tag} server exited with {code}")
    calls = [call for loop in loops for call in loop.calls]
    problems, failed, latencies = pb_workloads.check_calls(
        calls, pb_workloads.References(), figures, random.Random(0)
    )
    outcome["problems"] += problems
    outcome["attempted"] += len(calls)
    outcome["failed"] += failed
    return health, latencies


def _load_spans(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _queue_waits(spans: list[dict]) -> list[float]:
    """Per cost request: time in `CostBatcher.evaluate` not spent in
    the batch evaluation that answered it."""
    batches = sorted(
        (s for s in spans if s["name"] == "service.state_batch"),
        key=lambda s: s["end"],
    )
    waits = []
    for span in spans:
        if span["name"] != "service.batcher_evaluate":
            continue
        served = [b for b in batches
                  if b["start"] >= span["start"] and b["end"] <= span["end"]]
        busy = (served[-1]["end"] - served[-1]["start"]) if served else 0.0
        waits.append((span["end"] - span["start"] - busy) * 1e3)
    return waits


def service_layers(seed: int, work: Path, outcome: dict) -> dict:
    cost_streams = [
        pb_workloads.cost_rounds(seed, f"client{c}", COST_ROUNDS)
        for c in range(2)
    ]
    _health, plain = _serve_phase(
        serve_argv(), work, "plain",
        [(stream, _fixed(COST_ROUNDS)) for stream in cost_streams], outcome,
    )
    spans_path = work / "spans-cost.json"
    health, traced = _serve_phase(
        _launcher_argv(spans_path), work, "traced",
        [(stream, _fixed(COST_ROUNDS)) for stream in cost_streams], outcome,
    )
    dump = _load_spans(spans_path)
    spans = dump["spans"]
    handlers = {s["id"]: s for s in spans
                if s["name"] == "service.handler" and s["path"] == "/v1/cost"}
    roots = set(handlers)

    def per_request(*names: str) -> float:
        return median(per_root_ms(spans, set(names), roots))

    cache = health["cache"]
    batcher = health["batcher"]
    engine = dump["engine_caches"][0] if dump["engine_caches"] else {}
    die_lookups = engine.get("die_cost_hits", 0) + engine.get(
        "die_cost_misses", 0)
    handler_ms = median(
        (s["end"] - s["start"]) * 1e3 for s in handlers.values()
    )
    metrics = {
        "service.handler_ms": handler_ms,
        "service.decode_ms": per_request("service.decode",
                                         "service.canonical"),
        "registry.hash_ms": median(durations_ms(spans,
                                                "registry.current_hash")),
        "service.cache_ms": per_request("service.cache_get",
                                        "service.cache_put"),
        "service.cache_hit_ratio": cache["hits"] / max(
            1, cache["hits"] + cache["misses"]),
        "service.queue_wait_ms": _mean(_queue_waits(spans)),
        "service.batch_size": batcher["batched_requests"] / max(
            1, batcher["batches"]),
        "explore.build_ms": median(durations_ms(spans,
                                                "explore.build_system")),
        "engine.evaluate_ms": median(durations_ms(spans,
                                                  "engine.evaluate_many")),
        "engine.die_cache_hit_ratio": (
            engine.get("die_cost_hits", 0) / die_lookups
            if die_lookups else 0.0
        ),
        "service.encode_ms": per_request("service.to_dict",
                                         "service.json_dumps"),
        "service.transport_ms": median(traced) - handler_ms,
        "trace.service_overhead_pct": 100.0 * (
            median(traced) / median(plain) - 1.0),
    }

    mixed_path = work / "spans-mixed.json"
    figures = pb_checks.figure_texts(pb_inputs.PAPER_FIGURES)
    _serve_phase(
        _launcher_argv(mixed_path), work, "mixed",
        [
            (pb_workloads.cost_rounds(seed, "client0", MIXED_COST_ROUNDS),
             _fixed(MIXED_COST_ROUNDS)),
            (pb_workloads.heavy_rounds(seed, MIXED_HEAVY_ROUNDS),
             _fixed(MIXED_HEAVY_ROUNDS)),
        ],
        outcome, figures,
    )
    mixed = _load_spans(mixed_path)["spans"]
    mixed_selfs = self_times_ms(mixed)
    metrics.update({
        "service.lock_wait_ms": _mean(
            mixed_selfs[s["id"]] for s in mixed
            if s["name"] == "service.state_batch"
        ),
        "service.search_ms": median(durations_ms(mixed,
                                                 "service.run_search")),
        "service.scenario_ms": median(durations_ms(mixed,
                                                   "service.run_scenario")),
    })
    return metrics


# ----------------------------------------------------------------------
# 5. exploration
# ----------------------------------------------------------------------

_SCENARIO_KINDS = {
    "figure": "scenario.figure_ms",
    "montecarlo": "scenario.montecarlo_ms",
    "reuse": "scenario.reuse_ms",
    "partition_sweep": "scenario.partition_ms",
    "partition_grid": "scenario.partition_ms",
    "search": "scenario.search_ms",
}


def explore_layers(seed: int, work: Path, outcome: dict) -> dict:
    config = pb_workloads.explore_config(
        seed, work, mode="trace", rotations=SESSION_ROTATIONS
    )
    session = pb_workloads.Session(config, work, "trace-session")
    if session.close("go", timeout=300) != "done":
        raise BenchError("traced exploration session failed")
    output = json.loads(Path(config["out"]).read_text(encoding="utf-8"))
    rotations = output["rotations"]
    outcome["attempted"] += 4 * len(rotations)
    reference = pb_checks.inline_corpus_payloads(
        str(pb_inputs.CORPUS_FILE), str(work / "reference-store")
    )
    outcome["problems"] += pb_workloads.check_rotations(
        rotations, reference,
        pb_checks.figure_texts(pb_inputs.PAPER_FIGURES), random.Random(seed),
    )
    untraced = [r for r in rotations if r["timed"] and not r["traced"]]
    traced = [r for r in rotations if r["traced"]]
    spans = output["spans"]
    selfs = self_times_ms(spans)

    def per_op(op: str, *names: str) -> float:
        roots = {s["id"] for s in spans if s["name"] == op}
        return median(per_root_ms(spans, set(names), roots))

    search_roots = {s["id"] for s in spans if s["name"] == "op.search"}
    evaluate_self = {root: 0.0 for root in search_roots}
    for span in spans:
        if span["name"] == "search.evaluate" and span["root"] in evaluate_self:
            evaluate_self[span["root"]] += selfs[span["id"]]
    pruned = [s for s in spans if s["name"] == "search.prune"]
    candidates = sum(r["search"]["n_candidates"] for r in traced)

    kinds: dict[str, list[float]] = {name: [] for name in
                                     set(_SCENARIO_KINDS.values())}
    kinds["scenario.other_ms"] = []
    for rotation in traced:
        per_kind = dict.fromkeys(kinds, 0.0)
        for kind, seconds in rotation["study_times"]:
            per_kind[_SCENARIO_KINDS.get(kind, "scenario.other_ms")] += (
                seconds * 1e3)
        for name, value in per_kind.items():
            kinds[name].append(value)

    corpus_ms = median(r["corpus_s"] * 1e3 for r in untraced)
    metrics = {
        "search.linearize_ms": per_op("op.search", "search.linearize"),
        "search.evaluate_ms": median(evaluate_self.values()),
        "search.prune_ms": per_op("op.search", "search.prune",
                                  "search.prune_merge"),
        "search.keep_ratio": sum(s["kept"] for s in pruned) / candidates,
        **{name: median(values) for name, values in kinds.items()},
        "corpus.execute_ms": per_op("op.inline_corpus", "corpus.execute"),
        "corpus.pool_overhead_ms": corpus_ms
        - output["inline_corpus_s"] * 1e3,
        "corpus.store_ms": sum(per_root_ms(
            spans, {"corpus.store_put", "corpus.store_load"},
            {s["id"] for s in spans
             if s["name"] in ("op.corpus", "op.resume")},
        )) / len(traced),
        "corpus.hash_ms": per_op("op.resume", "corpus.spec_hash"),
        "corpus.registry_hash_ms": per_op("op.resume",
                                          "corpus.registry_hash"),
        "explore.search_ms": median(r["search_s"] * 1e3 for r in untraced),
        "explore.scenario_ms": median(r["scenario_s"] * 1e3
                                      for r in untraced),
        "explore.corpus_ms": corpus_ms,
        "explore.resume_ms": median(r["resume_s"] * 1e3 for r in untraced),
        "trace.explore_overhead_pct": 100.0 * (
            median(pb_workloads.rotation_ms(r) for r in traced)
            / median(pb_workloads.rotation_ms(r) for r in untraced) - 1.0
        ),
    }
    return metrics


def run_suite(seed: int, seconds: float, work: Path) -> dict:
    """Every layer metric; ``seconds`` is unused (the suite is sized in
    operations)."""
    outcome = {"problems": [], "attempted": 0, "failed": 0}
    metrics: dict = {}
    metrics.update(cli_layer(seed, work, outcome))
    metrics.update(service_layers(seed, work, outcome))
    metrics.update(explore_layers(seed, work, outcome))
    outcome["metrics"] = {name: metrics[name] for name in UNITS}
    return outcome
