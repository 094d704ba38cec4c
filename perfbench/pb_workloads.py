"""The four workloads, untraced.  Each returns

    {"correct", "attempted", "failed", "metrics": {name: value}}

with every end-to-end metric.  A run attempts whole rounds until the
run length has passed (and at least a minimum number of rounds), so
the planted failures are exactly one operation in ``ROUND``.
"""

from __future__ import annotations

import json
import random
import resource
import subprocess
import sys
import threading
import time
from pathlib import Path

import pb_checks
import pb_inputs
from pb_common import (
    BenchError,
    Client,
    ROOT,
    child_env,
    launch_servers,
    median,
    p90,
    serve_argv,
)
from pb_inputs import ROUND

#: Launches per run whose median start-up is `setup_s`.
SETUP_LAUNCHES = 5
#: Fewest rounds a run attempts, whatever the run length.
MIN_ROUNDS = 2


def _summary(setup_s, ops_per_s, latency_ms, rss_mb) -> dict:
    return {
        "setup_s": setup_s,
        "ops_per_s": ops_per_s,
        "latency_ms": latency_ms,
        "rss_mb": rss_mb,
    }


class References:
    """Engine-less reference answers, memoized by design point."""

    def __init__(self) -> None:
        self._cache: dict[str, dict] = {}

    def cost(self, point: dict) -> dict:
        key = pb_inputs.point_key(point)
        if key not in self._cache:
            self._cache[key] = pb_checks.reference_cost(point)
        return self._cache[key]


# ----------------------------------------------------------------------
# cold-cost
# ----------------------------------------------------------------------


def cold_cost(seed: int, seconds: float, work: Path) -> dict:
    env = child_env(work)
    setup = []
    for _ in range(SETUP_LAUNCHES):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import repro.cli"],
            cwd=ROOT, env=env, check=True, timeout=120,
        )
        setup.append(time.perf_counter() - start)

    rounds = pb_inputs.cli_rounds(seed, int(seconds * 10) // ROUND + 5)
    calls = []
    started = time.perf_counter()
    for done, ops in enumerate(rounds, start=1):
        for op in ops:
            argv = pb_inputs.NAN_ARGV if op is None else pb_inputs.cli_argv(op)
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "repro", *argv], cwd=ROOT, env=env,
                capture_output=True, text=True, timeout=120,
            )
            calls.append((op, proc, time.perf_counter() - start))
        if time.perf_counter() - started >= seconds and done >= MIN_ROUNDS:
            break
    elapsed = time.perf_counter() - started
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    references = References()
    problems, failed, latencies = [], 0, []
    for op, proc, seconds_taken in calls:
        if op is None:
            if not pb_checks.cli_typed_error(proc.returncode, proc.stderr):
                failed += 1
            continue
        if proc.returncode != 0:
            failed += 1
            continue
        problems += pb_checks.check_cli_output(
            proc.stdout, references.cost(op)
        )
        latencies.append(seconds_taken * 1e3)
    return {
        "problems": problems,
        "attempted": len(calls),
        "failed": failed,
        "metrics": _summary(
            median(setup), len(calls) / elapsed, median(latencies), rss_mb
        ),
    }


# ----------------------------------------------------------------------
# serve-cost and serve-mixed
# ----------------------------------------------------------------------


class _Loop(threading.Thread):
    """One closed-loop client on one persistent connection, attempting
    whole rounds of (path, body, op) until ``keep_going()`` says stop."""

    def __init__(self, port, barrier, rounds, keep_going, done=None):
        super().__init__(daemon=True)
        self.port = port
        self.barrier = barrier
        self.rounds = rounds
        self.keep_going = keep_going
        self.done = done
        self.calls: list = []
        self.error: BaseException | None = None

    def run(self) -> None:
        client = Client(self.port)
        try:
            self.barrier.wait()
            for ops in self.rounds:
                for path, body, op in ops:
                    status, data, seconds = client.post(path, body)
                    self.calls.append((path, op, status, data, seconds))
                if not self.keep_going():
                    break
        except BaseException as error:  # noqa: BLE001 - reported by caller
            self.error = error
        finally:
            client.close()
            if self.done is not None:
                self.done.set()


def cost_rounds(seed: int, tag: str, rounds: int) -> list:
    """Cost rounds as (path, body, op) triples."""
    return [
        [("/v1/cost", pb_inputs.cost_body(op), op) for op in ops]
        for ops in pb_inputs.cost_stream(seed, tag, rounds)
    ]


def heavy_rounds(seed: int, rounds: int) -> list:
    """serve-mixed's second client: rounds of four searches and four
    scenario runs, alternating, then one cost request and one NaN.
    Every search and scenario body is distinct (no cache hits)."""
    count = 4 * rounds
    vols = pb_inputs.volumes(seed, "mixed-search", count)
    seeds = pb_inputs.montecarlo_seeds(seed, "mixed-scenario", count)
    extra = pb_inputs.cost_stream(seed, "mixed-extra", rounds)
    result = []
    for index in range(rounds):
        ops = []
        for k in range(4 * index, 4 * index + 4):
            space = pb_inputs.search_space(
                pb_inputs.SERVICE_SEARCH_AREAS, vols[k]
            )
            document = pb_inputs.scenario_document(seeds[k])
            ops.append(("/v1/search",
                        json.dumps({"space": space}).encode(), space))
            ops.append(("/v1/scenario",
                        json.dumps({"scenario": document}).encode(),
                        document))
        point = next(op for op in extra[index] if op is not None)
        ops.append(("/v1/cost", pb_inputs.cost_body(point), point))
        ops.append(("/v1/cost", pb_inputs.NAN_BODY, None))
        result.append(ops)
    return result


def check_calls(calls, references: References, figures=None, rng=None):
    """Check every answer; returns (problems, failed, cost latencies ms)."""
    problems, failed, latencies = [], 0, []
    for path, op, status, data, seconds in calls:
        if path == "/v1/cost" and op is None:
            if not pb_checks.http_typed_error(status, data):
                failed += 1
            continue
        if status != 200:
            failed += 1
            continue
        payload = json.loads(data)
        if path == "/v1/cost":
            problems += pb_checks.check_cost_payload(
                payload, references.cost(op)
            )
            latencies.append(seconds * 1e3)
        elif path == "/v1/search":
            result = payload["result"]
            problems += pb_checks.check_search(
                op, result["n_candidates"], result["rows"],
                pb_checks.space_columns(op), rng=rng,
            )
        else:
            problems += pb_checks.check_scenario(
                op, payload["result"]["studies"], figures
            )
    return problems, failed, latencies


def drive(port: int, loops_spec: list) -> tuple[list, float]:
    """Run the client loops together; returns (loops, seconds).  Each
    spec is (rounds, keep_going) or (rounds, keep_going, done event)."""
    barrier = threading.Barrier(len(loops_spec) + 1)
    loops = [_Loop(port, barrier, *spec) for spec in loops_spec]
    for loop in loops:
        loop.start()
    barrier.wait()
    started = time.perf_counter()
    for loop in loops:
        loop.join(timeout=600)
    elapsed = time.perf_counter() - started
    for loop in loops:
        if loop.is_alive() or loop.error is not None:
            raise BenchError(f"client loop failed: {loop.error!r}")
    return loops, elapsed


def _rounds_for(seconds: float, per_second: float) -> int:
    """Rounds to pre-generate: more than a run can use."""
    return int(seconds * per_second / ROUND) + MIN_ROUNDS + 2


def serve_cost(seed: int, seconds: float, work: Path) -> dict:
    setup_s, server = launch_servers(serve_argv(), work, SETUP_LAUNCHES,
                                     "serve")
    try:
        streams = [cost_rounds(seed, f"client{c}", _rounds_for(seconds, 500))
                   for c in range(2)]

        def counter():
            state = {"rounds": 0}

            def keep_going() -> bool:
                state["rounds"] += 1
                return (time.perf_counter() < deadline
                        or state["rounds"] < MIN_ROUNDS)
            return keep_going

        deadline = time.perf_counter() + seconds
        loops, elapsed = drive(
            server.port, [(stream, counter()) for stream in streams]
        )
        rss_mb = server.peak_rss_mb()
    finally:
        server.stop()
    calls = [call for loop in loops for call in loop.calls]
    problems, failed, latencies = check_calls(calls, References())
    return {
        "problems": problems,
        "attempted": len(calls),
        "failed": failed,
        "metrics": _summary(setup_s, len(calls) / elapsed,
                            median(latencies), rss_mb),
    }


def serve_mixed(seed: int, seconds: float, work: Path) -> dict:
    setup_s, server = launch_servers(serve_argv(), work, SETUP_LAUNCHES,
                                     "mixed")
    try:
        costs = cost_rounds(seed, "client0", _rounds_for(seconds, 500))
        heavy = heavy_rounds(seed, _rounds_for(seconds, 20))
        heavy_done = threading.Event()
        state = {"heavy": 0, "cost": 0}

        def heavy_keep_going() -> bool:
            state["heavy"] += 1
            return (time.perf_counter() < deadline
                    or state["heavy"] < MIN_ROUNDS)

        def cost_keep_going() -> bool:
            # The cost client stops at its first round boundary after
            # the heavy client has stopped, so its samples all overlap
            # heavy traffic but for at most one round.
            state["cost"] += 1
            return not heavy_done.is_set() or state["cost"] < MIN_ROUNDS

        deadline = time.perf_counter() + seconds
        loops, elapsed = drive(
            server.port,
            [(costs, cost_keep_going),
             (heavy, heavy_keep_going, heavy_done)],
        )
        rss_mb = server.peak_rss_mb()
    finally:
        server.stop()
    calls = [call for loop in loops for call in loop.calls]
    figures = pb_checks.figure_texts(pb_inputs.PAPER_FIGURES)
    problems, failed, latencies = check_calls(
        calls, References(), figures, random.Random(seed)
    )
    return {
        "problems": problems,
        "attempted": len(calls),
        "failed": failed,
        "metrics": _summary(setup_s, len(calls) / elapsed,
                            p90(latencies), rss_mb),
    }


# ----------------------------------------------------------------------
# explore
# ----------------------------------------------------------------------


class Session:
    """The exploration library session process."""

    def __init__(self, config: dict, work: Path, tag: str):
        path = work / f"{tag}.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        self.log = open(work / f"{tag}.stderr", "wb")
        start = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("pb_session.py")),
             str(path)],
            cwd=ROOT, env=child_env(work), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=self.log, text=True,
        )
        line = self.process.stdout.readline()
        self.startup_s = time.perf_counter() - start
        if line.strip() != "ready":
            self.close("exit")
            raise BenchError(f"session did not start; see {self.log.name}")

    def close(self, command: str, timeout: float = 60.0) -> str:
        """Send ``command`` ("go" or "exit"); wait for the process."""
        try:
            self.process.stdin.write(command + "\n")
            self.process.stdin.close()
            line = self.process.stdout.readline()
            self.process.wait(timeout=timeout)
        except (OSError, subprocess.TimeoutExpired):
            self.process.kill()
            self.process.wait()
            line = ""
        finally:
            self.process.stdout.close()
            self.log.close()
        return line.strip()


def launch_sessions(config: dict, work: Path, launches: int):
    times, session = [], None
    for index in range(launches):
        if session is not None:
            session.close("exit")
        session = Session(config, work, f"session-{index}")
        times.append(session.startup_s)
    return median(times), session


def explore_config(seed: int, work: Path, **extra) -> dict:
    return {
        "work": str(work),
        "volumes": pb_inputs.volumes(seed, "explore", 3),
        "mc_seeds": pb_inputs.montecarlo_seeds(seed, "explore", 3),
        "out": str(work / "session-out.json"),
        **extra,
    }


def check_rotations(rotations: list, reference_corpus: dict, figures: dict,
                    rng: random.Random) -> list[str]:
    """Check every rotation's answers.  Search and scenario answers get
    the full check the first time their input comes round; later answers
    to the same input must repeat the checked one exactly."""
    problems: list[str] = []
    checked: dict = {}
    for rotation in rotations:
        search, scenario = rotation["search"], rotation["scenario"]
        first = checked.setdefault(rotation["input"], (search, scenario))
        if first[0] is search:
            problems += pb_checks.check_search(
                search["space"], search["n_candidates"], search["rows"],
                pb_checks.space_columns(search["space"]), rng=rng,
            )
            problems += pb_checks.check_scenario(
                scenario["document"], scenario["studies"], figures
            )
        elif (search, scenario) != first:
            problems.append(
                f"rotation {rotation['index']}: answers differ from the "
                "checked answers to the same input"
            )
        corpus = rotation["corpus"]
        problems += pb_checks.check_corpus(
            corpus["run"], corpus["resume"], corpus["payloads"],
            reference_corpus,
        )
    return problems


def rotation_ms(rotation: dict) -> float:
    return 1e3 * (rotation["search_s"] + rotation["scenario_s"]
                  + rotation["corpus_s"] + rotation["resume_s"])


def explore(seed: int, seconds: float, work: Path) -> dict:
    config = explore_config(seed, work, mode="measure", seconds=seconds,
                            min_rotations=MIN_ROUNDS)
    setup_s, session = launch_sessions(config, work, SETUP_LAUNCHES)
    if session.close("go", timeout=seconds + 150) != "done":
        raise BenchError("exploration session failed; see its stderr log")
    output = json.loads(Path(config["out"]).read_text(encoding="utf-8"))
    rotations = output["rotations"]
    timed = [rotation for rotation in rotations if rotation["timed"]]

    reference = pb_checks.inline_corpus_payloads(
        str(pb_inputs.CORPUS_FILE), str(work / "reference-store")
    )
    figures = pb_checks.figure_texts(pb_inputs.PAPER_FIGURES)
    problems = check_rotations(rotations, reference, figures,
                               random.Random(seed))
    return {
        "problems": problems,
        "attempted": 4 * len(rotations),
        "failed": 0,
        "metrics": _summary(
            setup_s, len(timed) / output["measured_s"],
            median(rotation_ms(rotation) for rotation in timed),
            output["rss_kb"] / 1024.0,
        ),
    }


WORKLOADS = {
    "cold-cost": cold_cost,
    "serve-cost": serve_cost,
    "serve-mixed": serve_mixed,
    "explore": explore,
}
