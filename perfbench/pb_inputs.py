"""Seeded inputs of every workload.

The same ``--seed`` gives the same inputs.  Nothing here imports the
program, so inputs are plain JSON-ready values and argv lists; the
benchmark builds them before any timing starts.

Design points are drawn over the domain where the model prices every
point: module area 50-900 mm^2, 2-8 chiplets, the twelve catalog nodes,
SoC and the three multi-chip integrations, D2D share 5-15 % and three
production volumes.  Heavier inputs such as ``chiplets=100000`` are
left out on purpose: they spend seconds and then fail, which would stall
every run (see README.md).
"""

from __future__ import annotations

import json
import random

from pb_common import EXAMPLES

NODES = (
    "3nm", "5nm", "7nm", "10nm", "12nm", "14nm", "16nm",
    "22nm", "28nm", "40nm", "65nm", "90nm",
)
INTEGRATIONS = ("soc", "mcm", "info", "2.5d")
D2D_FRACTIONS = (0.05, 0.10, 0.15)
QUANTITIES = (100_000.0, 500_000.0, 2_000_000.0)

#: Operations per round, in every workload.  Each round holds exactly
#: one planted non-finite input (``area`` NaN), so failed/attempted is
#: exactly 1/ROUND in every run while the program lets NaN through.
ROUND = 10
#: A cost round: fresh distinct points, repeats of earlier points of
#: the same round (response-cache hits), and the NaN.
COST_FRESH = 7
COST_REPEATS = 2

#: The planted HTTP input: the JSON literal NaN, which `json.loads`
#: accepts.
NAN_BODY = (
    b'{"area": NaN, "node": "7nm", "integration": "mcm", "chiplets": 4}'
)
NAN_ARGV = ["cost", "--area", "nan", "--node", "7nm",
            "--integration", "mcm", "--chiplets", "4"]


def cost_point(rng: random.Random) -> dict:
    """One valid `CostRequest` payload."""
    return {
        "area": round(rng.uniform(50.0, 900.0), 3),
        "node": rng.choice(NODES),
        "integration": rng.choice(INTEGRATIONS),
        "chiplets": rng.randint(2, 8),
        "d2d_fraction": rng.choice(D2D_FRACTIONS),
        "quantity": rng.choice(QUANTITIES),
    }


def point_key(point: dict) -> str:
    return json.dumps(point, sort_keys=True)


def cli_argv(point: dict) -> list[str]:
    """`repro cost` flags describing ``point``."""
    return [
        "cost",
        "--area", repr(point["area"]),
        "--node", point["node"],
        "--integration", point["integration"],
        "--chiplets", str(point["chiplets"]),
        "--d2d", repr(point["d2d_fraction"]),
        "--quantity", repr(point["quantity"]),
    ]


class PointSource:
    """Distinct design points from one seeded stream."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.seen: set[str] = set()

    def fresh(self) -> dict:
        while True:
            point = cost_point(self.rng)
            key = point_key(point)
            if key not in self.seen:
                self.seen.add(key)
                return point


def cost_round(source: PointSource, rng: random.Random) -> list:
    """One round of cost operations: COST_FRESH distinct new points,
    COST_REPEATS repeats of earlier points of the same round (response-
    cache hits once the first copy is answered) and one NaN (``None``).
    """
    ops: list = [source.fresh() for _ in range(COST_FRESH)]
    for _ in range(COST_REPEATS):
        source_at = rng.randrange(len(ops) - 1)
        ops.insert(rng.randint(source_at + 1, len(ops)), ops[source_at])
    ops.insert(rng.randint(0, len(ops)), None)
    return ops


def cost_stream(seed: int, tag: str, rounds: int) -> list[list]:
    """``rounds`` cost rounds for one client."""
    rng = random.Random(f"{seed}:{tag}")
    source = PointSource(rng)
    return [cost_round(source, rng) for _ in range(rounds)]


def cost_body(op) -> bytes:
    return NAN_BODY if op is None else json.dumps(op).encode("utf-8")


def cli_rounds(seed: int, rounds: int) -> list[list]:
    """Cold-CLI rounds: ROUND - 1 distinct points and one NaN."""
    rng = random.Random(f"{seed}:cli")
    source = PointSource(rng)
    result = []
    for _ in range(rounds):
        ops: list = [source.fresh() for _ in range(ROUND - 1)]
        ops.insert(rng.randint(0, len(ops)), None)
        result.append(ops)
    return result


# ----------------------------------------------------------------------
# exploration inputs
# ----------------------------------------------------------------------


def search_space(n_areas: int, quantity: float) -> dict:
    """A `DesignSpace` document: ``n_areas`` module areas x 12 nodes x
    (2 technologies x 5 chiplet counts + the SoC reference)."""
    return {
        "module_areas": [
            100.0 + 600.0 * index / (n_areas - 1) for index in range(n_areas)
        ],
        "nodes": list(NODES),
        "technologies": ["mcm", "2.5d"],
        "chiplet_counts": [2, 3, 4, 5, 6],
        "d2d_fractions": [0.1],
        "quantity": quantity,
        "objectives": ["total", "footprint"],
        "top_k": 10,
    }


#: 800 areas -> 105,600 candidates (the explore search);
#: 200 areas -> 26,400 candidates (the serve-mixed search).
EXPLORE_SEARCH_AREAS = 800
SERVICE_SEARCH_AREAS = 200

#: The seven paper figures, priced at their published parameters.
PAPER_FIGURES = (2, 4, 5, 6, 8, 9, 10)


def scenario_document(montecarlo_seed: int) -> dict:
    """The exploration scenario: every study of
    `examples/scenario_custom_tech.json` (partition sweep and grid,
    systems, Monte Carlo, Pareto, sensitivity, reuse, a custom Fig. 2),
    the seven paper figures, and the search study of
    `examples/scenario_search.json`.  The Monte-Carlo seed is the
    per-request variation."""
    with open(EXAMPLES / "scenario_custom_tech.json", encoding="utf-8") as fh:
        document = json.load(fh)
    with open(EXAMPLES / "scenario_search.json", encoding="utf-8") as fh:
        search_doc = json.load(fh)
    document["scenario"] = "perfbench-exploration"
    for study in document["studies"]:
        if study["kind"] == "montecarlo":
            study["seed"] = montecarlo_seed
    document["studies"].extend(
        {"kind": "figure", "name": f"fig{figure}", "figure": figure}
        for figure in PAPER_FIGURES
    )
    document["studies"].append(
        next(s for s in search_doc["studies"] if s["name"] == "scheme-frontier")
    )
    return document


def volumes(seed: int, tag: str, count: int) -> list[float]:
    """``count`` distinct seeded production volumes."""
    rng = random.Random(f"{seed}:{tag}")
    chosen: list[float] = []
    while len(chosen) < count:
        value = float(rng.randrange(50_000, 5_000_000, 1_000))
        if value not in chosen:
            chosen.append(value)
    return chosen


def montecarlo_seeds(seed: int, tag: str, count: int) -> list[int]:
    rng = random.Random(f"{seed}:{tag}")
    return rng.sample(range(1, 1_000_000), count)


CORPUS_FILE = EXAMPLES / "corpus_granularity.json"
