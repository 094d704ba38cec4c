"""Independent output checkers.

Each checker recomputes the expected answer apart from the timed path
and returns a list of problems (empty when the answer is right):

* cost answers (HTTP payloads and `repro cost` tables) against the
  engine-less `repro.service.state.evaluate_cost`, plus the paper's
  identities: the RE components sum to the RE total, the amortized NRE
  components to the NRE total, and total = RE + amortized NRE;
* search answers against every candidate of the space: the frontier is
  non-dominated and complete, the top-k are the k cheapest, and
  spot-checked candidates equal `repro.search.oracle.oracle_candidate`;
* figure studies against direct `repro.experiments` harness calls;
* corpus runs: the resume computes zero units, and the store holds
  what an inline run stores.

`test_pb_checks.py` shows each checker rejecting a perturbed answer.
"""

from __future__ import annotations

import math
import random
from typing import Any, Mapping, Sequence

REL_TOL = 1e-12


# ----------------------------------------------------------------------
# cost
# ----------------------------------------------------------------------


def reference_cost(point: Mapping[str, Any]) -> dict:
    """The engine-less answer for one design point (what `repro cost`
    computes without a warm engine)."""
    from repro.service.schemas import CostRequest
    from repro.service.state import evaluate_cost

    return evaluate_cost(CostRequest.from_dict(dict(point))).to_dict()


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-9)


def check_cost_identities(result: Mapping[str, Any]) -> list[str]:
    """RE parts sum to RE total, NRE parts to NRE total, and
    total = RE + amortized NRE."""
    problems = []
    values = [result["re_total"], result["nre_total"], result["total"],
              *result["re"].values(), *result["nre"].values()]
    if not all(math.isfinite(value) for value in values):
        problems.append(f"non-finite cost in {result.get('system')!r}")
        return problems
    if not _close(math.fsum(result["re"].values()), result["re_total"]):
        problems.append(
            f"{result['system']}: RE components sum to "
            f"{math.fsum(result['re'].values())!r}, RE total is "
            f"{result['re_total']!r}"
        )
    if not _close(math.fsum(result["nre"].values()), result["nre_total"]):
        problems.append(
            f"{result['system']}: NRE components do not sum to the NRE total"
        )
    if not _close(result["re_total"] + result["nre_total"], result["total"]):
        problems.append(
            f"{result['system']}: total {result['total']!r} != RE "
            f"{result['re_total']!r} + NRE {result['nre_total']!r}"
        )
    return problems


def check_cost_payload(
    payload: Mapping[str, Any], reference: Mapping[str, Any]
) -> list[str]:
    """One `POST /v1/cost` 200 body against the reference result."""
    result = payload.get("result")
    if not isinstance(result, Mapping):
        return [f"cost response has no result: {payload!r:.200}"]
    problems = check_cost_identities(result)
    if dict(result) != dict(reference):
        problems.append(
            f"{reference['system']}: service answer differs from the "
            f"engine-less reference ({result.get('total')!r} vs "
            f"{reference['total']!r})"
        )
    return problems


def cost_table_text(reference: Mapping[str, Any]) -> str:
    """The exact `repro cost` stdout for a reference result."""
    from repro.service.schemas import CostResult, cost_table

    return cost_table(CostResult.from_dict(dict(reference))).render() + "\n"


def check_cli_output(stdout: str, reference: Mapping[str, Any]) -> list[str]:
    """One `repro cost` table against the reference result."""
    problems = check_cost_identities(reference)
    if stdout != cost_table_text(reference):
        problems.append(
            f"{reference['system']}: CLI table differs from the reference"
        )
    return problems


def cli_typed_error(returncode: int, stderr: str) -> bool:
    """A planted bad input succeeds only as a typed CLI error."""
    return returncode == 2 and stderr.startswith("error:")


def http_typed_error(status: int, body: bytes) -> bool:
    """A planted bad input succeeds only as a typed HTTP 400."""
    import json

    if status != 400:
        return False
    try:
        error = json.loads(body)["error"]
    except (ValueError, KeyError, TypeError):
        return False
    return isinstance(error, Mapping) and bool(error.get("type"))


# ----------------------------------------------------------------------
# search
# ----------------------------------------------------------------------

_ROW_METRICS = ("re", "nre", "total", "silicon_area", "footprint")


def space_columns(space_doc: Mapping[str, Any]) -> dict:
    """Every candidate's metrics, by canonical index, as numpy columns."""
    import numpy as np

    from repro.search.evaluate import SpaceEvaluator
    from repro.search.space import space_from_dict

    space = space_from_dict(dict(space_doc))
    columns = {
        name: np.full(space.n_candidates, np.nan) for name in _ROW_METRICS
    }
    for block in SpaceEvaluator(space).blocks():
        stop = block.start + len(block)
        for name in _ROW_METRICS:
            columns[name][block.start:stop] = block.metrics[name]
    return columns


def check_search(
    space_doc: Mapping[str, Any],
    n_candidates: int,
    rows: Sequence[Mapping[str, Any]],
    columns: Mapping[str, Any],
    spot_checks: int = 3,
    rng: random.Random | None = None,
) -> list[str]:
    """A search answer (`candidate_rows` records) against all candidates."""
    import numpy as np

    from repro.search.oracle import oracle_candidate
    from repro.search.space import space_from_dict

    space = space_from_dict(dict(space_doc))
    problems: list[str] = []
    total_count = len(columns["total"])
    if n_candidates != space.n_candidates or total_count != n_candidates:
        problems.append(
            f"search saw {n_candidates} candidates, the space has "
            f"{space.n_candidates}"
        )
        return problems
    frontier = [row for row in rows if row["set"] == "frontier"]
    top = [row for row in rows if row["set"] == "top"]
    for row in frontier + top:
        index = row["index"]
        for name in _ROW_METRICS:
            if row[name] != float(columns[name][index]):
                problems.append(
                    f"candidate {index}: {name} {row[name]!r} != "
                    f"{float(columns[name][index])!r}"
                )
    if problems:
        return problems
    objectives = list(space.objectives)
    scores = np.stack([columns[name] for name in objectives], axis=1)
    indices = [row["index"] for row in frontier]
    if not indices or indices != sorted(set(indices)):
        problems.append(f"frontier indices not unique ascending: {indices}")
        return problems
    members = scores[indices]
    for index, member in zip(indices, members):
        dominated = np.all(scores <= member, axis=1) & np.any(
            scores < member, axis=1
        )
        if dominated.any():
            problems.append(
                f"frontier member {index} is dominated by candidate "
                f"{int(np.flatnonzero(dominated)[0])}"
            )
    outside = np.ones(total_count, dtype=bool)
    outside[indices] = False
    covered = np.zeros(total_count, dtype=bool)
    for member in members:
        covered |= np.all(member <= scores, axis=1) & np.any(
            member < scores, axis=1
        )
    missing = np.flatnonzero(outside & ~covered)
    if missing.size:
        problems.append(
            f"{missing.size} candidates (first {int(missing[0])}) are "
            "non-dominated but missing from the frontier"
        )
    order = np.lexsort((np.arange(total_count), columns["total"]))
    expected_top = order[: space.top_k].tolist()
    if [row["index"] for row in top] != expected_top:
        problems.append(
            f"top-{space.top_k} is {[row['index'] for row in top]}, "
            f"expected {expected_top}"
        )
    rng = rng or random.Random(0)
    sample = sorted(set(indices[:spot_checks]) | {
        rng.randrange(total_count) for _ in range(spot_checks)
    })
    for index in sample:
        oracle = oracle_candidate(space, index)
        for name in _ROW_METRICS:
            # To 1e-12, not bit for bit: the vectorized evaluator is one
            # ulp off the oracle on rare candidates (e.g. the SoC at
            # index 132 of the 26,400-candidate service space), a
            # parity fault recorded in CHANGES.md, not a wrong price.
            if not _close(getattr(oracle, name),
                          float(columns[name][index])):
                problems.append(
                    f"candidate {index}: {name} differs from the oracle"
                )
    return problems


# ----------------------------------------------------------------------
# scenario
# ----------------------------------------------------------------------


def figure_texts(figures: Sequence[int]) -> dict[int, str]:
    """Each paper figure rendered from a direct harness call."""
    from repro import experiments
    from repro.experiments import printers

    renderers = {
        2: printers.render_fig2,
        4: lambda panels: "\n".join(
            printers.render_fig4_panel(panel) + "\n" for panel in panels
        ),
        5: printers.render_fig5,
        6: printers.render_fig6,
        8: printers.render_fig8,
        9: printers.render_fig9,
        10: printers.render_fig10,
    }
    return {
        figure: renderers[figure](getattr(experiments, f"run_fig{figure}")())
        for figure in figures
    }


def check_scenario(
    document: Mapping[str, Any],
    studies: Sequence[Mapping[str, Any]],
    expected_figures: Mapping[int, str],
) -> list[str]:
    """Study summaries (name, kind, text) of a scenario run: every
    study answered in order, every paper figure equal to its harness."""
    problems = []
    wanted = [(study["name"], study["kind"]) for study in document["studies"]]
    got = [(study["name"], study["kind"]) for study in studies]
    if wanted != got:
        return [f"scenario studies {got} != document studies {wanted}"]
    for spec, study in zip(document["studies"], studies):
        if not study["text"]:
            problems.append(f"study {study['name']} has no output")
        if spec["kind"] == "figure" and not spec.get("params"):
            if study["text"] != expected_figures[spec["figure"]]:
                problems.append(
                    f"figure {spec['figure']} differs from the harness"
                )
    return problems


# ----------------------------------------------------------------------
# corpus
# ----------------------------------------------------------------------


def inline_corpus_payloads(corpus_file: str, store_root: str) -> dict:
    """Run the corpus inline (no worker pool) into a fresh store and
    return every stored payload by unit id."""
    from repro.corpus import CorpusOptions, load_corpus, run_corpus

    corpus = load_corpus(corpus_file)
    report = run_corpus(corpus, store_root, options=CorpusOptions(inline=True))
    if report.exit_code != 0:
        raise RuntimeError(f"inline reference corpus run failed: {report}")
    return stored_payloads(corpus, store_root)


def stored_payloads(corpus: Any, store_root: str) -> dict:
    from repro.corpus.hashing import registry_hash
    from repro.corpus.store import ResultStore, StoreKey

    store = ResultStore(store_root)
    digest = registry_hash()
    return {
        unit.unit_id: store.load(StoreKey(unit.spec_hash, digest))
        for unit in corpus.units
    }


def check_corpus(
    run_counts: Mapping[str, int],
    resume_counts: Mapping[str, int],
    payloads: Mapping[str, Any],
    reference: Mapping[str, Any],
) -> list[str]:
    """A pooled corpus run and its resume against an inline run."""
    problems = []
    units = len(reference)
    if run_counts.get("completed") != units or run_counts.get("failed"):
        problems.append(f"corpus run counts {dict(run_counts)}")
    if run_counts.get("computed") != units:
        problems.append(
            f"fresh-store run computed {run_counts.get('computed')} of "
            f"{units} units"
        )
    if resume_counts.get("computed") != 0:
        problems.append(
            f"resume recomputed {resume_counts.get('computed')} units"
        )
    if resume_counts.get("from_store") != units:
        problems.append(f"resume counts {dict(resume_counts)}")
    if dict(payloads) != dict(reference):
        differing = sorted(
            unit for unit in reference if payloads.get(unit) != reference[unit]
        )
        problems.append(f"stored results differ from inline: {differing[:3]}")
    return problems
