"""Each output checker accepts the right answer and rejects a perturbed one.

    PYTHONPATH=src python -m pytest perfbench/test_pb_checks.py -q
"""

from __future__ import annotations

import copy
import json
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import pb_checks  # noqa: E402
import pb_inputs  # noqa: E402

POINT = {"area": 412.5, "node": "5nm", "integration": "2.5d", "chiplets": 4,
         "d2d_fraction": 0.1, "quantity": 500_000.0}

SPACE = {
    "module_areas": [600.0], "nodes": ["5nm", "7nm", "14nm"],
    "technologies": ["mcm", "info", "2.5d"], "chiplet_counts": [2, 3, 4, 5],
    "quantity": 500_000.0, "objectives": ["re", "footprint"], "top_k": 5,
}


@pytest.fixture(scope="module")
def reference():
    return pb_checks.reference_cost(POINT)


# -- cost ---------------------------------------------------------------


def test_cost_payload_accepts_reference(reference):
    assert pb_checks.check_cost_payload({"result": reference}, reference) == []


def test_cost_payload_rejects_perturbed_total(reference):
    wrong = copy.deepcopy(reference)
    wrong["total"] *= 1 + 1e-9
    assert pb_checks.check_cost_payload({"result": wrong}, reference)


def test_cost_identities_reject_component_that_breaks_the_sum(reference):
    wrong = copy.deepcopy(reference)
    wrong["re"]["wasted_kgd"] += 0.5
    assert pb_checks.check_cost_identities(wrong)


def test_cost_identities_reject_total_not_re_plus_nre(reference):
    wrong = copy.deepcopy(reference)
    wrong["nre_total"] += 1.0
    wrong["nre"]["chips"] += 1.0
    assert pb_checks.check_cost_identities(wrong)


def test_cli_table_accepts_reference_and_rejects_changed_digit(reference):
    table = pb_checks.cost_table_text(reference)
    assert pb_checks.check_cli_output(table, reference) == []
    digit = table[-2]
    changed = table[:-2] + ("1" if digit == "0" else "0") + "\n"
    assert pb_checks.check_cli_output(changed, reference)


def test_typed_error_rules():
    assert pb_checks.cli_typed_error(2, "error: area must be finite\n")
    assert not pb_checks.cli_typed_error(1, "Traceback (most recent call")
    assert pb_checks.http_typed_error(
        400, json.dumps({"error": {"type": "InvalidParameterError",
                                   "message": "area"}}).encode())
    assert not pb_checks.http_typed_error(
        500, json.dumps({"error": {"type": "ValueError",
                                   "message": "nan"}}).encode())


# -- search -------------------------------------------------------------


@pytest.fixture(scope="module")
def search_answer():
    from repro.search.engine import candidate_rows, run_search
    from repro.search.space import space_from_dict

    result = run_search(space_from_dict(SPACE))
    return result.n_candidates, candidate_rows(result)


def _check(rows, n_candidates, columns=None):
    columns = columns or pb_checks.space_columns(SPACE)
    return pb_checks.check_search(SPACE, n_candidates, rows, columns,
                                  rng=random.Random(1))


def test_search_accepts_the_answer(search_answer):
    n_candidates, rows = search_answer
    assert len([r for r in rows if r["set"] == "frontier"]) > 1
    assert _check(rows, n_candidates) == []


def test_search_rejects_missing_frontier_member(search_answer):
    n_candidates, rows = search_answer
    frontier = [r for r in rows if r["set"] == "frontier"]
    wrong = [r for r in rows if r is not frontier[1]]
    assert any("missing from the frontier" in p
               for p in _check(wrong, n_candidates))


def test_search_rejects_dominated_frontier_member(search_answer):
    n_candidates, rows = search_answer
    columns = pb_checks.space_columns(SPACE)
    frontier = {r["index"] for r in rows if r["set"] == "frontier"}
    intruder = next(i for i in range(n_candidates) if i not in frontier)
    row = {"set": "frontier", "index": intruder,
           **{name: float(columns[name][intruder])
              for name in ("re", "nre", "total", "silicon_area",
                           "footprint")}}
    wrong = sorted([*rows, row], key=lambda r: (r["set"], r["index"]))
    assert any("is dominated" in p for p in _check(wrong, n_candidates))


def test_search_rejects_changed_metric(search_answer):
    n_candidates, rows = search_answer
    wrong = copy.deepcopy(rows)
    wrong[0]["re"] *= 1.001
    assert _check(wrong, n_candidates)


def test_search_rejects_wrong_top_k(search_answer):
    n_candidates, rows = search_answer
    wrong = copy.deepcopy(rows)
    top = [r for r in wrong if r["set"] == "top"]
    top[0]["index"], top[1]["index"] = top[1]["index"], top[0]["index"]
    for row in top[:2]:
        for name in ("re", "nre", "total", "silicon_area", "footprint"):
            row[name] = float(
                pb_checks.space_columns(SPACE)[name][row["index"]])
    assert any("top-" in p for p in _check(wrong, n_candidates))


def test_search_spot_check_rejects_value_the_oracle_disagrees_with(
    search_answer,
):
    n_candidates, rows = search_answer
    columns = pb_checks.space_columns(SPACE)
    first = next(r for r in rows if r["set"] == "frontier")
    columns["nre"][first["index"]] *= 1.01
    wrong = copy.deepcopy(rows)
    for row in wrong:
        if row["index"] == first["index"]:
            row["nre"] = float(columns["nre"][first["index"]])
    assert any("oracle" in p for p in _check(wrong, n_candidates, columns))


# -- scenario -----------------------------------------------------------


def test_scenario_figures_against_harness():
    document = {"scenario": "s", "studies": [
        {"kind": "figure", "name": "fig2", "figure": 2}]}
    expected = pb_checks.figure_texts([2])
    good = [{"name": "fig2", "kind": "figure", "text": expected[2]}]
    assert pb_checks.check_scenario(document, good, expected) == []
    perturbed = [dict(good[0], text=expected[2].replace("1", "7", 1))]
    assert pb_checks.check_scenario(document, perturbed, expected)
    renamed = [dict(good[0], name="fig3")]
    assert pb_checks.check_scenario(document, renamed, expected)


# -- corpus -------------------------------------------------------------


@pytest.fixture(scope="module")
def corpus_reference(tmp_path_factory):
    root = tmp_path_factory.mktemp("store")
    return pb_checks.inline_corpus_payloads(str(pb_inputs.CORPUS_FILE),
                                            str(root))


def test_corpus_accepts_matching_run(corpus_reference):
    units = len(corpus_reference)
    run = {"completed": units, "failed": 0, "computed": units,
           "from_store": 0}
    resume = {"completed": units, "failed": 0, "computed": 0,
              "from_store": units}
    assert pb_checks.check_corpus(run, resume, corpus_reference,
                                  corpus_reference) == []


def test_corpus_rejects_recomputing_resume_and_changed_payload(
    corpus_reference,
):
    units = len(corpus_reference)
    run = {"completed": units, "failed": 0, "computed": units,
           "from_store": 0}
    resume = {"completed": units, "failed": 0, "computed": 1,
              "from_store": units - 1}
    assert pb_checks.check_corpus(run, resume, corpus_reference,
                                  corpus_reference)
    changed = copy.deepcopy(corpus_reference)
    unit = next(iter(changed))
    changed[unit]["text"] += " "
    good_resume = {"completed": units, "failed": 0, "computed": 0,
                   "from_store": units}
    assert pb_checks.check_corpus(run, good_resume, changed, corpus_reference)
