"""The exploration workload's library session (one process).

    python perfbench/pb_session.py CONFIG.json

Imports the library and builds its inputs, prints ``ready``, then waits
for one line on stdin: ``go`` runs rotations, anything else exits.  A
rotation is four operations, each timed alone:

1. `run_search` over the 105,600-candidate space (seeded volume);
2. the exploration scenario document through one `ScenarioRunner`;
3. `run_corpus` of the example corpus into a fresh store, default pool;
4. the same corpus again against that store (a resume).

Every output is recorded for the parent to check; the first rotation is
a warm-up whose times are not used.  In trace mode the session runs
untraced rotations, then traced ones, then one inline corpus run, and
writes the spans with its results.
"""

from __future__ import annotations

import contextlib
import json
import resource
import shutil
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as handle:
        config = json.load(handle)

    from pb_checks import stored_payloads
    from pb_inputs import (
        CORPUS_FILE,
        EXPLORE_SEARCH_AREAS,
        scenario_document,
        search_space,
    )
    from pb_trace import Recorder, install_corpus_probes, install_search_probes
    from repro.corpus import CorpusOptions, load_corpus, run_corpus
    from repro.scenario.runner import ScenarioRunner
    from repro.search.engine import candidate_rows, run_search
    from repro.search.space import space_from_dict

    work = Path(config["work"])
    space_docs = [
        search_space(EXPLORE_SEARCH_AREAS, volume)
        for volume in config["volumes"]
    ]
    spaces = [space_from_dict(doc) for doc in space_docs]
    documents = [scenario_document(seed) for seed in config["mc_seeds"]]
    runner = ScenarioRunner()
    corpus_file = str(CORPUS_FILE)
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0

    recorder = Recorder()
    traced = False

    def op(name: str):
        return recorder.span(name) if traced else contextlib.nullcontext()

    def rotation(index: int, timed: bool) -> dict:
        which = index % len(spaces)
        record: dict = {"index": index, "timed": timed, "traced": traced,
                        "input": which}
        with op("op.search"):
            start = time.perf_counter()
            result = run_search(spaces[which])
            record["search_s"] = time.perf_counter() - start
        record["search"] = {"space": space_docs[which],
                            "n_candidates": result.n_candidates,
                            "rows": candidate_rows(result)}

        studies, study_times = [], []
        with op("op.scenario"):
            start = time.perf_counter()
            mark = start
            for study in runner.iter_run(documents[which]):
                study_times.append([study.kind, time.perf_counter() - mark])
                studies.append(
                    {"name": study.name, "kind": study.kind,
                     "text": study.text}
                )
                mark = time.perf_counter()
            record["scenario_s"] = time.perf_counter() - start
        record["study_times"] = study_times
        record["scenario"] = {"document": documents[which],
                              "studies": studies}

        store = work / f"store-{index}"
        with op("op.corpus"):
            start = time.perf_counter()
            corpus = load_corpus(corpus_file)
            first = run_corpus(corpus, str(store), options=CorpusOptions())
            record["corpus_s"] = time.perf_counter() - start
        with op("op.resume"):
            start = time.perf_counter()
            corpus = load_corpus(corpus_file)
            again = run_corpus(corpus, str(store), options=CorpusOptions())
            record["resume_s"] = time.perf_counter() - start
        record["corpus"] = {"run": first.counts(), "resume": again.counts(),
                            "payloads": stored_payloads(corpus, str(store))}
        shutil.rmtree(store, ignore_errors=True)
        return record

    rotations = [rotation(0, timed=False)]
    output: dict = {}
    if config["mode"] == "trace":
        for _ in range(config["rotations"]):
            rotations.append(rotation(len(rotations), timed=True))
        install_search_probes(recorder)
        install_corpus_probes(recorder)
        traced = True
        for _ in range(config["rotations"]):
            rotations.append(rotation(len(rotations), timed=True))
        store = work / "store-inline"
        with recorder.span("op.inline_corpus"):
            start = time.perf_counter()
            run_corpus(load_corpus(corpus_file), str(store),
                       options=CorpusOptions(inline=True))
            output["inline_corpus_s"] = time.perf_counter() - start
        shutil.rmtree(store, ignore_errors=True)
        output["spans"] = recorder.spans
    else:
        started = time.perf_counter()
        while (
            time.perf_counter() - started < config["seconds"]
            or len(rotations) <= config["min_rotations"]
        ):
            rotations.append(rotation(len(rotations), timed=True))
        output["measured_s"] = time.perf_counter() - started
    output["rotations"] = rotations
    output["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(config["out"], "w", encoding="utf-8") as handle:
        json.dump(output, handle)
    print("done", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
