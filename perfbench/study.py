"""The ``study`` workload: the paper-reproduction chain, round after round.

One round is what a researcher runs to regenerate the paper's tables:

1. ``corpus`` — a cold ``build_or_load_corpus`` into an empty cache
   (generation plus archive write), scale 0.05 with real users and the
   five privacy technologies, two process workers;
2. ``pipeline`` — a warm (memory-mapped) load plus
   ``FPInconsistentPipeline.run`` with real users and the §7.3
   generalisation check, two process workers;
3. ``report`` — a warm load plus ``generate_report`` over all 14 sections;
4. ``sweep`` — the mined filter list scores the round's bot table in
   arrival order, 256-row slices through ``FPInconsistent.classify_table``
   with the temporal state carried across slices, ten times over.  This
   is the batch classifier used as a scorer; it never touches stream
   ingest, the gateway or refresh.

Every round regenerates the same corpus (the seed is fixed for the run),
so every round must mine the same list and render the same report.
"""

from __future__ import annotations

import time
from typing import Dict, List

import numpy as np

import checks
from harness import Run, median, peak_rss_mb, percentile, timed_import_s
from layers import generate_report_traced

SCALE = 0.05
WORKERS = 2
EXECUTOR = "process"
SWEEP_BATCH = 256
#: Sweeps of the bot table per round (100 batches each): enough scoring
#: time per run for the host's second-to-second speed swings to average out.
SWEEPS_PER_ROUND = 10
#: Enough rounds for a median, and for 1,000 sweep batches.
MIN_ROUNDS = 2
#: Rows whose winning rule is checked one by one against direct evaluation.
SAMPLE_ROWS = 512

IMPORTS = (
    "repro.analysis.engine",
    "repro.analysis.cache",
    "repro.core.pipeline",
    "repro.analysis.report",
)


def _corpus_kwargs(seed: int, cache) -> Dict:
    return dict(
        seed=seed,
        scale=SCALE,
        include_real_users=True,
        include_privacy=True,
        workers=WORKERS,
        executor=EXECUTOR,
        cache=cache,
    )


def run_study(run: Run) -> Dict[str, float]:
    imports: List[float] = []
    for repetition in range(3):
        run.phase(f"setup{repetition}")
        with run.pinned():
            imports.append(timed_import_s(run.src, IMPORTS))
    run.import_samples = imports

    samples: Dict[str, List[float]] = {
        "corpus_s": [], "pipeline_s": [], "report_s": [], "rows_per_s": []
    }
    batch_latencies: List[float] = []
    first = None  # round-0 outputs, checked once the timed rounds are over
    elapsed = 0.0
    round_index = 0
    while round_index < MIN_ROUNDS or elapsed < run.seconds:
        run.phase(f"pass{round_index}")
        round_started = time.perf_counter()
        cache_dir = run.fresh_dir()
        try:
            outputs = _round(run, cache_dir, samples, batch_latencies)
        except Exception as exc:  # counted by Run.op; the round cannot go on
            run.problems.append(f"round {round_index} failed: {exc!r}")
            outputs = None
        if outputs is not None and first is None:
            first = dict(outputs, cache_dir=cache_dir)
        else:
            if outputs is not None:
                for key in ("filter_json", "reductions", "tnr", "digests"):
                    if outputs[key] != first[key]:
                        run.problems.append(f"round {round_index}: {key} differs from round 0")
                for key in ("verdicts", "sweep"):
                    if not outputs[key].same_as(first[key]):
                        run.problems.append(f"round {round_index}: {key} differ from round 0")
            run.drop_dir(cache_dir)
        del outputs
        elapsed += time.perf_counter() - round_started
        round_index += 1

    run.phase("checks")
    run.peak_rss_mb = peak_rss_mb()
    if first is None:
        run.problems.append("no round completed")
    else:
        run.problems.extend(_check_first_round(run, first))

    return {
        "corpus_s": median(samples["corpus_s"]),
        "pipeline_s": median(samples["pipeline_s"]),
        "report_s": median(samples["report_s"]),
        "rows_per_s": median(samples["rows_per_s"]),
        "batch_p50_ms": percentile(batch_latencies, 50) * 1000,
        "batch_p99_ms": percentile(batch_latencies, 99) * 1000,
        "setup_s": median(imports),
    }


def _round(run: Run, cache_dir, samples, batch_latencies) -> Dict:
    """One timed round; returns its outputs in compact form."""

    from repro.analysis.engine import build_or_load_corpus
    from repro.core.detector import FPInconsistent
    from repro.core.pipeline import FPInconsistentPipeline

    statuses = []
    run.settle()
    with run.op("corpus"):
        started = time.perf_counter()
        corpus, status = build_or_load_corpus(**_corpus_kwargs(run.seed, cache_dir))
        samples["corpus_s"].append(time.perf_counter() - started)
    statuses.append(status)
    del corpus
    run.settle()

    with run.op("pipeline"):
        started = time.perf_counter()
        corpus, status = build_or_load_corpus(**_corpus_kwargs(run.seed, cache_dir))
        result = FPInconsistentPipeline(workers=WORKERS, executor=EXECUTOR).run(
            corpus.bot_store,
            real_user_store=corpus.real_user_store,
            check_generalization=True,
            bot_table=corpus.columnar_tables.get("bots"),
            real_user_table=corpus.columnar_tables.get("real_users"),
        )
        samples["pipeline_s"].append(time.perf_counter() - started)
    statuses.append(status)
    # Keep the verdicts in compact form only: the report and the sweep
    # should not run on a heap that still holds 25k verdict objects.
    filter_list = result.filter_list
    columns = corpus.bot_store.columns
    arrival = np.argsort(np.asarray(columns.timestamps), kind="stable")
    outputs = {
        "statuses": statuses,
        "filter_list": filter_list,
        "filter_json": filter_list.to_json(),
        "reductions": dict(result.evasion_reductions),
        "tnr": result.real_user_tnr,
        "generalization": result.generalization is not None,
        "verdicts": checks.encode_verdicts(
            result.verdicts, np.asarray(corpus.bot_store.request_id_array())[arrival],
            filter_list,
        ),
    }
    del corpus, columns, result
    run.settle()

    with run.pinned(), run.op("report"):
        started = time.perf_counter()
        corpus, status = build_or_load_corpus(**_corpus_kwargs(run.seed, cache_dir))
        digests, table1, materialized = generate_report_traced(run, corpus)
        samples["report_s"].append(time.perf_counter() - started)
    statuses.append(status)
    # The sweep scores a freshly loaded corpus: the report's decode caches
    # would otherwise sit on the heap every collection walks.
    del corpus
    run.settle()
    corpus, _status = build_or_load_corpus(**_corpus_kwargs(run.seed, cache_dir))
    detector = FPInconsistent(filter_list=filter_list)
    table, _source = detector.resolve_table(corpus.bot_store, corpus.columnar_tables.get("bots"))
    order = np.argsort(table.timestamps, kind="stable")
    rule_index = checks.rule_index_of(filter_list)
    sweep = None
    with run.pinned():
        for _repeat in range(SWEEPS_PER_ROUND):
            state = detector.temporal_detector.new_stream_state()
            codes = checks.VerdictCodes(table.n_rows)
            sweep_started = time.perf_counter()
            for start in range(0, table.n_rows, SWEEP_BATCH):
                piece = table.take(order[start:start + SWEEP_BATCH])
                with run.op("sweep_batch"):
                    called = time.perf_counter()
                    verdicts = detector.classify_table(piece, temporal_state=state)
                    batch_latencies.append(time.perf_counter() - called)
                if codes.record(start, verdicts, rule_index) != piece.n_rows:
                    run.failed += 1
            samples["rows_per_s"].append(table.n_rows / (time.perf_counter() - sweep_started))
            if sweep is None:
                sweep = codes
            elif not codes.same_as(sweep):
                run.problems.append("a repeated sweep scored the same table differently")

    outputs.update(digests=digests, table1=table1, materialized=materialized, sweep=sweep)
    return outputs


def _check_first_round(run: Run, first) -> List[str]:
    """Round 0's outputs against the benchmark's own recounts."""

    from repro.analysis.engine import build_or_load_corpus
    from repro.fingerprint.attributes import Attribute

    filter_list = first["filter_list"]
    corpus, _status = build_or_load_corpus(**_corpus_kwargs(run.seed, first["cache_dir"]))
    bots = corpus.bot_store
    users = corpus.real_user_store
    knowledge = checks.knowledge_base()
    attributes = [rule.attribute_a for rule in filter_list] + [
        rule.attribute_b for rule in filter_list
    ] + [Attribute.IP_COUNTRY, Attribute.TIMEZONE]
    codes = first["verdicts"]
    try:
        checks.require(first["statuses"] == ["miss", "hit", "hit"],
                       f"cache statuses of the round were {first['statuses']}, "
                       "expected a cold build then two warm loads")
        checks.require(first["materialized"] == 0,
                       f"the report materialised {first['materialized']} records")
        checks.require(first["generalization"], "the pipeline skipped the generalisation check")
        bot_rows = checks.RowValues.from_store(bots, attributes)
        order = bot_rows.arrival_order()
        request_ids = np.asarray(bots.request_id_array())
        sample = np.sort(
            np.random.default_rng(run.seed).choice(order.size, SAMPLE_ROWS, replace=False)
        )
        checks.check_verdicts(codes, bot_rows, order, request_ids,
                              [(0, order.size, filter_list)], knowledge, sample,
                              "pipeline bot verdicts")
        checks.require(first["sweep"].same_as(codes),
                       "sweep verdicts differ from the pipeline's batch verdicts")
        checks.check_supports(filter_list, bot_rows, np.arange(bot_rows.n_rows),
                              "mined filter list")
        flagged = np.zeros(order.size, dtype=bool)
        flagged[order] = (codes.rule != checks.NO_RULE) | (codes.temporal != 0)
        checks.check_evasion_reductions(bots, flagged, first["reductions"])
        user_rows = checks.RowValues.from_store(users, attributes)
        everyone = np.arange(user_rows.n_rows)
        user_flagged = user_rows.spatial_flags(filter_list, knowledge, everyone) | (
            user_rows.temporal_bits(user_rows.arrival_order()) != 0
        )
        checks.check_tnr(first["tnr"], user_flagged)
        checks.check_table1(bots, first["table1"])
    except checks.CheckFailed as failure:
        return [str(failure)]
    return []
