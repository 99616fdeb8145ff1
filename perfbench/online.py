"""The ``replay`` and ``refresh`` workloads: a fitted detector scores traffic.

Set-up, repeated three times per run: a cold ``build_or_load_corpus`` of
the scale-0.2 bot corpus (about 101k rows, two process workers) into an
empty cache, then a warm load plus ``FPInconsistentPipeline.run`` on one
worker, which mines the filter list the gateway deploys, then a warm load
plus the report's traffic sections (:data:`REPORT_SECTIONS`).

A timed pass loads the corpus warm from the cache, opens a fresh
1-worker ``DetectionGateway`` and submits every bot row in arrival order,
256 rows per ``submit_rows`` call, from one closed-loop caller: the next
batch goes in when the previous verdicts are back.  ``replay`` scores
against the frozen list; ``refresh`` adds synchronous day-driven
re-mining (every 10 stream days over the last 25,000 rows, hot-swapped at
a batch boundary — 8 swaps per pass).
"""

from __future__ import annotations

import time
from typing import Dict, List

import numpy as np

import checks
from harness import Run, median, peak_rss_mb, percentile, timed_import_s
from layers import generate_report_traced

SCALE = 0.2
WORKERS = 2
EXECUTOR = "process"
BATCH_ROWS = 256
SETUP_REPETITIONS = 3
#: Three passes of ~397 batches give the 1,000+ samples a p99 needs.
MIN_PASSES = 3
REFRESH_DAYS = 10.0
WINDOW_ROWS = 25_000
SECONDS_PER_DAY = 86_400.0
SAMPLE_ROWS = 512

#: The report sections an operator reads about the traffic the gateway
#: scores; the Table 2 classifier, the blocklists, Figure 9 and the
#: privacy section are the study workload's (they dominate its report).
REPORT_SECTIONS = (
    "table1",
    "cohorts",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "section62",
    "figure8",
    "figure10",
    "appendix_c",
)

IMPORTS = (
    "repro.analysis.engine",
    "repro.analysis.cache",
    "repro.core.pipeline",
    "repro.analysis.report",
    "repro.serve",
    "repro.stream",
)


def _corpus_kwargs(seed: int, cache) -> Dict:
    return dict(
        seed=seed,
        scale=SCALE,
        include_real_users=False,
        include_privacy=False,
        workers=WORKERS,
        executor=EXECUTOR,
        cache=cache,
    )


def _set_up(run: Run, samples: Dict[str, List[float]]):
    """One set-up repetition; returns its cache directory and pipeline result."""

    from repro.analysis.engine import build_or_load_corpus
    from repro.core.pipeline import FPInconsistentPipeline

    with run.pinned():
        imported = timed_import_s(run.src, IMPORTS)
    run.import_samples.append(imported)
    cache_dir = run.fresh_dir()
    run.settle()

    started = time.perf_counter()
    corpus, status = build_or_load_corpus(**_corpus_kwargs(run.seed, cache_dir))
    built = time.perf_counter() - started
    checks.require(status == "miss", f"cold build reported cache {status!r}")
    del corpus
    run.settle()

    with run.pinned():
        started = time.perf_counter()
        corpus, status = build_or_load_corpus(**_corpus_kwargs(run.seed, cache_dir))
        result = FPInconsistentPipeline(workers=1).run(
            corpus.bot_store, bot_table=corpus.columnar_tables.get("bots")
        )
        mined = time.perf_counter() - started
    checks.require(status == "hit", f"warm load reported cache {status!r}")
    del corpus
    run.settle()

    with run.pinned():
        started = time.perf_counter()
        corpus, _status = build_or_load_corpus(**_corpus_kwargs(run.seed, cache_dir))
        _digests, _table1, materialized = generate_report_traced(
            run, corpus, sections=REPORT_SECTIONS
        )
        reported = time.perf_counter() - started
    checks.require(materialized == 0, f"the report materialised {materialized} records")
    del corpus
    run.settle()

    samples["corpus_s"].append(built)
    samples["pipeline_s"].append(mined)
    samples["report_s"].append(reported)
    samples["setup_s"].append(imported + built + mined)
    return cache_dir, result


def run_online(run: Run, *, refresh: bool) -> Dict[str, float]:
    from repro.analysis.engine import build_or_load_corpus
    from repro.core.detector import FPInconsistent
    from repro.serve import DetectionGateway
    from repro.stream import FilterListRefresher

    samples: Dict[str, List[float]] = {
        "corpus_s": [], "pipeline_s": [], "report_s": [], "setup_s": [], "rows_per_s": []
    }
    cache_dir = None
    filter_json = None
    for repetition in range(SETUP_REPETITIONS):
        run.phase(f"setup{repetition}")
        if cache_dir is not None:
            run.drop_dir(cache_dir)
        cache_dir, result = _set_up(run, samples)
        if filter_json is not None and result.filter_list.to_json() != filter_json:
            run.problems.append(f"set-up {repetition} mined a different filter list")
        filter_json = result.filter_list.to_json()
        if repetition < SETUP_REPETITIONS - 1:
            del result

    filter_list = result.filter_list
    detector = FPInconsistent(filter_list=filter_list)
    corpus, _status = build_or_load_corpus(**_corpus_kwargs(run.seed, cache_dir))
    columns = corpus.bot_store.columns
    n_rows = columns.n_rows
    arrival = np.argsort(np.asarray(columns.timestamps), kind="stable")
    batch_oracle = checks.encode_verdicts(
        result.verdicts, np.asarray(corpus.bot_store.request_id_array())[arrival], filter_list
    )
    del corpus, columns, result
    run.settle()

    latencies: List[float] = []
    first = None
    elapsed = 0.0
    pass_index = 0
    # One gateway worker and synchronous refresh: every pass is single-threaded.
    with run.pinned():
        while pass_index < MIN_PASSES or elapsed < run.seconds:
            run.phase(f"pass{pass_index}")
            run.settle()
            pass_started = time.perf_counter()
            corpus, _status = build_or_load_corpus(**_corpus_kwargs(run.seed, cache_dir))
            columns = corpus.bot_store.columns
            order = np.argsort(np.asarray(columns.timestamps), kind="stable")
            refresher = (
                FilterListRefresher(detector.miner, interval_days=REFRESH_DAYS,
                                    window_rows=WINDOW_ROWS)
                if refresh else None
            )
            gateway = DetectionGateway(detector, refresher=refresher, refresh_mode="sync")
            codes = checks.VerdictCodes(n_rows)
            deployed = [filter_list]
            swaps: List[int] = []
            rule_index = checks.rule_index_of(filter_list)
            scored_started = time.perf_counter()
            try:
                for start in range(0, n_rows, BATCH_ROWS):
                    rows = order[start:start + BATCH_ROWS]
                    dead_before = len(gateway.health.dead_letters)
                    try:
                        with run.op("batch"):
                            called = time.perf_counter()
                            verdicts = gateway.submit_rows(columns, rows)
                            latencies.append(time.perf_counter() - called)
                    except Exception:
                        continue
                    scored = codes.record(start, verdicts, rule_index)
                    if scored != rows.size or len(gateway.health.dead_letters) != dead_before:
                        run.failed += 1
                    if len(gateway.refreshes) > len(swaps):
                        swaps.append(gateway.refreshes[-1]["batch"])
                        deployed.append(gateway.classifiers[0].filter_list)
                        rule_index = checks.rule_index_of(deployed[-1])
            finally:
                gateway.close()
            samples["rows_per_s"].append(n_rows / (time.perf_counter() - scored_started))

            outputs = {
                "codes": codes,
                "swaps": swaps,
                "lists": [filter_list_.to_json() for filter_list_ in deployed],
            }
            if first is None:
                first = dict(outputs, deployed=deployed)
            else:
                if not codes.same_as(first["codes"]):
                    run.problems.append(f"pass {pass_index}: verdicts differ from pass 0")
                if swaps != first["swaps"] or outputs["lists"] != first["lists"]:
                    run.problems.append(f"pass {pass_index}: refreshes differ from pass 0")
            del corpus, columns, gateway, refresher, outputs, deployed
            elapsed += time.perf_counter() - pass_started
            pass_index += 1

    run.phase("checks")
    run.peak_rss_mb = peak_rss_mb()
    run.problems.extend(_check_first_pass(run, cache_dir, first, batch_oracle, refresh))

    return {
        "corpus_s": median(samples["corpus_s"]),
        "pipeline_s": median(samples["pipeline_s"]),
        "report_s": median(samples["report_s"]),
        "rows_per_s": median(samples["rows_per_s"]),
        "batch_p50_ms": percentile(latencies, 50) * 1000,
        "batch_p99_ms": percentile(latencies, 99) * 1000,
        "setup_s": median(samples["setup_s"]),
    }


def _check_first_pass(run: Run, cache_dir, first, batch_oracle, refresh: bool) -> List[str]:
    """Pass 0's verdicts and refreshes against the benchmark's own recounts."""

    from repro.analysis.engine import build_or_load_corpus
    from repro.fingerprint.attributes import Attribute

    corpus, _status = build_or_load_corpus(**_corpus_kwargs(run.seed, cache_dir))
    store = corpus.bot_store
    deployed = first["deployed"]
    codes = first["codes"]
    attributes = [Attribute.IP_COUNTRY, Attribute.TIMEZONE]
    for filter_list in deployed:
        for rule in filter_list:
            attributes += [rule.attribute_a, rule.attribute_b]
    knowledge = checks.knowledge_base()
    try:
        rows_values = checks.RowValues.from_store(store, attributes)
        order = rows_values.arrival_order()
        n_rows = order.size
        request_ids = np.asarray(store.request_id_array())
        sample = np.sort(
            np.random.default_rng(run.seed).choice(n_rows, SAMPLE_ROWS, replace=False)
        )
        checks.require(np.array_equal(codes.temporal, batch_oracle.temporal),
                       "online temporal flags differ from the batch pipeline's")
        if not refresh:
            checks.require(first["swaps"] == [], f"frozen-list replay swapped at {first['swaps']}")
            checks.require(codes.same_as(batch_oracle),
                           "online verdicts differ from one batch classification")
            segments = [(0, n_rows, deployed[0])]
        else:
            stamps = rows_values.timestamps[order]
            starts = range(0, n_rows, BATCH_ROWS)
            expected = checks.expected_swaps(
                [float(stamps[start:start + BATCH_ROWS].min()) for start in starts],
                [float(stamps[start:start + BATCH_ROWS].max()) for start in starts],
                REFRESH_DAYS * SECONDS_PER_DAY,
            )
            checks.require(first["swaps"] == expected,
                           f"swaps after batches {first['swaps']}, clock says {expected}")
            checks.require(len(expected) == 8, f"{len(expected)} swaps in a pass, expected 8")
            bounds = [0] + [min(n_rows, swap * BATCH_ROWS) for swap in expected] + [n_rows]
            segments = [
                (bounds[index], bounds[index + 1], filter_list)
                for index, filter_list in enumerate(deployed)
            ]
            for swap, filter_list in zip(expected, deployed[1:]):
                end = min(n_rows, swap * BATCH_ROWS)
                window = order[max(0, end - WINDOW_ROWS):end]
                checks.check_supports(filter_list, rows_values, window,
                                      f"list refreshed after batch {swap}")
        checks.check_verdicts(codes, rows_values, order, request_ids, segments,
                              knowledge, sample, "online verdicts")
    except checks.CheckFailed as failure:
        return [str(failure)]
    return []
