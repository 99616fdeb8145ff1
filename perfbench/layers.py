"""Per-layer instrumentation and the per-layer metrics it yields.

In a traced run the benchmark replaces each public call that
:func:`instrument` names with a wrapper that records a span around it
(the program's own code is untouched), and :func:`layer_metrics` reduces the spans to
the metrics of :data:`LAYER_METRICS`.

Reductions: a ``*_ms`` / ``*_s`` metric is the layer's busy time per
pass (the median over the run's timed passes, or over its set-up
repetitions for a call that happens only during set-up); ``*_p50_ms`` is
the median of single calls; ``*_calls`` and the other counts are per pass
unless stated.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional

from harness import GcMonitor, Tracer, median

#: Every per-layer metric, in the order ``BENCHMARK.json`` lists them.
LAYER_METRICS = (
    ("engine.build_s", "s"),
    ("engine.payload_bytes_per_record", "B"),
    ("engine.shard_retries", "count"),
    ("cache.store_ms", "ms"),
    ("cache.load_ms", "ms"),
    ("cache.archive_mb", "MB"),
    ("core.resolve_table_ms", "ms"),
    ("core.classify_table_ms", "ms"),
    ("core.evaluate_ms", "ms"),
    ("core.mine_ms", "ms"),
    ("core.mine_calls", "count"),
    ("core.compile_ms", "ms"),
    ("core.compile_calls", "count"),
    ("core.temporal_ms", "ms"),
    ("stream.ingest_ms", "ms"),
    ("stream.ingest_p50_ms", "ms"),
    ("stream.classify_ms", "ms"),
    ("stream.classify_p50_ms", "ms"),
    ("stream.observe_ms", "ms"),
    ("stream.refresh_ms", "ms"),
    ("stream.refreshes", "count"),
    ("serve.route_ms", "ms"),
    ("serve.self_ms", "ms"),
    ("serve.dead_letters", "count"),
    ("report.table2_ms", "ms"),
    ("report.figure9_ms", "ms"),
    ("report.privacy_ms", "ms"),
    ("report.blocklists_ms", "ms"),
    ("report.other_ms", "ms"),
    ("report.materialized_records", "count"),
    ("ml.tree_fit_ms", "ms"),
    ("ml.tree_predict_ms", "ms"),
    ("ml.tree_predict_calls", "count"),
    ("proc.import_s", "s"),
    ("proc.gc_pause_ms", "ms"),
    ("proc.gc_collections", "count"),
)

#: Report sections with a metric of their own; the rest sum into
#: ``report.other_ms``.
REPORT_SECTIONS_TIMED = ("table2", "figure9", "privacy", "blocklists")


def _archive_bytes(path) -> int:
    path = Path(path)
    if path.is_file():
        return path.stat().st_size
    return sum(entry.stat().st_size for entry in path.rglob("*") if entry.is_file())


def _build_plan(_result, args, _kwargs) -> Dict[str, object]:
    plan = args[0].last_plan
    faults = plan.get("faults") or {}
    return {
        "payload_bytes": plan.get("payload_bytes"),
        "records": plan.get("planned_records"),
        "retried": faults.get("retried", 0),
    }


def _submitted(_result, args, _kwargs) -> Dict[str, object]:
    return {"dead_letters": len(args[0].health.dead_letters)}


def instrument(tracer: Tracer) -> None:
    """Wrap every timed public call of the program with a span."""

    import repro.core.evaluation as evaluation
    import repro.core.pipeline as pipeline
    from repro.analysis.cache import CorpusCache
    from repro.analysis.engine import CorpusEngine
    from repro.core.detector import FPInconsistent
    from repro.core.rules import FilterList
    from repro.core.spatial import SpatialInconsistencyMiner
    from repro.core.temporal import TemporalInconsistencyDetector
    from repro.ml.tree import DecisionTree
    from repro.serve.gateway import DetectionGateway
    from repro.serve.partition import DeviceRouter
    from repro.stream.classifier import OnlineClassifier
    from repro.stream.ingest import StreamIngestor
    from repro.stream.refresh import FilterListRefresher

    tracer.wrap(CorpusEngine, "build", "engine.build", _build_plan)
    tracer.wrap(CorpusCache, "store", "cache.store",
                lambda path, _a, _k: {"bytes": _archive_bytes(path)})
    tracer.wrap(CorpusCache, "load", "cache.load")
    tracer.wrap(FPInconsistent, "resolve_table", "core.resolve_table")
    tracer.wrap(FPInconsistent, "classify_table", "core.classify_table")
    # The pipeline imported the evaluation functions by name; the
    # generalisation check calls them inside their own module.
    for module in (pipeline, evaluation):
        for name in ("evaluate_table3", "evaluate_table4", "true_negative_rate"):
            if name in vars(module):
                tracer.wrap(module, name, "core.evaluate")
    tracer.wrap(SpatialInconsistencyMiner, "mine_table", "core.mine")
    tracer.wrap(FilterList, "compile", "core.compile")
    tracer.wrap(TemporalInconsistencyDetector, "evaluate_table", "core.temporal")
    tracer.wrap(TemporalInconsistencyDetector, "observe_table", "core.temporal")
    tracer.wrap(StreamIngestor, "ingest_rows", "stream.ingest")
    tracer.wrap(OnlineClassifier, "classify_batch", "stream.classify")
    tracer.wrap(FilterListRefresher, "observe_batch", "stream.observe")
    tracer.wrap(FilterListRefresher, "refresh", "stream.refresh")
    tracer.wrap(DeviceRouter, "route", "serve.route")
    tracer.wrap(DetectionGateway, "submit_rows", "serve.submit", _submitted)
    tracer.wrap(DecisionTree, "fit", "ml.tree_fit")
    tracer.wrap(DecisionTree, "predict_value", "ml.tree_predict")


def generate_report_traced(run, corpus, **kwargs):
    """``generate_report``; in a traced run, one call per section so each is timed.

    Returns ``(digests, table1_rows, materialised records)``.
    """

    from repro.analysis.report import generate_report, report_section_keys

    sections = kwargs.pop("sections", None) or report_section_keys()
    if not run.trace:
        report = generate_report(corpus, sections=sections, **kwargs)
        parts = [report]
    else:
        parts = []
        for key in sections:
            with run.tracer.span("report.section", key=key) as span:
                part = generate_report(corpus, sections=[key], **kwargs)
            span.attrs["materialized"] = part.materialized_records
            parts.append(part)
    digests: Dict[str, str] = {}
    table1 = None
    for part in parts:
        digests.update(part.digests())
        for section in part.sections:
            if section.key == "table1":
                table1 = section.data["rows"]
    return digests, table1, sum(part.materialized_records for part in parts)


class _Groups:
    """Spans bucketed by phase: timed passes first, set-up repetitions second."""

    def __init__(self, tracer: Tracer, passes: List[str], setups: List[str]):
        self.passes = passes
        self.setups = setups
        self.by_name: Dict[str, List] = {}
        for span in tracer.spans:
            self.by_name.setdefault(span.name, []).append(span)

    def spans(self, name: str, groups: Optional[List[str]] = None) -> List:
        spans = self.by_name.get(name, [])
        if groups is None:
            return spans
        wanted = set(groups)
        return [span for span in spans if span.group in wanted]

    def per_group(self, name: str, value) -> Optional[List[float]]:
        """Per-group sums of ``value(span)``: over passes, else over set-ups."""

        for groups in (self.passes, self.setups):
            spans = self.spans(name, groups)
            if spans:
                totals = dict.fromkeys(groups, 0.0)
                for span in spans:
                    totals[span.group] += value(span)
                return list(totals.values())
        return None

    def busy(self, name: str, scale: float = 1000.0) -> float:
        totals = self.per_group(name, lambda span: span.duration)
        return 0.0 if totals is None else median(totals) * scale

    def calls(self, name: str) -> float:
        counts = [
            sum(1 for span in self.spans(name, [group])) for group in self.passes
        ]
        return median(counts) if counts else 0.0

    def p50_ms(self, name: str) -> float:
        durations = [span.duration for span in self.spans(name, self.passes)]
        return median(durations) * 1000 if durations else 0.0


def layer_metrics(
    tracer: Tracer,
    gc_monitor: GcMonitor,
    passes: List[str],
    setups: List[str],
    import_samples: List[float],
) -> Dict[str, float]:
    """Reduce a traced run's spans to :data:`LAYER_METRICS`."""

    groups = _Groups(tracer, passes, setups)
    children = tracer.children()
    metrics: Dict[str, float] = {}

    builds = groups.spans("engine.build")
    per_record = [
        span.attrs["payload_bytes"] / span.attrs["records"]
        for span in builds
        if span.attrs.get("payload_bytes") and span.attrs.get("records")
    ]
    metrics["engine.build_s"] = groups.busy("engine.build", scale=1.0)
    metrics["engine.payload_bytes_per_record"] = median(per_record) if per_record else 0.0
    metrics["engine.shard_retries"] = float(sum(span.attrs.get("retried", 0) for span in builds))

    stores = groups.spans("cache.store")
    metrics["cache.store_ms"] = groups.busy("cache.store")
    metrics["cache.load_ms"] = groups.busy("cache.load")
    metrics["cache.archive_mb"] = (
        median([span.attrs["bytes"] / 1e6 for span in stores]) if stores else 0.0
    )

    for metric, span_name in (
        ("core.resolve_table_ms", "core.resolve_table"),
        ("core.classify_table_ms", "core.classify_table"),
        ("core.evaluate_ms", "core.evaluate"),
        ("core.mine_ms", "core.mine"),
        ("core.compile_ms", "core.compile"),
        ("core.temporal_ms", "core.temporal"),
        ("stream.ingest_ms", "stream.ingest"),
        ("stream.classify_ms", "stream.classify"),
        ("stream.observe_ms", "stream.observe"),
        ("stream.refresh_ms", "stream.refresh"),
        ("serve.route_ms", "serve.route"),
        ("ml.tree_fit_ms", "ml.tree_fit"),
        ("ml.tree_predict_ms", "ml.tree_predict"),
    ):
        metrics[metric] = groups.busy(span_name)
    metrics["core.mine_calls"] = groups.calls("core.mine")
    metrics["core.compile_calls"] = groups.calls("core.compile")
    metrics["ml.tree_predict_calls"] = groups.calls("ml.tree_predict")
    metrics["stream.refreshes"] = groups.calls("stream.refresh")
    metrics["stream.ingest_p50_ms"] = groups.p50_ms("stream.ingest")
    metrics["stream.classify_p50_ms"] = groups.p50_ms("stream.classify")

    self_times = groups.per_group(
        "serve.submit", lambda span: tracer.self_time(span, children)
    )
    metrics["serve.self_ms"] = median(self_times) * 1000 if self_times else 0.0
    submits = groups.spans("serve.submit")
    metrics["serve.dead_letters"] = float(
        max((span.attrs.get("dead_letters", 0) for span in submits), default=0)
    )

    sections = groups.spans("report.section")
    for key in REPORT_SECTIONS_TIMED:
        totals = groups.per_group(
            "report.section",
            lambda span, key=key: span.duration if span.attrs.get("key") == key else 0.0,
        )
        metrics[f"report.{key}_ms"] = median(totals) * 1000 if totals else 0.0
    other = groups.per_group(
        "report.section",
        lambda span: 0.0 if span.attrs.get("key") in REPORT_SECTIONS_TIMED else span.duration,
    )
    metrics["report.other_ms"] = median(other) * 1000 if other else 0.0
    metrics["report.materialized_records"] = float(
        sum(span.attrs.get("materialized", 0) for span in sections)
    )

    metrics["proc.import_s"] = median(import_samples)
    pauses = [gc_monitor.by_group.get(group, [0.0, 0]) for group in passes]
    metrics["proc.gc_pause_ms"] = median([entry[0] for entry in pauses]) * 1000
    metrics["proc.gc_collections"] = median([entry[1] for entry in pauses])

    missing = [name for name, _unit in LAYER_METRICS if name not in metrics]
    if missing:
        raise RuntimeError(f"per-layer metrics not computed: {missing}")
    return metrics
