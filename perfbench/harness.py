"""Measurement helpers shared by every workload.

Nothing here imports :mod:`repro`: the helpers time calls, summarise
samples, record the benchmark's own spans, reap the worker processes the
program leaves behind and read the host's noise counters.
"""

from __future__ import annotations

import gc
import json
import math
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

#: A p99 needs at least ten samples beyond it, so at least this many in all.
MIN_TAIL_SAMPLES = 1000

#: How long the benchmark waits for one left-over worker process to exit.
REAP_TIMEOUT_S = 30.0


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sample (``statistics.median``, refusing empty)."""

    if not values:
        raise ValueError("median of an empty sample")
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile *q* (0 < q < 100) of *values*.

    A tail is only a tail when enough samples lie beyond it: any
    percentile above the median needs at least ten samples past it, so
    a p99 is refused with fewer than :data:`MIN_TAIL_SAMPLES` samples.
    """

    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    n = len(values)
    if n == 0:
        raise ValueError("percentile of an empty sample")
    beyond = n * (100 - q) / 100
    if q > 50 and beyond < 10:
        raise ValueError(
            f"p{q:g} needs at least ten samples beyond it; {n} samples leave {beyond:g}"
        )
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * n))
    return float(ordered[rank - 1])


def peak_rss_mb() -> float:
    """Peak resident set of this process, in MB (``ru_maxrss`` is KiB on Linux)."""

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reap_children() -> None:
    """Wait until every worker process this process started has ended.

    The program's shard pools shut down without waiting for their workers;
    joining them here keeps one operation's stragglers out of the next
    operation's timing and leaves no process behind when the run ends.
    """

    for child in multiprocessing.active_children():
        child.join(REAP_TIMEOUT_S)
        if child.is_alive():
            child.terminate()
            child.join(REAP_TIMEOUT_S)


def settle() -> None:
    """Untimed housekeeping between operations: reap workers, collect garbage."""

    reap_children()
    gc.collect()


def timed_import_s(src: Path, modules: Sequence[str]) -> float:
    """Wall time of a fresh interpreter that starts and imports *modules*.

    This is the part of set-up every user of the command line pays: the
    interpreter start plus the ``repro`` imports, measured in a child so
    that each measurement starts cold.
    """

    code = "import sys; sys.path.insert(0, sys.argv[1]); " + "; ".join(
        f"import {module}" for module in modules
    )
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", code, str(src)], check=True)
    return time.perf_counter() - started


class HostRecord:
    """Host-noise diagnostics of one run (printed beside, not as, metrics).

    The steal share is the fraction of all CPU time the hypervisor gave to
    other guests over the run, read from the aggregate ``cpu`` line of
    ``/proc/stat`` at the start and at the end.
    """

    def __init__(self):
        self._start = self._cpu_times()

    @staticmethod
    def _cpu_times() -> Optional[List[int]]:
        try:
            with open("/proc/stat", encoding="ascii") as handle:
                fields = handle.readline().split()
        except OSError:
            return None
        if not fields or fields[0] != "cpu":
            return None
        # user nice system idle iowait irq softirq steal (guest time is
        # already counted inside user and nice).
        return [int(value) for value in fields[1:9]]

    def summary(self) -> Dict[str, object]:
        end = self._cpu_times()
        steal = None
        if self._start is not None and end is not None and len(end) == 8:
            delta = [after - before for after, before in zip(end, self._start)]
            total = sum(delta)
            steal = delta[7] / total if total > 0 else 0.0
        import numpy

        return {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "loadavg": [round(value, 2) for value in os.getloadavg()],
            "steal_share": None if steal is None else round(steal, 4),
        }


class Span:
    """One recorded call: name, interval, parent link and attributes."""

    __slots__ = ("id", "parent", "name", "start", "end", "group", "attrs")

    def __init__(self, span_id, parent, name, start, group):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.start = start
        self.end = start
        self.group = group
        self.attrs: Dict[str, object] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory spans around calls into the program's public functions.

    Spans stay in memory until the run ends (:meth:`write_chrome_trace`).
    Every span carries the id of the span open around it on the same
    thread and the label of the benchmark phase it ran in (``group``), so
    per-layer metrics can be taken per pass or per set-up repetition.
    """

    def __init__(self):
        self.spans: List[Span] = []
        self.group = "setup"
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[tuple] = []
        self._origin = time.perf_counter()
        self._origin_wall = time.time()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        with self._lock:
            span = Span(len(self.spans), stack[-1].id if stack else None, name,
                        time.perf_counter(), self.group)
            self.spans.append(span)
        span.attrs.update(attrs)
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def wrap(
        self,
        owner,
        attribute: str,
        name: str,
        describe: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attribute`` with a spanning wrapper until :meth:`restore`.

        *describe*, when given, is called as ``describe(result, args,
        kwargs)`` after the call and returns attributes for the span.
        """

        original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(
            owner, attribute
        )
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name) as span:
                result = original(*args, **kwargs)
            if describe is not None:
                span.attrs.update(describe(result, args, kwargs))
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", attribute)
        setattr(owner, attribute, wrapper)
        self._patches.append((owner, attribute, original))

    def restore(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def self_time(self, span: Span, children: Dict[int, List[Span]]) -> float:
        """The span's duration minus the time its direct children cover."""

        return span.duration - sum(child.duration for child in children.get(span.id, ()))

    def children(self) -> Dict[int, List[Span]]:
        index: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                index.setdefault(span.parent, []).append(span)
        return index

    def write_chrome_trace(self, path: Path) -> None:
        """Write the spans as a Chrome trace-event file (``chrome://tracing``)."""

        pid = os.getpid()
        events = []
        for span in self.spans:
            args = {"id": span.id, "parent": span.parent, "group": span.group}
            args.update({key: _jsonable(value) for key, value in span.attrs.items()})
            events.append(
                {
                    "name": span.name,
                    "ph": "X",
                    "ts": (self._origin_wall + span.start - self._origin) * 1e6,
                    "dur": span.duration * 1e6,
                    "pid": pid,
                    "tid": 0,
                    "args": args,
                }
            )
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))


def _jsonable(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


class GcMonitor:
    """Collector pauses and collection counts, attributed to the open group."""

    def __init__(self, tracer: Tracer):
        self._tracer = tracer
        self._started = 0.0
        #: group -> [pause seconds, collections]
        self.by_group: Dict[str, List[float]] = {}

    def _callback(self, phase, info):
        if phase == "start":
            self._started = time.perf_counter()
            return
        entry = self.by_group.setdefault(self._tracer.group, [0.0, 0])
        entry[0] += time.perf_counter() - self._started
        entry[1] += 1

    def __enter__(self):
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc_info):
        gc.callbacks.remove(self._callback)


class Run:
    """State of one benchmark run: settings, counters, samples and spans.

    Operations are counted through :meth:`op`; an operation that raises is
    counted as failed and its traceback goes to standard error.  With
    tracing on, :attr:`tracer` records spans and :attr:`gc` the collector's
    pauses; with tracing off both stay idle.
    """

    def __init__(self, *, seed: int, seconds: float, trace: bool, out_dir: Path, src: Path):
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.out_dir = out_dir
        self.src = src
        self.attempted = 0
        self.failed = 0
        self.tracer = Tracer()
        self.gc = GcMonitor(self.tracer)
        self.passes: List[str] = []
        self.setups: List[str] = []
        #: check failures, one line each; empty on a correct run
        self.problems: List[str] = []
        self.import_samples: List[float] = []
        self.peak_rss_mb = 0.0
        self._dirs: List[Path] = []

    def phase(self, label: str) -> None:
        """Attribute the spans and collector pauses that follow to *label*."""

        self.tracer.group = label
        if label.startswith("pass"):
            self.passes.append(label)
        elif label.startswith("setup"):
            self.setups.append(label)

    @contextmanager
    def pinned(self):
        """Run a single-threaded stretch on one fixed CPU.

        The host's CPUs do not run equally fast, and a process that lands
        on another CPU in the next run reads as a different program.  Every
        single-threaded phase of every run therefore runs on the lowest
        CPU this process may use; phases that fan out to worker processes
        run unpinned, because forked workers inherit the affinity.
        """

        allowed = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(allowed)})
        try:
            yield
        finally:
            os.sched_setaffinity(0, allowed)

    def settle(self) -> None:
        """Untimed housekeeping between operations, outside any phase."""

        group, self.tracer.group = self.tracer.group, "idle"
        settle()
        self.tracer.group = group

    @contextmanager
    def op(self, name: str):
        """Count one operation, inside a span of its own when tracing."""

        self.attempted += 1
        try:
            if self.trace:
                with self.tracer.span(name):
                    yield
            else:
                yield
        except Exception:
            self.failed += 1
            import traceback

            traceback.print_exc()
            raise

    def fresh_dir(self) -> Path:
        """A new empty directory under the run's output directory."""

        import tempfile

        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = Path(tempfile.mkdtemp(prefix="cache-", dir=self.out_dir))
        self._dirs.append(path)
        return path

    def drop_dir(self, path: Path) -> None:
        import shutil

        shutil.rmtree(path, ignore_errors=True)
        if path in self._dirs:
            self._dirs.remove(path)

    def cleanup(self) -> None:
        for path in list(self._dirs):
            self.drop_dir(path)
        reap_children()
