"""Shared machinery of the repository benchmark: operation recording,
summary statistics, registry reading and span self time.

Nothing here imports the engine; the workload modules do.  The
benchmark's own spans are opened on a private :class:`repro.obs.Tracer`
(passed in as ``Layers.tracer``) around every call into the program, so
the program's spans nest under them and are read per operation — the
program's own tracers keep only their last 256 roots and would silently
drop early statements.
"""

from __future__ import annotations

import contextlib
import math
import resource
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator


class CheckFailed(Exception):
    """An operation's output disagreed with the reference."""


def check(condition: bool, message: str) -> None:
    """Raise :class:`CheckFailed` unless ``condition`` holds."""
    if not condition:
        raise CheckFailed(message)


# -- operation recording -------------------------------------------------------


@dataclass
class Recorder:
    """Latency per operation class plus attempted/failed counts.

    A failed operation (exception, refused statement, failed check) counts
    as attempted and failed and contributes no latency sample.
    """

    latencies: dict[str, list[float]] = field(default_factory=dict)
    #: (completion time, class, latency) of every successful operation.
    events: list[tuple[float, str, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    started: float = 0.0
    timed_seconds: float = 0.0

    def record(self, cls: str, fn: Callable[[], Any],
               verify: Callable[[Any], None] | None = None) -> Any:
        """Time ``fn()``; run ``verify(result)`` after the clock stops."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # a failed operation is a measurement
            self.fail(cls, f"{type(exc).__name__}: {exc}")
            return None
        done = time.perf_counter()
        elapsed = done - start
        if verify is not None:
            try:
                verify(result)
            except CheckFailed as exc:
                self.fail(cls, str(exc))
                return result
        self.latencies.setdefault(cls, []).append(elapsed)
        self.events.append((done, cls, elapsed))
        return result

    def add(self, cls: str, elapsed: float) -> None:
        """Record a latency measured by the caller (a composite operation)."""
        self.latencies.setdefault(cls, []).append(elapsed)
        self.events.append((time.perf_counter(), cls, elapsed))

    def fail(self, cls: str, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(f"{cls}: {message}")

    def merge(self, other: "Recorder") -> None:
        for cls, values in other.latencies.items():
            self.latencies.setdefault(cls, []).extend(values)
        self.events.extend(other.events)
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures.extend(other.failures[:10 - len(self.failures)])

    def samples(self, classes: Iterable[str]) -> list[float]:
        return [v for cls in classes for v in self.latencies.get(cls, [])]

    def median_ms(self, cls: str) -> float:
        return 1e3 * statistics.median(self.latencies[cls])

    def completed(self, classes: Iterable[str]) -> int:
        return sum(len(self.latencies.get(cls, [])) for cls in classes)


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (``numpy.percentile`` default)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def geomean(values: Iterable[float]) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def window(rec: Recorder, index: int, count: int) -> Recorder:
    """The operations that completed in the ``index``-th of ``count``
    equal time slices of the timed phase."""
    span = rec.timed_seconds / count
    lo, hi = rec.started + index * span, rec.started + (index + 1) * span
    part = Recorder(started=lo, timed_seconds=span)
    for done, cls, elapsed in rec.events:
        if lo <= done < hi:
            part.latencies.setdefault(cls, []).append(elapsed)
    return part


@dataclass(frozen=True)
class Shape:
    """How one workload's operation classes map onto the shared metrics."""

    classes: tuple[str, ...]   # every operation class: ops_s, class_geomean_ms
    floor: str                 # the cheapest fixed-cost class: floor_ms
    typical: tuple[str, ...]   # the classes p50_ms is taken over
    tail: tuple[str, ...]      # the classes tail_ms is taken over
    tail_percentile: float     # tail_ms percentile (each slice keeps >= 10 samples beyond it)
    windows: int               # time slices each timing metric is the median of


def slices(rec: Recorder, most: int, enough: Callable[[Recorder], bool]) -> list[Recorder]:
    """The most (at most ``most``) equal time slices of which every one is
    ``enough``; the whole run if no split is."""
    for count in range(most, 1, -1):
        parts = [window(rec, i, count) for i in range(count)]
        if all(enough(part) for part in parts):
            return parts
    return [window(rec, 0, 1)]


def end_to_end(rec: Recorder, setup_seconds: list[float],
               shape: Shape) -> dict[str, tuple[float, str]]:
    """The metrics every workload reports, computed the same way for all.

    Each timing metric is the median of its value over up to
    ``shape.windows`` equal time slices of the run, so a burst of
    interference on the machine moves one slice, not the result.  A run
    too short to give every slice every class uses fewer slices; the tail
    uses as many as still leave ten samples beyond its percentile in each.
    """
    needed = set(shape.classes) | set(shape.typical) | set(shape.tail)
    parts = slices(rec, shape.windows, lambda part: needed <= set(part.latencies))
    beyond = 1.0 - shape.tail_percentile / 100.0
    tail_parts = slices(rec, shape.windows,
                        lambda part: len(part.samples(shape.tail)) * beyond >= 10)

    def median_of(fn: Callable[[Recorder], float], over: list[Recorder]) -> float:
        return statistics.median(fn(part) for part in over)

    return {
        "setup_s": (statistics.median(setup_seconds), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "ops_s": (median_of(lambda p: p.completed(shape.classes) / p.timed_seconds,
                            parts), "1/s"),
        "p50_ms": (median_of(lambda p: 1e3 * percentile(p.samples(shape.typical), 50),
                             parts), "ms"),
        "tail_ms": (median_of(lambda p: 1e3 * percentile(p.samples(shape.tail),
                                                         shape.tail_percentile),
                              tail_parts), "ms"),
        "floor_ms": (median_of(lambda p: p.median_ms(shape.floor), parts), "ms"),
        "class_geomean_ms": (median_of(lambda p: geomean(p.median_ms(c) for c in shape.classes),
                                       parts), "ms"),
    }


# -- registries ------------------------------------------------------------------


def read_registries(registries: Iterable[Any]) -> dict[str, dict[str, float]]:
    """One kind-aware reading of every instrument in ``registries``.

    Counters and a histogram's count and sum add up across registries;
    gauges keep the highest peak.  Nothing is flattened into suffixed
    keys, so a histogram's ``max`` or a gauge's ``peak`` can never be
    mistaken for a counter and differenced.
    """
    out: dict[str, dict[str, float]] = {}
    for registry in registries:
        for inst in registry.instruments():
            slot = out.setdefault(inst.name, {})
            kind = inst.spec.kind
            if kind == "counter":
                slot["value"] = slot.get("value", 0.0) + inst.value
            elif kind == "gauge":
                slot["peak"] = max(slot.get("peak", 0.0), inst.peak)
            else:
                stats = inst.stats()
                slot["count"] = slot.get("count", 0) + stats["count"]
                slot["sum"] = slot.get("sum", 0.0) + stats["sum"]
    return out


class RegistryWindow:
    """Registry movement summed over one or more ``start``/``stop`` intervals.

    Only counters and a histogram's cumulative count and sum are
    differenced; peaks are read as they stand at the last ``stop``.
    """

    def __init__(self, registries: Callable[[], Iterable[Any]]) -> None:
        self._registries = registries
        self._before: dict[str, dict[str, float]] = {}
        self._last: dict[str, dict[str, float]] = {}
        self._moved: dict[tuple[str, str], float] = {}

    def start(self) -> None:
        self._before = read_registries(self._registries())

    def stop(self) -> None:
        self._last = read_registries(self._registries())
        for name, slot in self._last.items():
            for key in ("value", "count", "sum"):
                if key in slot:
                    moved = slot[key] - self._before.get(name, {}).get(key, 0.0)
                    self._moved[name, key] = self._moved.get((name, key), 0.0) + moved

    def counter(self, name: str) -> float:
        return self._moved.get((name, "value"), 0.0)

    def peak(self, name: str) -> float:
        return self._last.get(name, {}).get("peak", 0.0)

    def histogram_mean(self, name: str) -> float:
        """Mean of the samples a histogram recorded inside the window."""
        return ratio(self._moved.get((name, "sum"), 0.0),
                     self._moved.get((name, "count"), 0.0))


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# -- spans -------------------------------------------------------------------------


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_time(span: Any) -> float:
    """The span's duration minus the part of it its children cover.

    Children run on pool threads in parallel, so the overlap is taken as
    the union of their intervals, never their sum.
    """
    end = span.end if span.end is not None else time.perf_counter()
    children = [(c.start, c.end if c.end is not None else end)
                for c in span.children]
    return (end - span.start) - covered(children, span.start, end)


class Layers:
    """Per-layer observations of a traced run.

    ``time(name, fn)`` times one call into a layer's public function
    under a benchmark span; ``absorb(span)`` folds a finished operation's
    span tree — the benchmark span plus every program span nested under
    it — into per-name duration and self-time lists.
    """

    def __init__(self, tracer: Any) -> None:
        self.tracer = tracer
        self.calls: dict[str, list[float]] = {}
        self.durations: dict[str, list[float]] = {}
        self.self_times: dict[str, list[float]] = {}
        self.seen_roots: set[int] = set()
        self.rows_out = 0          # rows returned by the statements run
        self.units = 0             # workload units (statement or pass)
        self.inserted_bytes = 0    # raw bytes of rows INSERTed
        self._lock = threading.Lock()

    def note(self, units: int = 0, rows_out: int = 0, inserted_bytes: int = 0) -> None:
        """Count workload units, rows returned and bytes inserted."""
        with self._lock:
            self.units += units
            self.rows_out += rows_out
            self.inserted_bytes += inserted_bytes

    def time(self, name: str, fn: Callable[[], Any]) -> Any:
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        with self._lock:
            self.calls.setdefault(name, []).append(elapsed)
        return result

    @contextlib.contextmanager
    def op(self, name: str) -> Iterator[Any]:
        with self.tracer.span(name, root=True) as span:
            yield span
        self.absorb(span)

    def absorb(self, root: Any, function: str = "") -> None:
        """Record every span of the tree; spans under a transform-function
        operator are also keyed by its function (``udtf.instance/glmpredict``)
        so scoring can be told apart from VFT export."""
        name = root.name
        if name == "udtf":
            function = str(root.attributes.get("function", ""))
        keys = [name, f"{name}/{function}"] if function else [name]
        with self._lock:
            for key in keys:
                self.durations.setdefault(key, []).append(root.duration)
                self.self_times.setdefault(key, []).append(self_time(root))
        for child in list(root.children):
            self.absorb(child, function)

    def absorb_new_roots(self, tracer: Any, names: set[str]) -> None:
        """Fold in finished background roots (Tuple Mover passes) not yet
        seen; call often enough that the tracer's bounded deque has not
        dropped any."""
        fresh = []
        with self._lock:
            for root in tracer.roots():
                if root.name in names and root.end is not None \
                        and root.span_id not in self.seen_roots:
                    self.seen_roots.add(root.span_id)
                    fresh.append(root)
        for root in fresh:
            self.absorb(root)

    def count(self, name: str) -> int:
        return len(self.durations.get(name, []))


#: Operator roots and their per-node children, as the executor names them.
OPERATOR_SPANS = ("scan", "aggregate", "join", "udtf")
NODE_SPANS = ("scan.node", "aggregate.node", "udtf.instance")
#: Prediction UDTFs as the catalog names them (lower case).
PREDICT_FUNCTIONS = ("glmpredict", "kmeanspredict")


def layer_metrics(layers: Layers, registry: RegistryWindow,
                  overhead_pct: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, from the traced phase of any workload.

    A layer the workload never enters reads 0 (no calls, no spans, no
    counter movement).  Counts are per workload unit (one statement, or
    one pipeline pass) so they compare across runs of different length.
    """
    per_unit = max(layers.units, 1)

    def median_of(values: list[float]) -> float:
        return 1e3 * statistics.median(values) if values else 0.0

    def pooled(source: dict[str, list[float]], names: Iterable[str]) -> list[float]:
        return [v for name in names for v in source.get(name, [])]

    def med(source: dict[str, list[float]], name: str) -> float:
        return median_of(source.get(name, []))

    operator_self = pooled(layers.self_times, OPERATOR_SPANS)
    node_busy = pooled(layers.durations, NODE_SPANS)
    predict_udtf = [f"udtf/{f}" for f in PREDICT_FUNCTIONS]
    predict_instances = [f"udtf.instance/{f}" for f in PREDICT_FUNCTIONS]
    transfers = layers.count("vft.transfer")
    plan_hits = registry.counter("plan_cache_hits")
    result_hits = registry.counter("result_cache_hits")
    rewrites = registry.counter("aqp_rewrites")
    batches = registry.counter("batches_scanned")
    pruned = registry.counter("rowgroups_pruned")
    return {
        "sql.parse_ms": (med(layers.calls, "sql.parse"), "ms"),
        "sql.analyze_ms": (med(layers.calls, "sql.analyze"), "ms"),
        "planner.plan_ms": (med(layers.calls, "planner.plan"), "ms"),
        "executor.self_ms": (median_of(operator_self), "ms"),
        "executor.node_ms": (median_of(node_busy), "ms"),
        "executor.rows_scanned_per_row_out": (
            ratio(registry.counter("rows_scanned"), layers.rows_out), "rows/row"),
        "executor.rowgroups_pruned_ratio": (ratio(pruned, pruned + batches), "ratio"),
        "storage.decompress_ms": (med(layers.calls, "storage.decode"), "ms"),
        "storage.bytes_decoded": (registry.counter("bytes_scanned") / per_unit, "bytes"),
        "pipeline.backpressure_s": (
            registry.counter("pipeline_backpressure_seconds") / per_unit, "s"),
        "pipeline.inflight_peak_bytes": (registry.peak("pipeline_inflight_bytes"), "bytes"),
        "txn.write_ms": (med(layers.calls, "txn.write"), "ms"),
        "txn.moveout_ms": (med(layers.durations, "txn.moveout"), "ms"),
        "txn.mergeout_ms": (med(layers.durations, "txn.mergeout"), "ms"),
        "txn.write_amp": (
            ratio(registry.counter("mergeout_bytes_rewritten"), layers.inserted_bytes),
            "ratio"),
        "transfer.db_side_ms": (
            1e3 * ratio(registry.counter("vft_db_seconds"), transfers), "ms"),
        "transfer.r_side_ms": (
            1e3 * ratio(registry.counter("vft_r_seconds"), transfers), "ms"),
        "transfer.frames": (ratio(registry.counter("vft_frames_received"), transfers),
                            "count"),
        "transfer.frame_bytes": (registry.histogram_mean("vft_frame_bytes"), "bytes"),
        "transfer.retries": (registry.counter("transfer_retries") / per_unit, "count"),
        "dr.task_ms": (med(layers.durations, "dr.task"), "ms"),
        "dr.tasks": (registry.counter("dr_tasks") / per_unit, "count"),
        "algorithms.fold_step_ms": (med(layers.durations, "ml.fold.step"), "ms"),
        "algorithms.iterations": (layers.count("ml.fold.step") / per_unit, "count"),
        "deploy.deploy_ms": (med(layers.calls, "deploy.deploy"), "ms"),
        "deploy.score_ms": (median_of(pooled(layers.durations, predict_udtf)), "ms"),
        "deploy.udtf_self_ms": (
            median_of(pooled(layers.self_times, predict_instances)), "ms"),
        "serving.admit_wait_ms": (
            1e3 * registry.histogram_mean("admission_queue_seconds"), "ms"),
        "serving.execute_ms": (med(layers.durations, "serve.execute"), "ms"),
        "serving.plan_cache_hit_ratio": (
            ratio(plan_hits, plan_hits + registry.counter("plan_cache_misses")), "ratio"),
        "serving.result_cache_hit_ratio": (
            ratio(result_hits, result_hits + registry.counter("result_cache_misses")),
            "ratio"),
        "serving.rejected": (registry.counter("statements_rejected"), "count"),
        "aqp.rewrite_ms": (med(layers.durations, "aqp.rewrite"), "ms"),
        "aqp.sample_answer_ratio": (
            ratio(rewrites, rewrites + registry.counter("aqp_fallbacks")), "ratio"),
        "yarn.allocate_ms": (med(layers.durations, "yarn.allocate"), "ms"),
        "obs.trace_overhead_pct": (overhead_pct, "%"),
    }
