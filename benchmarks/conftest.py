"""Shared benchmark fixtures and helpers.

Every benchmark has two layers:

* a **real run** through the functional engines at laptop scale, timed by
  pytest-benchmark, with the paper's qualitative shape asserted (who wins,
  does it scale, where does it plateau);
* the **paper-scale replay** through :mod:`repro.perfmodel`, attached to the
  benchmark's ``extra_info`` so the JSON output records the modelled
  paper-scale series next to the measured laptop-scale timing.

Every benchmark run can also leave a trace artifact behind: the autouse
``export_trace`` fixture below collects the spans recorded by every live
tracer during the test and writes one chrome-trace-compatible JSON file per
benchmark under ``benchmarks/.traces/`` (override with ``REPRO_TRACE_DIR``,
disable with ``REPRO_TRACE_DIR=off``).  Load a file in ``about:tracing`` or
Perfetto, or read the ``spans``/``metrics`` keys directly — see
``docs/observability.md``.

Next to those traces, the autouse ``bench_datapoint`` fixture writes one
``BENCH_<figure>.json`` per benchmark module (``<figure>`` is the module
stem minus its ``bench_`` prefix): a list of datapoints carrying each
test's wall time and the metrics it produced, so a harness
can diff figures across runs without parsing chrome traces.
"""

from __future__ import annotations

import json
import os
import re
import time
from pathlib import Path

import numpy as np
import pytest

from repro.obs.export import write_trace_artifact
from repro.obs.metrics import all_registries
from repro.obs.trace import all_tracers
from repro.vertica import HashSegmentation, VerticaCluster


@pytest.fixture(autouse=True)
def export_trace(request):
    """Write one trace artifact per benchmark (chrome-trace + spans + metrics).

    Collects the root spans every live tracer recorded *during* this test
    and bundles them with a snapshot of every live metrics registry.  Set
    ``REPRO_TRACE_DIR`` to choose the output directory, or ``off`` to skip.
    """
    trace_dir = os.environ.get("REPRO_TRACE_DIR", "")
    if trace_dir.lower() == "off":
        yield
        return
    t0 = time.perf_counter()
    yield
    roots = [
        root
        for tracer in all_tracers()
        for root in tracer.roots()
        if root.start >= t0
    ]
    if not roots:
        return
    out_dir = Path(trace_dir) if trace_dir else Path(__file__).parent / ".traces"
    name = re.sub(r"[^A-Za-z0-9_.-]+", "_", request.node.nodeid)
    write_trace_artifact(
        out_dir / f"{name}.trace.json",
        roots,
        registries=all_registries(),
        meta={"test": request.node.nodeid},
    )


#: How each histogram statistic combines across registries.
_HISTOGRAM_RULES = {"count": "total", "sum": "total", "min": "min", "max": "max"}
_COMBINE = {"total": sum, "level": sum, "peak": max, "min": min, "max": max}


def _combined_metrics() -> dict[str, tuple[str, float]]:
    """Every live metric key combined across registries, with its rule.

    ``total`` keys (counters, histogram ``_count``/``_sum``) only grow, so
    a test's share is a delta; ``level`` keys (gauge ``_now``) sum across
    registries; ``peak`` keys (gauge ``_peak``, watermark gauges) and
    histogram ``_max`` take the maximum, histogram ``_min`` the minimum.
    Histograms with no observations contribute nothing.
    """
    combined: dict[str, tuple[str, float]] = {}
    for registry in all_registries():
        for instrument in registry.instruments():
            name, kind = instrument.name, instrument.spec.kind
            snapshot: dict[str, float] = {}
            instrument.snapshot_into(snapshot)
            if kind == "histogram" and not snapshot[f"{name}_count"]:
                continue
            for key, value in snapshot.items():
                if kind == "counter":
                    rule = "total"
                elif kind == "histogram":
                    rule = _HISTOGRAM_RULES[key[len(name) + 1:]]
                else:
                    rule = "level" if key == f"{name}_now" else "peak"
                if key in combined:
                    value = _COMBINE[rule]((combined[key][1], value))
                combined[key] = (rule, value)
    return combined


def datapoint_metrics(before: dict[str, tuple[str, float]],
                      after: dict[str, tuple[str, float]]) -> dict[str, float]:
    """What a test produced, from combined snapshots taken around it.

    Totals report their non-zero delta.  Gauge levels and peaks report the
    value as recorded when the test changed it (a new key counts from
    zero); a histogram's ``_min``/``_max`` as recorded whenever the test
    observed into it.
    """
    def delta(key: str) -> float:
        return after[key][1] - before.get(key, ("", 0.0))[1]

    out: dict[str, float] = {}
    for key, (rule, value) in sorted(after.items()):
        if rule in ("min", "max"):
            if delta(f"{key[:-len(rule)]}count"):
                out[key] = value
        elif delta(key):
            out[key] = delta(key) if rule == "total" else value
    return out


#: Figures whose BENCH_*.json has been truncated this session, so repeated
#: runs replace stale datapoints instead of appending to them forever.
_BENCH_RESET: set[Path] = set()


@pytest.fixture(autouse=True)
def bench_datapoint(request):
    """Append one datapoint to this module's ``BENCH_<figure>.json``.

    A datapoint is the test's wall time plus the metrics it produced,
    combined across every live registry (see :func:`datapoint_metrics`):
    counter deltas (instruments created during the test count from zero),
    and gauge levels, peaks and histogram minimums/maximums as recorded.
    Files land next to the chrome-trace artifacts and honor the same
    ``REPRO_TRACE_DIR`` override / ``off`` switch.  Peak/watermark keys
    are deliberately kept: a drop in ``peak_batch_bytes`` between runs is
    as much a regression signal as a slowdown.
    """
    trace_dir = os.environ.get("REPRO_TRACE_DIR", "")
    if trace_dir.lower() == "off":
        yield
        return
    before = _combined_metrics()
    t0 = time.perf_counter()
    yield
    wall = time.perf_counter() - t0
    metrics = datapoint_metrics(before, _combined_metrics())
    figure = re.sub(r"^bench_", "", request.node.path.stem)
    out_dir = Path(trace_dir) if trace_dir else Path(__file__).parent / ".traces"
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / f"BENCH_{figure}.json"
    if out_path in _BENCH_RESET and out_path.exists():
        doc = json.loads(out_path.read_text())
    else:
        doc = {"figure": figure, "datapoints": []}
        _BENCH_RESET.add(out_path)
    datapoint = {
        "test": request.node.nodeid,
        "wall_seconds": round(wall, 6),
        "metrics": metrics,
    }
    # Derived figures a benchmark computed itself (QPS, percentiles, ...)
    # arrive via pytest's record_property and ride along in the datapoint.
    if request.node.user_properties:
        properties = {
            key: value for key, value in request.node.user_properties
        }
        # Accuracy is a headline figure for approximate-query benchmarks:
        # promote it so harnesses can threshold it without digging into
        # per-test properties.
        if "realized_error" in properties:
            datapoint["realized_error"] = properties["realized_error"]
        datapoint["properties"] = properties
    doc["datapoints"].append(datapoint)
    out_path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def build_numeric_table(node_count: int, rows: int, features: int, seed: int = 0,
                        table: str = "bench") -> tuple[VerticaCluster, list[str]]:
    """A hash-segmented numeric table for transfer/prediction benchmarks."""
    rng = np.random.default_rng(seed)
    columns = {"k": rng.integers(0, 1_000_000, rows)}
    names = []
    for j in range(features):
        name = f"c{j}"
        names.append(name)
        columns[name] = rng.normal(size=rows)
    cluster = VerticaCluster(node_count=node_count)
    cluster.create_table_like(table, columns, HashSegmentation("k"))
    cluster.bulk_load(table, columns)
    return cluster, names


@pytest.fixture(scope="session")
def paper_profile():
    from repro.perfmodel import SL390

    return SL390
