"""The metrics a ``BENCH_*.json`` datapoint reports mean what their names say.

``benchmarks/conftest.py`` snapshots every live registry around each
benchmark.  Only counter-like totals may become deltas: a gauge peak is the
maximum across registries and a histogram's min/max are reported as
recorded (a delta of maxima once reported ``query_seconds_max`` < 0).
"""

from __future__ import annotations

import pytest
from benchmarks.conftest import _combined_metrics, datapoint_metrics

from repro.obs.metrics import MetricsRegistry


def _ours(metrics: dict[str, float]) -> dict[str, float]:
    return {k: v for k, v in metrics.items() if k.startswith("dp_test_")}


def test_only_totals_become_deltas():
    earlier, later = MetricsRegistry(), MetricsRegistry()
    earlier.counter("dp_test_ops").add(5)
    earlier.histogram("dp_test_seconds").observe(0.5)
    earlier.gauge("dp_test_inflight").add(10)
    earlier.gauge("dp_test_inflight").add(-10)
    earlier.gauge("dp_test_bytes", watermark=True).observe_max(100)
    idle = MetricsRegistry()
    idle.histogram("dp_test_seconds")  # no observations: contributes nothing

    before = _combined_metrics()
    earlier.counter("dp_test_ops").add(2)
    later.counter("dp_test_ops").add(3)
    later.histogram("dp_test_seconds").observe(0.2)
    later.histogram("dp_test_seconds").observe(0.1)
    earlier.gauge("dp_test_inflight").add(12)
    later.gauge("dp_test_inflight").add(4)
    earlier.gauge("dp_test_bytes", watermark=True).observe_max(120)
    later.gauge("dp_test_bytes", watermark=True).observe_max(140)
    later.gauge("dp_test_untouched").add(0)
    metrics = _ours(datapoint_metrics(before, _combined_metrics()))

    assert metrics.pop("dp_test_seconds_sum") == pytest.approx(0.3)
    assert metrics == {
        "dp_test_ops": 5.0,                # counters: the test's delta
        "dp_test_seconds_count": 2.0,
        "dp_test_seconds_min": 0.1,        # histograms: as recorded
        "dp_test_seconds_max": 0.5,
        "dp_test_inflight_now": 16.0,      # level: summed, as recorded
        "dp_test_inflight_peak": 12.0,     # peaks: maximum across registries
        "dp_test_bytes": 140.0,            # watermark: maximum as well
    }
    assert all(value >= 0 for value in metrics.values())


def test_unchanged_metrics_are_left_out():
    registry = MetricsRegistry()
    registry.counter("dp_test_quiet").add(1)
    registry.histogram("dp_test_quiet_seconds").observe(2.0)
    registry.gauge("dp_test_quiet_level").add(3)
    before = _combined_metrics()
    assert _ours(datapoint_metrics(before, _combined_metrics())) == {}
