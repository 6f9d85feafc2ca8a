"""The repository benchmark: one workload per invocation.

    python3 perfbench/run.py --workload sql_analytics --seed 1 --seconds 25 --trace 0

Workloads: ``sql_analytics``, ``predictive_pipeline``, ``serving_mix`` (see
each module's docstring and ``BENCHMARK.json`` for why each exists and
which layers it bypasses).  The seed generates the inputs; the program
sees only them.  Set-up (cluster build, load, deploy, warm-up) runs
``SETUPS`` times and ``setup_s`` is the median; the last set-up is the one
measured.

``--trace 0`` runs the closed loop for ``--seconds`` and reports the
end-to-end metrics.  ``--trace 1`` alternates untraced and traced slices
of the same loop (traced: benchmark spans around every call into a layer,
the program's spans read per operation) and reports the per-layer
metrics, with the traced slices' slowdown as ``obs.trace_overhead_pct``.

Every operation's output is checked against a numpy reference built from
the generated inputs.  The last line of standard output is one JSON
object; the exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sql_analytics", "predictive_pipeline", "serving_mix")
SETUPS = 3
TRACE_SLICES = 4


def _import_engine() -> None:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no engine sources under {src}; run from a full checkout")
    sys.path[:0] = [str(src), str(HERE)]
    import repro  # noqa: F401  (fail here, not mid-run)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 inputs_hook=None) -> dict:
    """Set up, measure and check one workload; returns the result object.

    ``inputs_hook(inputs, ref)`` may edit the reference before the run
    (the smoke test corrupts it to prove the checks bite).
    """
    from common import Layers, Recorder, RegistryWindow, end_to_end, geomean, layer_metrics

    wl = importlib.import_module(name)
    inputs = wl.make_inputs(seed)
    ref = wl.reference(inputs)
    if inputs_hook is not None:
        inputs_hook(inputs, ref)

    layers = None
    if trace:
        from repro.obs import Tracer

        layers = Layers(Tracer())
    setup_seconds = []
    state = None
    for _ in range(SETUPS):
        if state is not None:
            wl.teardown(state)
            state = None  # one cluster alive at a time, for peak_rss_mb
        start = time.perf_counter()
        state = wl.setup(inputs, layers)
        setup_seconds.append(time.perf_counter() - start)

    try:
        rec = Recorder()
        clock = time.perf_counter
        if not trace:
            rec.started = clock()
            wl.run(state, ref, rec, rec.started + seconds, None, clock)
            rec.timed_seconds = clock() - rec.started
        else:
            # Untraced and traced slices alternate, so drift over the run
            # (a table growing under INSERTs) lands on both sides equally.
            traced = Recorder()
            registry = RegistryWindow(lambda: wl.registries(state))
            for index in range(TRACE_SLICES):
                side = traced if index % 2 else rec
                if side is traced:
                    registry.start()
                start = clock()
                wl.run(state, ref, side, start + seconds / TRACE_SLICES,
                       layers if side is traced else None, clock)
                side.timed_seconds += clock() - start
                if side is traced:
                    registry.stop()
            classes = [c for c in wl.SHAPE.classes if rec.latencies.get(c)
                       and traced.latencies.get(c)]
            overhead = 100.0 * (geomean(traced.median_ms(c) for c in classes)
                                / geomean(rec.median_ms(c) for c in classes) - 1.0)
            metrics = layer_metrics(layers, registry, overhead)
            rec.merge(traced)
        try:
            wl.final_check(state, inputs, ref)
        except Exception as exc:  # a failed final check fails the run
            rec.attempted += 1
            rec.fail("final", f"{type(exc).__name__}: {exc}")
    finally:
        wl.teardown(state)

    named = {}
    if rec.failed:
        metrics = {}
    elif not trace:
        named = wl.named_metrics(rec, inputs, state)
        metrics = end_to_end(rec, setup_seconds, wl.SHAPE)
    return {
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "failures": rec.failures,
        "named": named,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_engine()

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in result["failures"]:
        print(f"FAILED {line}", file=sys.stderr)
    # The workload's own figures, by the names the paper's paths use.
    for name, (value, unit) in result["named"].items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
