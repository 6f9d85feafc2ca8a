"""``predictive_pipeline``: the paper's load → train → deploy → score flow.

One driver thread repeats the Figure 3 program on a 4-node table of 8
features plus a response:

* ``vft``            — ``db2darray_with_response`` (VFT into Distributed R);
* ``glm``            — ``hpdglm`` (gaussian);
* ``kmeans``         — ``hpdkmeans`` with a fixed number of Lloyd iterations;
* ``deploy``         — ``deploy_model`` of each model (two per pass);
* ``glm_predict``    — ``glmPredict`` over the whole table;
* ``kmeans_predict`` — ``kmeansPredict`` over the whole table.

The work is in transfer, dr, algorithms and deploy, with a handful of
large statements; the statement floor and grouped aggregation are not on
its path.  The DR session (with its YARN allocation) starts once in
set-up, as a user's ``distributedR_start()`` would.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from common import Layers, Recorder, Shape, check
from sql_analytics import decode_table, traced_sql

ROWS = 100_000
FEATURES = [f"c{j}" for j in range(8)]
NODES = 4
INSTANCES_PER_NODE = 2
K = 8
KMEANS_ITERATIONS = 5

CLASSES = ("vft", "glm", "kmeans", "deploy", "glm_predict", "kmeans_predict")
#: p50 is one whole pass; p90 of the stage calls falls inside the VFT class.
SHAPE = Shape(classes=CLASSES, floor="deploy", typical=("pass",), tail=CLASSES,
              tail_percentile=90, windows=3)

GLM_PREDICT = (f"SELECT glmPredict({', '.join(FEATURES)} USING PARAMETERS "
               "model='glm_m') OVER (PARTITION BEST) FROM train")
KMEANS_PREDICT = (f"SELECT kmeansPredict({', '.join(FEATURES)} USING PARAMETERS "
                  "model='km_m') OVER (PARTITION BEST) FROM train")


@dataclass
class Inputs:
    columns: dict[str, np.ndarray]
    initial_centers: np.ndarray


def make_inputs(seed: int) -> Inputs:
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=4.0, size=(K, len(FEATURES)))
    x = centers[rng.integers(0, K, ROWS)] + rng.normal(size=(ROWS, len(FEATURES)))
    beta = rng.normal(size=len(FEATURES))
    columns = {"k": rng.integers(0, 1 << 40, ROWS),
               "y": 0.5 + x @ beta + 0.1 * rng.normal(size=ROWS)}
    columns.update({name: x[:, j].copy() for j, name in enumerate(FEATURES)})
    return Inputs(columns=columns, initial_centers=x[:K].copy())


def _matrix(inputs: Inputs) -> np.ndarray:
    return np.column_stack([inputs.columns[c] for c in FEATURES])


def _sorted_rows(matrix: np.ndarray) -> np.ndarray:
    return matrix[np.lexsort(matrix.T[::-1])]


def lloyd(x: np.ndarray, centers: np.ndarray, iterations: int) -> np.ndarray:
    """Plain Lloyd iterations (the K-means reference)."""
    for _ in range(iterations):
        labels = nearest(x, centers)
        counts = np.bincount(labels, minlength=len(centers))
        sums = np.zeros_like(centers)
        np.add.at(sums, labels, x)
        centers = np.where(counts[:, None] > 0,
                           sums / np.maximum(counts, 1)[:, None], centers)
    return centers


def nearest(x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    d2 = (x * x).sum(1)[:, None] - 2 * x @ centers.T + (centers * centers).sum(1)
    return np.argmin(d2, axis=1)


def reference(inputs: Inputs) -> dict[str, np.ndarray]:
    x = _matrix(inputs)
    y = inputs.columns["y"]
    design = np.column_stack([np.ones(len(y)), x])
    return {
        "rows": _sorted_rows(np.column_stack([y, x])),
        "beta": np.linalg.lstsq(design, y, rcond=None)[0],
        "centers": lloyd(x, inputs.initial_centers, KMEANS_ITERATIONS),
        "x": x,
    }


@dataclass
class State:
    cluster: object
    session: object
    initial_centers: np.ndarray


def setup(inputs: Inputs, layers: Layers | None) -> State:
    from repro.dr import start_session
    from repro.vertica import HashSegmentation, VerticaCluster
    from repro.yarn import NodeCapacity, ResourceManager

    cluster = VerticaCluster(node_count=NODES)
    cluster.create_table_like("train", inputs.columns, HashSegmentation("k"))
    cluster.bulk_load("train", inputs.columns)
    cluster.install_standard_functions()
    yarn = ResourceManager([NodeCapacity(cores=INSTANCES_PER_NODE, memory_bytes=8 << 30)
                            for _ in range(NODES)])
    if layers is None:
        session = start_session(NODES, INSTANCES_PER_NODE, yarn=yarn)
    else:
        with layers.op("bench.session"):
            session = start_session(NODES, INSTANCES_PER_NODE, yarn=yarn)
    state = State(cluster=cluster, session=session,
                  initial_centers=inputs.initial_centers)
    # One unchecked pass warms the UDTFs, the transfer path and the solvers.
    warm = Recorder()
    check(run_pass(state, None, warm, None), f"warm-up failed: {warm.failures}")
    return state


def teardown(state: State) -> None:
    state.session.shutdown()
    state.cluster.tuple_mover.stop()


def registries(state: State) -> list:
    return [state.cluster.telemetry.registry, state.session.telemetry.registry]


def _verify_transfer(ref, loaded) -> None:
    y, x = loaded
    got = _sorted_rows(np.column_stack([y.collect(), x.collect()]))
    check(got.shape == ref["rows"].shape, f"darray shape {got.shape}")
    check(np.array_equal(got, ref["rows"]), "darray differs from the table")


def _verify_glm(ref, model) -> None:
    check(np.allclose(model.coefficients, ref["beta"], rtol=1e-6, atol=1e-9),
          "GLM coefficients differ from lstsq")


def _verify_kmeans(ref, model) -> None:
    check(np.allclose(model.centers, ref["centers"], rtol=1e-8, atol=1e-10),
          "K-means centers differ from the Lloyd reference")


def _verify_glm_scores(ref, model, result) -> None:
    want = np.sort(model.coefficients[0] + ref["x"] @ model.coefficients[1:])
    got = np.sort(result.column("prediction"))
    check(got.shape == want.shape, f"{len(got)} predictions")
    check(np.allclose(got, want, rtol=1e-9, atol=1e-9), "glmPredict != X @ beta")


def _verify_kmeans_scores(ref, model, result) -> None:
    want = np.bincount(nearest(ref["x"], model.centers), minlength=K)
    got = np.bincount(result.column("cluster"), minlength=K)
    check(np.array_equal(got, want), "kmeansPredict != nearest centre")


def run_pass(state: State, ref, rec: Recorder, layers: Layers | None) -> bool:
    """One load → train → deploy → score pass; ``ref=None`` skips checks.
    Returns whether every operation of the pass succeeded."""
    from repro.algorithms import hpdglm, hpdkmeans
    from repro.deploy import deploy_model
    from repro.transfer import db2darray_with_response

    cluster, session = state.cluster, state.session

    def verifier(fn, *bound):
        return None if ref is None else (lambda result: fn(ref, *bound, result))

    failed = rec.failed
    loaded = rec.record("vft", lambda: db2darray_with_response(
        cluster, "train", "y", FEATURES, session), verifier(_verify_transfer))
    if loaded is None:
        return False
    y, x = loaded
    glm = rec.record("glm", lambda: hpdglm(y, x), verifier(_verify_glm))
    kmeans = rec.record("kmeans", lambda: hpdkmeans(
        x, K, initial_centers=state.initial_centers,
        max_iterations=KMEANS_ITERATIONS, tolerance=0.0), verifier(_verify_kmeans))
    if layers is not None:
        layers.note(rows_out=x.nrow)
    y.free()
    x.free()
    if glm is None or kmeans is None:
        return False
    for model, name in ((glm, "glm_m"), (kmeans, "km_m")):
        deploy = functools.partial(deploy_model, cluster, model, name, replace=True)
        if layers is not None:
            deploy = functools.partial(layers.time, "deploy.deploy", deploy)
        rec.record("deploy", deploy)
    for cls, text, fn, model in (
            ("glm_predict", GLM_PREDICT, _verify_glm_scores, glm),
            ("kmeans_predict", KMEANS_PREDICT, _verify_kmeans_scores, kmeans)):
        if layers is None:
            rec.record(cls, lambda: cluster.sql(text), verifier(fn, model))
        else:
            rec.record(cls, lambda: traced_sql(cluster, text, layers), verifier(fn, model))
    return rec.failed == failed


def run(state: State, ref, rec: Recorder, deadline: float,
        layers: Layers | None, clock) -> None:
    while clock() < deadline:
        busy = sum(rec.samples(CLASSES))
        if layers is None:
            whole = run_pass(state, ref, rec, None)
        else:
            with layers.op("bench.pass"):
                whole = run_pass(state, ref, rec, layers)
            layers.note(units=1)
        if whole:
            # A pass's time is its operations' time; checks run off the clock.
            rec.add("pass", sum(rec.samples(CLASSES)) - busy)
        if layers is not None:
            layers.time("storage.decode", lambda: decode_table(
                state.cluster, "train", ["y"] + FEATURES))


def final_check(state: State, inputs: Inputs, ref) -> None:
    n = state.cluster.sql("SELECT COUNT(*) AS n FROM train").scalar()
    check(int(n) == len(inputs.columns["y"]), f"train holds {n} rows")
    check(len(state.cluster.r_models.records()) == 2, "expected two deployed models")


def named_metrics(rec: Recorder, inputs: Inputs, state: State
                  ) -> dict[str, tuple[float, str]]:
    """The workload's own figures (medians per pass)."""
    rows = len(inputs.columns["y"])
    med = lambda cls: rec.median_ms(cls) / 1e3
    return {
        "vft_rows_s": (rows / med("vft"), "rows/s"),
        "train_s": (med("glm") + med("kmeans"), "s"),
        "predict_rows_s": (2 * rows / (med("glm_predict") + med("kmeans_predict")), "rows/s"),
        "pipeline_s": (med("pass"), "s"),
    }
