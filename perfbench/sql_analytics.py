"""``sql_analytics``: single SQL statements on a 4-node hash-segmented table.

One client runs a closed loop of statements through ``VerticaCluster.sql``.
All of the work is in the SQL front end, planner, executor, pipeline and
storage; nothing touches transfer, Distributed R or serving.  Five
statement classes:

* ``floor``  — a ``COUNT(*)`` whose predicate the zone maps prune entirely:
  the fixed per-statement cost;
* ``scan``   — a filtered ``SUM`` over every row (scan throughput);
* ``few``    — ``GROUP BY`` over 10 groups;
* ``many``   — ``GROUP BY`` over 1000 groups, sized to run in about 1 s
  (the aggregate loop costs groups x rows);
* ``join``   — a hash join to a 1000-row dimension table, grouped.

Each round runs the classes in a fixed interleaved order with the weights
in ``ROUND``.  The deadline is checked between rounds, so every run is
whole rounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from common import Layers, Recorder, Shape, check

ROWS = 100_000
LOAD_CHUNK = 25_000
GROUPS_MANY = 1_000
DIM_ROWS = 1_000
NODES = 4

CLASSES = ("floor", "scan", "few", "many", "join")
#: One round: 60 floor, 4 scan, 4 few, 3 join and 2 many statements.  The
#: floor's latency spreads widely, so it gets most of the samples; p50
#: falls inside the floor class and p95 inside the join class, neither
#: near a class boundary.  Metrics are taken over whole rounds (one
#: window): a time slice cutting rounds would shift the class mix.
ROUND = ((["floor"] * 5 + ["scan", "few"]) * 4
         + ["join"] + ["floor"] * 10 + ["many"] + ["floor"] * 10 + ["join"]
         + ["floor"] * 10 + ["many"] + ["floor"] * 10 + ["join"])
SHAPE = Shape(classes=CLASSES, floor="floor", typical=CLASSES, tail=CLASSES,
              tail_percentile=95, windows=1)


@dataclass
class Inputs:
    facts: dict[str, np.ndarray]
    dim: dict[str, np.ndarray]
    floor_bounds: list[int]
    scan_thresholds: list[int]


def make_inputs(seed: int) -> Inputs:
    rng = np.random.default_rng(seed)
    facts = {
        "k": rng.integers(0, 1 << 40, ROWS),
        "ts": np.arange(ROWS, dtype=np.int64),
        "g": rng.integers(0, 10, ROWS),
        "gm": rng.integers(0, GROUPS_MANY, ROWS),
        "d": rng.integers(0, DIM_ROWS, ROWS),
        "w": rng.integers(0, 100, ROWS),
        "v": rng.normal(size=ROWS),
    }
    dim = {
        "id": np.arange(DIM_ROWS, dtype=np.int64),
        "cat": rng.integers(0, 20, DIM_ROWS),
    }
    return Inputs(
        facts=facts, dim=dim,
        floor_bounds=[int(b) for b in ROWS + rng.integers(0, 1000, 8)],
        scan_thresholds=[int(t) for t in rng.integers(10, 90, 8)],
    )


def _grouped(keys: np.ndarray, values: np.ndarray) -> dict[str, np.ndarray]:
    uniq, codes = np.unique(keys, return_inverse=True)
    return {
        "key": uniq,
        "s": np.bincount(codes, weights=values, minlength=len(uniq)),
        "n": np.bincount(codes, minlength=len(uniq)),
    }


def statements(inputs: Inputs) -> dict[str, list[str]]:
    """Every statement text of each class (variants rotate round by round)."""
    return {
        "floor": [f"SELECT COUNT(*) AS n FROM facts WHERE ts >= {b}"
                  for b in inputs.floor_bounds],
        "scan": [f"SELECT SUM(v) AS s, COUNT(*) AS n FROM facts WHERE w > {t}"
                 for t in inputs.scan_thresholds],
        "few": ["SELECT g, SUM(v) AS s, COUNT(*) AS n FROM facts GROUP BY g"],
        "many": ["SELECT gm, SUM(v) AS s, COUNT(*) AS n FROM facts GROUP BY gm"],
        "join": ["SELECT d.cat, SUM(f.v) AS s, COUNT(*) AS n "
                 "FROM facts f JOIN dim d ON f.d = d.id GROUP BY d.cat"],
    }


def reference(inputs: Inputs) -> dict[str, list[dict[str, np.ndarray]]]:
    """Numpy answers for every statement of :func:`statements`, same order."""
    f = inputs.facts
    return {
        "floor": [{"n": np.array([int(np.sum(f["ts"] >= b))])}
                  for b in inputs.floor_bounds],
        "scan": [{"s": np.array([f["v"][f["w"] > t].sum()]),
                  "n": np.array([int(np.sum(f["w"] > t))])}
                 for t in inputs.scan_thresholds],
        "few": [_grouped(f["g"], f["v"])],
        "many": [_grouped(f["gm"], f["v"])],
        "join": [_grouped(inputs.dim["cat"][f["d"]], f["v"])],
    }


def verify(result, expected: dict[str, np.ndarray]) -> None:
    """Compare a result set with a reference: keys and counts exactly,
    float sums to 1e-9 relative (the engine sums in another order)."""
    names = result.column_names
    if "key" in expected:
        order = np.argsort(result.column(names[0]), kind="stable")
        check(np.array_equal(result.column(names[0])[order], expected["key"]),
              "group keys differ from the reference")
    else:
        order = np.arange(len(result))
    for name in ("s", "n"):
        if name not in expected:
            continue
        got = np.asarray(result.column(name))[order]
        want = expected[name]
        check(got.shape == want.shape, f"{name}: {got.shape} rows, want {want.shape}")
        if name == "n":
            check(np.array_equal(got.astype(np.int64), want), f"counts differ in {name}")
        else:
            check(np.allclose(got, want, rtol=1e-9, atol=1e-9), f"sums differ in {name}")


@dataclass
class State:
    cluster: object
    texts: dict[str, list[str]]


def setup(inputs: Inputs, layers: Layers | None) -> State:
    from repro.vertica import HashSegmentation, VerticaCluster

    cluster = VerticaCluster(node_count=NODES)
    facts = inputs.facts
    cluster.create_table_like("facts", facts, HashSegmentation("k"))
    rows = len(facts["k"])
    # Chunked loads give every segment several row groups, so the zone
    # maps have something to prune.
    for start in range(0, rows, LOAD_CHUNK):
        cluster.bulk_load("facts", {c: a[start:start + LOAD_CHUNK]
                                    for c, a in facts.items()})
    cluster.create_table_like("dim", inputs.dim, HashSegmentation("id"))
    cluster.bulk_load("dim", inputs.dim)
    state = State(cluster=cluster, texts=statements(inputs))
    for cls in ("floor", "scan", "few", "join"):  # warm every operator once
        cluster.sql(state.texts[cls][0])
    return state


def teardown(state: State) -> None:
    state.cluster.tuple_mover.stop()


def registries(state: State) -> list:
    return [state.cluster.telemetry.registry]


def traced_sql(cluster, text: str, layers: Layers):
    """One statement split at the layer boundaries ``cluster.sql`` crosses:
    parse, semantic analysis, then execution of the analyzed statement
    (which plans it; operator and node spans nest under the benchmark
    span)."""
    from repro.vertica.sql import parse

    stmt = layers.time("sql.parse", lambda: parse(text))
    resolved = layers.time("sql.analyze", lambda: cluster.executor.analyze(stmt))
    result = cluster.executor.execute(stmt, resolved=resolved)
    layers.note(rows_out=len(result))
    return result


def time_planning(cluster, text: str, layers: Layers) -> None:
    """Time the planner alone on a fresh copy of the statement, after the
    statement itself has run: the executor plans inside ``execute`` and
    exposes no span for it."""
    from repro.vertica.planner import plan_select
    from repro.vertica.sql import ast, parse

    stmt = parse(text)
    if isinstance(stmt, ast.Select) and stmt.join is None:
        resolved = cluster.executor.analyze(stmt)
        layers.time("planner.plan", lambda: plan_select(stmt, resolved))


def decode_table(cluster, table: str, columns: list[str]) -> int:
    """Decode every ROS row group of ``table`` once (the storage layer
    alone: no scan operator, no pruning); returns decoded bytes."""
    nbytes = 0
    for segment in cluster.catalog.get_table(table).all_segments():
        for rowgroup in segment.capture().rowgroups:
            nbytes += sum(a.nbytes for a in rowgroup.read(columns).values())
    return nbytes


def run(state: State, ref, rec: Recorder, deadline: float,
        layers: Layers | None, clock) -> None:
    cluster = state.cluster
    round_index = 0
    while clock() < deadline:
        for position, cls in enumerate(ROUND):
            texts = state.texts[cls]
            variant = (round_index * len(ROUND) + position) % len(texts)
            text, expected = texts[variant], ref[cls][variant]
            if layers is None:
                rec.record(cls, lambda: cluster.sql(text),
                           lambda r: verify(r, expected))
            else:
                with layers.op("bench.sql"):
                    rec.record(cls, lambda: traced_sql(cluster, text, layers),
                               lambda r: verify(r, expected))
                layers.note(units=1)
                time_planning(cluster, text, layers)
        if layers is not None:
            layers.time("storage.decode", lambda: decode_table(
                cluster, "facts", ["g", "gm", "d", "w", "v"]))
        round_index += 1


def final_check(state: State, inputs: Inputs, ref) -> None:
    n = state.cluster.sql("SELECT COUNT(*) AS n FROM facts").scalar()
    check(int(n) == len(inputs.facts["k"]), f"facts holds {n} rows")


def named_metrics(rec: Recorder, inputs: Inputs, state: State
                  ) -> dict[str, tuple[float, str]]:
    """The workload's own figures: the median of each statement class."""
    scan_bytes = inputs.facts["v"].nbytes + inputs.facts["w"].nbytes
    return {
        "sql_floor_ms": (rec.median_ms("floor"), "ms"),
        "sql_scan_mb_s": (scan_bytes / 1e6 / (rec.median_ms("scan") / 1e3), "MB/s"),
        "sql_groupby_few_ms": (rec.median_ms("few"), "ms"),
        "sql_groupby_many_ms": (rec.median_ms("many"), "ms"),
        "sql_join_ms": (rec.median_ms("join"), "ms"),
    }
