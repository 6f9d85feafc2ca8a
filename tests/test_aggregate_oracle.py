"""Differential tests of SQL aggregation against stdlib ``sqlite3``.

The same rows go into a cluster and into an in-memory sqlite database, and
every statement's answer must match sqlite's: the same groups in the same
(key) order, integers and strings exactly, floats to 1e-9 relative (the
engine sums in another order).  The matrix covers

* group counts 1 / 10 / 1000 / 10k;
* layouts: several bulk loads (many row groups per segment) and trickle
  INSERTs still held in the WOS, on 1 and 4 nodes, plus the eager
  (materialize-per-node) pipeline;
* int, string and two-column composite group keys;
* COUNT(*), COUNT(x), COUNT(DISTINCT x), SUM, AVG, MIN, MAX;
* HAVING, ORDER BY ... LIMIT, empty input, a WHERE the zone maps prune
  entirely, and a join with GROUP BY;
* the truncated sign of ``%`` / ``MOD`` and exact integer ``SUM``.

The data holds no NULLs: ``COUNT(x)`` here counts every row, as sqlite's
does when no value is NULL.
"""

from __future__ import annotations

import sqlite3

import numpy as np
import pytest

from repro.vertica import HashSegmentation, PipelineConfig, VerticaCluster
from repro.vertica.txn.mover import TupleMoverConfig

GROUP_COUNTS = (1, 10, 1_000, 10_000)
#: (name, nodes, rows held back and trickled in through INSERT, pipeline mode)
LAYOUTS = (
    ("bulk-1node", 1, 0, "streaming"),
    ("bulk-4node", 4, 0, "streaming"),
    ("wos-1node", 1, 240, "streaming"),
    ("wos-4node", 4, 240, "streaming"),
    ("eager-4node", 4, 0, "eager"),
)
LOAD_CHUNKS = 5  # bulk loads per table: several row groups per segment
INSERT_ROWS = 12  # rows per trickle INSERT statement
KEYS = {"int": "gi", "string": "gs", "composite": "ga, gb"}
DIM_ROWS = 50

SQLITE_TYPES = {"k": "INTEGER", "gi": "INTEGER", "gs": "TEXT", "ga": "INTEGER",
                "gb": "TEXT", "x": "INTEGER", "f": "REAL"}


def make_rows(groups: int, seed: int) -> dict[str, np.ndarray]:
    """Rows where every one of ``groups`` keys occurs (shuffled)."""
    rng = np.random.default_rng(seed)
    n = 2 * groups + 1_000
    gi = rng.permutation(np.arange(n) % groups)
    return {
        "k": rng.integers(0, 1 << 40, n),
        "gi": gi,
        "gs": np.asarray([f"s{v:05d}" for v in gi], dtype=object),
        "ga": gi // 10,
        "gb": np.asarray([f"b{v % 10}" for v in gi], dtype=object),
        "x": rng.integers(-1_000, 1_000, n),
        "f": rng.normal(size=n),
    }


def _literal(value) -> str:
    return repr(value) if isinstance(value, str) else repr(value.item())


class Pair:
    """One data set loaded into a cluster and into sqlite."""

    def __init__(self, nodes: int, trickle: int, mode: str,
                 rows: dict[str, np.ndarray]) -> None:
        self.cluster = VerticaCluster(
            node_count=nodes, pipeline=PipelineConfig(mode=mode),
            # Thresholds no test reaches: trickled rows stay in the WOS.
            mover=TupleMoverConfig(moveout_rows=1 << 40,
                                   moveout_age_seconds=1e9))
        self.db = sqlite3.connect(":memory:")
        self.load("t", rows, trickle)

    def load(self, table: str, rows: dict[str, np.ndarray], trickle: int = 0) -> None:
        names = list(rows)
        self.cluster.create_table_like(table, rows, HashSegmentation(names[0]))
        self.db.execute(f"CREATE TABLE {table} ("
                        + ", ".join(f"{c} {SQLITE_TYPES.get(c, 'INTEGER')}"
                                    for c in names) + ")")
        n = len(rows[names[0]])
        bulk = n - trickle
        for bounds in np.array_split(np.arange(bulk), LOAD_CHUNKS):
            if len(bounds):
                self.cluster.bulk_load(
                    table, {c: a[bounds[0]:bounds[-1] + 1] for c, a in rows.items()})
        for start in range(bulk, n, INSERT_ROWS):
            values = ", ".join(
                "(" + ", ".join(_literal(rows[c][i]) for c in names) + ")"
                for i in range(start, min(start + INSERT_ROWS, n)))
            self.cluster.sql(f"INSERT INTO {table} VALUES {values}")
        self.db.executemany(
            f"INSERT INTO {table} VALUES ({', '.join('?' * len(names))})",
            list(zip(*(rows[c].tolist() for c in names))))

    def check(self, text: str, oracle: str | None = None) -> list[tuple]:
        """Run ``text`` on both; ``oracle`` is sqlite's spelling when it
        differs.  Returns the cluster's rows."""
        got = self.cluster.sql(text).rows()
        want = self.db.execute(oracle or text).fetchall()
        assert_same_rows(got, want, text)
        return got

    def close(self) -> None:
        self.cluster.tuple_mover.stop()
        self.db.close()


def assert_same_rows(got: list[tuple], want: list[tuple], text: str) -> None:
    assert len(got) == len(want), f"{len(got)} rows, sqlite {len(want)}: {text}"
    for row, (g, w) in enumerate(zip(got, want)):
        assert len(g) == len(w), text
        for a, b in zip(g, w):
            if isinstance(b, float):
                assert isinstance(a, float) and a == pytest.approx(b, rel=1e-9, abs=1e-9), \
                    f"row {row}: {g} != sqlite {w}: {text}"
            else:
                assert type(a) is type(b) and a == b, \
                    f"row {row}: {g} != sqlite {w}: {text}"


@pytest.fixture(scope="module", params=[
    (layout, groups) for layout in LAYOUTS for groups in GROUP_COUNTS
], ids=lambda p: f"{p[0][0]}-{p[1]}groups")
def pair(request):
    (_, nodes, trickle, mode), groups = request.param
    p = Pair(nodes, trickle, mode, make_rows(groups, seed=groups + nodes))
    if trickle:
        segments = p.cluster.catalog.get_table("t").all_segments()
        assert sum(segment.wos_rows for segment in segments) == trickle
    yield p
    p.close()


AGGREGATES = ("COUNT(*) AS n, COUNT(x) AS nx, COUNT(DISTINCT x) AS dx, "
              "SUM(x) AS sx, SUM(f) AS sf, AVG(x) AS ax, AVG(f) AS af, "
              "MIN(x) AS lo, MAX(x) AS hi, MIN(f) AS flo, MAX(f) AS fhi, "
              "MIN(gs) AS slo, MAX(gs) AS shi")


@pytest.mark.parametrize("key", list(KEYS))
def test_grouped_aggregates_in_key_order(pair, key):
    keys = KEYS[key]
    pair.check(f"SELECT {keys}, {AGGREGATES} FROM t GROUP BY {keys}",
               f"SELECT {keys}, {AGGREGATES} FROM t GROUP BY {keys} ORDER BY {keys}")


def test_global_aggregates(pair):
    pair.check(f"SELECT {AGGREGATES} FROM t")


def test_having(pair):
    text = ("SELECT gs, COUNT(*) AS n, SUM(x) AS sx FROM t GROUP BY gs "
            "HAVING COUNT(*) > 2 AND SUM(x) > 0")
    pair.check(text, text + " ORDER BY gs")


def test_order_by_limit(pair):
    pair.check("SELECT ga, gb, SUM(x) AS sx, COUNT(*) AS n FROM t GROUP BY ga, gb "
               "ORDER BY sx DESC, ga, gb LIMIT 7")


def test_where_pruned_entirely(pair):
    # k >= 0 everywhere: the zone maps prune every row group.
    pair.check("SELECT COUNT(*) AS n, SUM(x) AS sx, AVG(f) AS af, MIN(gs) AS lo "
               "FROM t WHERE k < -5")
    pair.check("SELECT gi, COUNT(*) AS n FROM t WHERE k < -5 GROUP BY gi")


def test_join_group_by(pair):
    if "d" not in [t.lower() for t in pair.cluster.catalog.table_names()]:
        rng = np.random.default_rng(1)
        pair.load("d", {"id": np.arange(DIM_ROWS, dtype=np.int64),
                        "cat": rng.integers(0, 5, DIM_ROWS)})
    text = ("SELECT d.cat, COUNT(*) AS n, SUM(t.x) AS sx, MAX(t.f) AS hi "
            "FROM t JOIN d ON t.ga = d.id GROUP BY d.cat")
    pair.check(text, text + " ORDER BY d.cat")


def test_modulo_truncates_toward_zero(pair):
    text = ("SELECT x % 7 AS m, COUNT(*) AS n, SUM(x % -3) AS s, "
            "SUM(MOD(x, 5)) AS s5 FROM t GROUP BY x % 7")
    pair.check(text, "SELECT x % 7 AS m, COUNT(*) AS n, SUM(x % -3) AS s, "
                     "SUM(x % 5) AS s5 FROM t GROUP BY x % 7 ORDER BY m")


# -- single cases -------------------------------------------------------------


@pytest.fixture()
def small():
    p = Pair(4, 0, "streaming", make_rows(10, seed=3))
    yield p
    p.close()


def test_modulo_sign_of_literals(small):
    rows = small.check("SELECT 7 % -3 AS a, -7 % 3 AS b, MOD(-7, 3) AS c, "
                       "MOD(7, -3) AS d, COUNT(*) AS n FROM t",
                       "SELECT 7 % -3, -7 % 3, -7 % 3, 7 % -3, COUNT(*) FROM t")
    assert rows[0][:4] == (1, -1, -1, 1)


def test_integer_sum_is_exact(small):
    big = 2 ** 55 + 7  # float64 cannot hold sums of these exactly
    rows = {"id": np.arange(24, dtype=np.int64),
            "g": np.arange(24, dtype=np.int64) % 3,
            "big": np.full(24, big, dtype=np.int64)}
    small.load("huge", rows, trickle=6)
    got = small.check("SELECT SUM(big) AS s FROM huge")
    assert got == [(24 * big,)]
    small.check("SELECT g, SUM(big) AS s, SUM(DISTINCT big) AS d FROM huge GROUP BY g",
                "SELECT g, SUM(big), SUM(DISTINCT big) FROM huge GROUP BY g ORDER BY g")


def test_empty_table(small):
    small.load("empty", {"id": np.zeros(0, dtype=np.int64),
                         "v": np.zeros(0, dtype=np.int64)})
    small.check("SELECT COUNT(*) AS n, COUNT(v) AS nv, SUM(v) AS s, AVG(v) AS a, "
                "MIN(v) AS lo, MAX(v) AS hi FROM empty")
    small.check("SELECT v, COUNT(*) AS n FROM empty GROUP BY v")
