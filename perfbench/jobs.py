"""The three benchmark workloads.

Each workload writes its seeded inputs (``generate``), gets ready to be
timed (``setup``: a warm-up call, plus loading and embedding the database
where the workload keeps one in memory), runs its fixed job (``job``) as a
list of timed operations, and summarises what the program produced
(``snapshot``) so it can be compared with the reference outputs recorded in
``ref/``.

The program is driven only through ``persvec.cli.main`` and public
functions, always looked up as module attributes at call time, so the
traced run can wrap them where they are looked up.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import time

import numpy as np

import gen
from persvec import cli, diagram, retrieval


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _index_sample(path: str, pick_rows, pick_coeffs) -> dict:
    """Index rows: exact row count and (kind, M, k) per sampled row; sampled
    coefficients as ``"<id> e<j>": [re, im]`` to compare within tolerance."""
    rows = [r.split(",") for r in _read(path).splitlines()[1:]]
    exact, close = {"rows": len(rows)}, {}
    for r in pick_rows(len(rows)):
        fields = rows[r]
        exact[fields[0]] = fields[1:4]
        count = (len(fields) - 4) // 2
        for j in pick_coeffs(count):
            close[f"{fields[0]} e{j + 1}"] = [float(fields[4 + 2 * j]), float(fields[5 + 2 * j])]
    return {"exact": exact, "close": close}


def _matrix_sample(path: str, cells) -> dict:
    """Distance-matrix CSV, read a line at a time: exact id-header hash and
    row count, and the sampled ``(i, j)`` cells to compare within tolerance."""
    wanted = {i + 1 for i, _ in cells}
    rows, count = {}, 0
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        for count, line in enumerate(fh, start=1):
            if count in wanted:
                rows[count] = line.rstrip("\n").split(",")
    return {
        "exact": {"ids": _sha(header), "rows": count},
        "close": {f"{i},{j}": [float(rows[i + 1][j]), 0.0] for i, j in cells},
    }


class Workload:
    """One workload's inputs, set-up, fixed job and output summary."""

    def __init__(self, workdir: str, slot: int):
        self.workdir = workdir
        self.slot = slot
        self.rng = np.random.default_rng([slot, 2015])
        self.rankings = {}
        self.between_ops = None  # if set, called before the first operation and after each

    def path(self, *parts: str) -> str:
        return os.path.join(self.workdir, *parts)

    def run_ops(self, ops):
        """Run ``(name, call)`` pairs; a call fails by raising or returning non-zero."""
        results = []
        if self.between_ops:
            self.between_ops()
        for name, call in ops:
            t0 = time.perf_counter()
            try:
                ok = call() == 0
            except Exception:  # any crash counts against the operation
                ok = False
            results.append((name, time.perf_counter() - t0, ok))
            if self.between_ops:
                self.between_ops()
        return results

    def op_group(self, name: str) -> str:
        """The operation whose latency a timed call counts towards."""
        return name

    def setup(self) -> None:
        """Everything before the first timed operation."""
        self.load()
        self.warm_up()

    def load(self) -> None:
        """Build the in-memory state the job runs against, if any."""

    def reset(self) -> None:
        """Drop the previous job's outputs, so a failed write cannot pass as stale output."""
        shutil.rmtree(self.path("out"), ignore_errors=True)
        os.makedirs(self.path("out", "dg"))
        self.rankings = {}


class BatchSynth(Workload):
    """embed -> (dist -> pr) x {d1, d2, d3} through the CLI, N = 1000."""

    name = "batch-synth"
    METRICS = ("d1", "d2", "d3")

    def generate(self) -> None:
        gen.write_diagram_db(self.path("db"), gen.synth_points(self.rng, 20, 50, 6, 3))
        gen.write_diagram_db(self.path("warm", "db"), gen.synth_points(self.rng, 2, 2, 6, 3))

    def _pipeline(self, db: str, out: str):
        index = os.path.join(out, "index.csv")
        ops = [("embed", lambda: cli.main(
            ["embed", "--diagrams", db, "--transform", "T", "--out", index]))]
        for m in self.METRICS:
            matrix = os.path.join(out, f"{m}.csv")
            ops.append((f"dist {m}", lambda m=m, matrix=matrix: cli.main(
                ["dist", "--index", index, "--metric", m, "--out", matrix])))
            ops.append((f"pr {m}", lambda matrix=matrix, m=m: cli.main(
                ["pr", "--matrix", matrix, "--labels", os.path.join(db, "labels.csv"),
                 "--out", os.path.join(out, f"pr-{m}.csv")])))
        return ops

    def op_group(self, name: str) -> str:
        # dist and pr run on the same 1000 diagrams for d1, d2 and d3: the
        # metric is an argument, so each command's three calls pool
        return name.split()[0]

    def warm_up(self) -> None:
        os.makedirs(self.path("warm", "out"), exist_ok=True)
        self.run_ops(self._pipeline(self.path("warm", "db"), self.path("warm", "out")))

    def job(self):
        return self.run_ops(self._pipeline(self.path("db"), self.path("out")))

    def snapshot(self) -> dict:
        rng = np.random.default_rng([self.slot, 1])
        snap = {"embed": _index_sample(
            self.path("out", "index.csv"),
            lambda n: rng.choice(n, 4, replace=False).tolist(), range)}
        cells = [(int(i), int(j)) for i, j in rng.integers(0, 1000, (16, 2)) if i != j]
        for m in self.METRICS:
            snap[f"dist {m}"] = _matrix_sample(self.path("out", f"{m}.csv"), cells)
            snap[f"pr {m}"] = {"exact": _sha(_read(self.path("out", f"pr-{m}.csv")))}
        return snap


class QueryRerank(Workload):
    """Closed loop, one client: 100 two-stage queries per job, N = 300, M = 60."""

    name = "query-rerank"
    QUERIES = 100
    CANDIDATES = 10

    def __init__(self, workdir: str, slot: int):
        super().__init__(workdir, slot)
        ids = [f"c{ci:02d}m{mi:02d}" for ci in range(30) for mi in range(10)]
        picks = np.random.default_rng([slot, 3]).choice(len(ids), self.QUERIES + 1, replace=False)
        self.warm_id = ids[picks[0]]
        self.query_ids = [ids[p] for p in picks[1:]]

    def generate(self) -> None:
        gen.write_diagram_db(self.path("db"), gen.synth_points(self.rng, 30, 10, 6, 54))

    def load(self) -> None:
        labels = retrieval.parse_labels(_read(self.path("db", "labels.csv")))
        entries = tuple(
            retrieval.DatabaseEntry(
                mid, labels[mid],
                diagram.parse_diagram(_read(self.path("db", f"{mid}.csv"))))
            for mid in sorted(labels))
        self.db = retrieval.embed_database(retrieval.LabeledDatabase(entries), "T")

    def warm_up(self) -> None:
        self._query(self.warm_id)

    def _query(self, qid: str) -> int:
        """One query; its ranking is kept for the check."""
        ranking = retrieval.two_stage_query(qid, self.db, "T", "d1", self.CANDIDATES)
        self.rankings[qid] = ranking
        return 0

    def job(self):
        return self.run_ops(
            [(f"query {q}", lambda q=q: self._query(q)) for q in self.query_ids])

    def snapshot(self) -> dict:
        rng = np.random.default_rng([self.slot, 1])
        entries = self.db.entries
        vec = entries[0].vectors["T"]
        close = {}
        for p in rng.choice(len(entries), 3, replace=False).tolist():
            for j, c in enumerate(entries[p].vectors["T"].coefficients, start=1):
                close[f"{entries[p].model_id} e{j}"] = [c.real, c.imag]
        snap = {"embed": {"exact": [len(entries), vec.width, vec.count], "close": close}}
        for q in self.query_ids:
            ranking = self.rankings.get(q)
            snap[f"query {q}"] = {"exact": _sha("\n".join(ranking))[:16] if ranking else None}
        return snap


class MeshDiagram(Workload):
    """OFF mesh -> diagram CSV for 8 meshes, then embed the diagram directory."""

    name = "mesh-diagram"
    GRIDS = (100,) * 6 + (300,) * 2  # 6 meshes of 10k vertices, 2 of 90k

    def generate(self) -> None:
        os.makedirs(self.path("mesh"), exist_ok=True)
        for i, n in enumerate(self.GRIDS):
            verts, tris = gen.sphere_grid(self.rng, n, n)
            gen.write_off(self.path("mesh", f"m{i}.off"), verts, tris)
        verts, tris = gen.sphere_grid(self.rng, 10, 10)
        os.makedirs(self.path("warm", "dg"), exist_ok=True)
        gen.write_off(self.path("warm", "w.off"), verts, tris)

    def _ops(self, meshes, out: str):
        ops = []
        for i, mesh in enumerate(meshes):
            ops.append((f"diagram m{i}", lambda i=i, mesh=mesh: cli.main(
                ["diagram", "--mesh", mesh, "--filter", ("line", "plane")[i % 2],
                 "--out", os.path.join(out, "dg", f"m{i}.csv")])))
        ops.append(("embed", lambda: cli.main(
            ["embed", "--diagrams", os.path.join(out, "dg"), "--transform", "T",
             "--out", os.path.join(out, "index.csv")])))
        return ops

    def warm_up(self) -> None:
        self.run_ops(self._ops([self.path("warm", "w.off")], self.path("warm")))

    def job(self):
        meshes = [self.path("mesh", f"m{i}.off") for i in range(len(self.GRIDS))]
        return self.run_ops(self._ops(meshes, self.path("out")))

    def snapshot(self) -> dict:
        snap = {f"diagram m{i}": {"exact": _sha(_read(self.path("out", "dg", f"m{i}.csv")))}
                for i in range(len(self.GRIDS))}
        rng = np.random.default_rng([self.slot, 1])
        snap["embed"] = _index_sample(
            self.path("out", "index.csv"), range,
            lambda k: sorted(rng.choice(k, 4, replace=False).tolist()))
        return snap


WORKLOADS = {w.name: w for w in (BatchSynth, QueryRerank, MeshDiagram)}
