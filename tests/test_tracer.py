"""The benchmark tracer's targets still name functions the program looks up,
and its counters still read the results those functions return.

``perfbench/tracer.py`` wraps functions under the module names their
callers use.  A moved or renamed function would otherwise only show up
when a traced benchmark run refuses to start, and a changed result field
only as a nonzero ``trace.counter_errors``.
"""

import importlib
from pathlib import Path

from persvec import cli, coefficients, diagram, retrieval

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_trace_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer").Tracer()
    try:
        tracer.install()  # raises LookupError naming every missing target
    finally:
        tracer.uninstall()


# a capsule: two on-axis tips joined through an equatorial ring
CAPSULE_OFF = """OFF
6 8 0
0 0 1.5
0 0 -1
0.5 0 0
0 0.5 0
-0.5 0 0
0 -0.5 0
3 0 2 3
3 0 3 4
3 0 4 5
3 0 5 2
3 1 3 2
3 1 4 3
3 1 5 4
3 1 2 5
"""


def test_every_counter_reads_the_results_it_is_given(monkeypatch, tmp_path):
    """Each wrapped target runs once on tiny inputs; no counter hook may fail.

    The hooks duck-type results (``roots[i].multiplicity``, ``essential_count``,
    ``width``, ...), and a hook that fails only shows up as
    ``trace.counter_errors`` in a traced benchmark run.
    """
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer_module = importlib.import_module("tracer")
    db, index, matrix = tmp_path / "db", tmp_path / "index.csv", tmp_path / "d1.csv"
    mesh = tmp_path / "capsule.off"
    mesh.write_text(CAPSULE_OFF)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        assert cli.main(["synth", "--classes", "2", "--per-class", "2", "--out", str(db)]) == 0
        assert cli.main(["embed", "--diagrams", str(db), "--transform", "T",
                         "--out", str(index)]) == 0
        assert cli.main(["dist", "--index", str(index), "--metric", "d1",
                         "--out", str(matrix)]) == 0
        assert cli.main(["pr", "--matrix", str(matrix), "--labels", str(db / "labels.csv"),
                         "--out", str(tmp_path / "pr.csv")]) == 0
        for name in ("line", "plane"):
            assert cli.main(["diagram", "--mesh", str(mesh), "--filter", name,
                             "--out", str(tmp_path / f"{name}.csv")]) == 0
        labels = retrieval.parse_labels((db / "labels.csv").read_text())
        texts = {mid: (db / f"{mid}.csv").read_text() for mid in sorted(labels)}
        entries = tuple(retrieval.DatabaseEntry(mid, labels[mid], diagram.parse_diagram(text))
                        for mid, text in texts.items())
        embedded = retrieval.embed_database(retrieval.LabeledDatabase(entries), "T")
        assert len(retrieval.two_stage_query(entries[0].model_id, embedded, "T", "d1", 2)) == 3
        one = entries[0].diagram
        coefficients.transform_diagram(one, "T")
        vec = retrieval.embed_diagram(one, "T", 12)
        retrieval.coefficient_distance(vec, vec, "d1")
    finally:
        tracer.uninstall()
    assert tracer.counts["trace.counter_errors"] == 0
    assert not any(tracer.errors.values())
    assert [layer for layer in tracer_module.LAYERS if not tracer.calls[layer]] == []
