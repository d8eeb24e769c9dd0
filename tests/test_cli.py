"""End-to-end tests for the command-line surface.

Everything goes through ``main(argv)`` with real files in tmp_path, the
same way a shell user would drive it.
"""

import os
import random

import pytest

from persvec.cli import main
from persvec.diagram import parse_diagram
from persvec.retrieval import (
    DistanceMatrix,
    load_index,
    parse_matrix,
    parse_pr_table,
    serialize_matrix,
    serialize_labels,
    two_stage_query,
)


def run(*argv):
    return main(list(argv))


def capsule_off(top, radius):
    """Closed-ish capsule: two on-axis tips joined through an equatorial ring.

    Both tips sit on the symmetry axis, so the line filter has two local
    minima and the degree-0 diagram is non-empty.  The unequal tip heights
    keep the weighted direction vector away from zero.
    """
    verts = [
        (0.0, 0.0, top),
        (0.0, 0.0, -1.0),
        (radius, 0.0, 0.0),
        (0.0, radius, 0.0),
        (-radius, 0.0, 0.0),
        (0.0, -radius, 0.0),
    ]
    tris = [
        (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 2),
        (1, 3, 2), (1, 4, 3), (1, 5, 4), (1, 2, 5),
    ]
    lines = ["OFF", f"{len(verts)} {len(tris)} 0"]
    lines += [f"{x} {y} {z}" for x, y, z in verts]
    lines += ["3 {} {} {}".format(*t) for t in tris]
    return "\n".join(lines) + "\n"


def test_synth_embed_dist_pr_query_roundtrip(tmp_path, capsys):
    d = tmp_path / "db"
    index = tmp_path / "index.csv"
    mat = tmp_path / "mat.csv"
    pr = tmp_path / "pr.csv"

    assert run("synth", "--classes", "3", "--per-class", "4", "--out", str(d)) == 0
    files = sorted(os.listdir(d))
    assert "labels.csv" in files
    assert len(files) == 13  # 12 diagrams + labels

    assert run("embed", "--diagrams", str(d), "--transform", "T", "--out", str(index)) == 0
    db = load_index(str(index))
    vec = db.entries[0].vectors["T"]
    # every synthetic diagram has 6 base + 3 noise points, so the width is 9
    # and the default coefficient count is floor(sqrt(9)) = 3
    assert vec.width == 9
    assert vec.count == 3

    assert run("dist", "--index", str(index), "--metric", "d1", "--out", str(mat)) == 0
    matrix = parse_matrix(mat.read_text())
    assert len(matrix.ids) == 12

    assert run("pr", "--matrix", str(mat), "--labels", str(d / "labels.csv"), "--out", str(pr)) == 0
    table = parse_pr_table(pr.read_text())
    assert table.rows[-1][0] == 1.0
    assert all(0.0 <= p <= 1.0 for _, p in table.rows)

    capsys.readouterr()
    assert run(
        "query", "--index", str(index), "--diagrams", str(d),
        "--id", "c00m00", "--metric", "d3", "--candidates", "5",
    ) == 0
    printed = capsys.readouterr().out.strip().splitlines()
    assert len(printed) == 11
    assert "c00m00" not in printed

    # stdout must agree with the library call on the same data
    full = load_index(str(index))
    merged = []
    from persvec.retrieval import DatabaseEntry, LabeledDatabase

    for e in full.entries:
        diag = parse_diagram((d / f"{e.model_id}.csv").read_text())
        merged.append(DatabaseEntry(e.model_id, "", diag, dict(e.vectors)))
    expected = two_stage_query("c00m00", LabeledDatabase(tuple(merged)), "T", "d3", 5)
    assert printed == list(expected)


def test_mesh_pipeline_end_to_end(tmp_path):
    meshes = tmp_path / "meshes"
    diagrams = tmp_path / "diagrams"
    meshes.mkdir()
    diagrams.mkdir()
    shapes = {"m0": (1.5, 0.5), "m1": (1.6, 0.5), "m2": (1.5, 0.4), "m3": (1.2, 0.6)}
    for name, (top, radius) in shapes.items():
        (meshes / f"{name}.off").write_text(capsule_off(top, radius))
        assert run(
            "diagram", "--mesh", str(meshes / f"{name}.off"),
            "--filter", "line", "--out", str(diagrams / f"{name}.csv"),
        ) == 0
        diag = parse_diagram((diagrams / f"{name}.csv").read_text())
        # two on-axis minima merge through the ring: one finite pair 0 -> 1
        assert [(p.birth, p.death, p.multiplicity) for p in diag.points] == [(0.0, 1.0, 1)]
        assert diag.essential_count == 1

    (diagrams / "labels.csv").write_text(
        serialize_labels({"m0": "a", "m1": "a", "m2": "b", "m3": "b"})
    )
    index = tmp_path / "index.csv"
    mat = tmp_path / "mat.csv"
    pr = tmp_path / "pr.csv"
    assert run("embed", "--diagrams", str(diagrams), "--transform", "R", "--out", str(index)) == 0
    assert run("dist", "--index", str(index), "--metric", "d2", "--out", str(mat)) == 0
    assert run("pr", "--matrix", str(mat), "--labels", str(diagrams / "labels.csv"), "--out", str(pr)) == 0
    for artifact in (index, mat, pr):
        assert artifact.exists()
    assert parse_pr_table(pr.read_text()).rows

    # the plane filter also runs on the same mesh
    out = tmp_path / "plane.csv"
    assert run(
        "diagram", "--mesh", str(meshes / "m0.off"), "--filter", "plane", "--out", str(out)
    ) == 0
    parse_diagram(out.read_text())


def test_pr_perfect_matrix_gives_unit_precision(tmp_path):
    ids = ("a0", "a1", "b0", "b1")
    values = [
        [0.0, 0.1, 5.0, 6.0],
        [0.1, 0.0, 7.0, 5.0],
        [5.0, 7.0, 0.0, 0.2],
        [6.0, 5.0, 0.2, 0.0],
    ]
    mat = tmp_path / "mat.csv"
    labels = tmp_path / "labels.csv"
    out = tmp_path / "pr.csv"
    mat.write_text(serialize_matrix(DistanceMatrix(ids, values)))
    labels.write_text(serialize_labels({"a0": "a", "a1": "a", "b0": "b", "b1": "b"}))
    assert run("pr", "--matrix", str(mat), "--labels", str(labels), "--out", str(out)) == 0
    table = parse_pr_table(out.read_text())
    assert [r for r, _ in table.rows] == [1.0]
    assert all(p == 1.0 for _, p in table.rows)


def test_dist_metric_source_mismatch(tmp_path, capsys):
    d = tmp_path / "db"
    index = tmp_path / "index.csv"
    assert run("synth", "--classes", "2", "--per-class", "2", "--out", str(d)) == 0
    assert run("embed", "--diagrams", str(d), "--transform", "S", "--out", str(index)) == 0
    capsys.readouterr()

    out = tmp_path / "mat.csv"
    assert run("dist", "--index", str(index), "--metric", "bottleneck", "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1

    assert run("dist", "--diagrams", str(d), "--metric", "d1", "--out", str(out)) == 1
    assert run("dist", "--metric", "d1", "--out", str(out)) == 1
    assert run("dist", "--metric", "bottleneck", "--out", str(out)) == 1
    assert not out.exists()


def test_threads_give_identical_matrix(tmp_path):
    d = tmp_path / "db"
    assert run("synth", "--classes", "2", "--per-class", "3", "--out", str(d)) == 0
    one = tmp_path / "one.csv"
    three = tmp_path / "three.csv"
    assert run("dist", "--diagrams", str(d), "--metric", "bottleneck", "--out", str(one)) == 0
    assert run(
        "dist", "--diagrams", str(d), "--metric", "bottleneck",
        "--threads", "3", "--out", str(three),
    ) == 0
    assert one.read_text() == three.read_text()


def test_synth_is_seed_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    c = tmp_path / "c"
    for out, seed in ((a, "7"), (b, "7"), (c, "8")):
        assert run(
            "synth", "--classes", "2", "--per-class", "2", "--seed", seed, "--out", str(out)
        ) == 0
    assert (a / "c00m00.csv").read_text() == (b / "c00m00.csv").read_text()
    assert (a / "labels.csv").read_text() == (b / "labels.csv").read_text()
    assert (a / "c00m00.csv").read_text() != (c / "c00m00.csv").read_text()


def test_query_rejects_diagram_wider_than_index(tmp_path, capsys):
    d = tmp_path / "db"
    index = tmp_path / "index.csv"
    assert run(
        "synth", "--classes", "2", "--per-class", "2",
        "--base-points", "2", "--noise-points", "1", "--out", str(d),
    ) == 0
    assert run("embed", "--diagrams", str(d), "--transform", "R", "--out", str(index)) == 0

    # grow one diagram past the stored width of 3
    target = d / "c01m01.csv"
    target.write_text(target.read_text() + "0.1,0.9\n0.2,0.8\n0.3,0.7\n")
    capsys.readouterr()
    assert run(
        "query", "--index", str(index), "--diagrams", str(d),
        "--id", "c00m00", "--metric", "d1", "--candidates", "2",
    ) == 1
    err = capsys.readouterr().err
    assert "re-embed" in err
    assert len(err.strip().splitlines()) == 1


def test_failures_exit_one_with_single_line(tmp_path, capsys):
    out = tmp_path / "out.csv"
    cases = [
        ("dist", "--index", str(tmp_path / "missing.csv"), "--metric", "d1", "--out", str(out)),
        ("diagram", "--mesh", str(tmp_path / "no.off"), "--filter", "line", "--out", str(out)),
        ("embed", "--diagrams", str(tmp_path), "--transform", "R", "--out", str(out)),  # empty dir
        ("embed", "--diagrams", str(tmp_path), "--transform", "Q", "--out", str(out)),
        ("frobnicate",),
        ("diagram", "--mesh", "x", "--filter", "square", "--out", str(out)),
        (),
    ]
    for argv in cases:
        capsys.readouterr()
        assert run(*argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error:"), argv
        assert len(err.strip().splitlines()) == 1, argv
    assert not out.exists()


def test_empty_index_is_rejected(tmp_path, capsys):
    index = tmp_path / "index.csv"
    index.write_text("# coefficient-index v1\n")
    out = tmp_path / "mat.csv"
    for argv in (
        ("dist", "--index", str(index), "--metric", "d1", "--out", str(out)),
        ("query", "--index", str(index), "--diagrams", str(tmp_path), "--id", "a",
         "--candidates", "1"),
    ):
        capsys.readouterr()
        assert run(*argv) == 1, argv
        assert capsys.readouterr().err == "error: the index is empty\n", argv
    assert not out.exists()


def test_bad_index_row_is_one_error_line_naming_it(tmp_path, capsys):
    index = tmp_path / "index.csv"
    index.write_text("# coefficient-index v1\na,R,3,0\n")
    out = tmp_path / "mat.csv"
    capsys.readouterr()
    assert run("dist", "--index", str(index), "--metric", "d1", "--out", str(out)) == 1
    assert capsys.readouterr().err == "error: line 2: need between 1 and 3 coefficients, got 0\n"
    assert not out.exists()


def test_bad_mesh_leaves_no_output(tmp_path, capsys):
    mesh = tmp_path / "bad.off"
    mesh.write_text("OFF\n2 1 0\n0 0 0\n1 1 1\n4 0 1 0 1\n")
    out = tmp_path / "diagram.csv"
    assert run("diagram", "--mesh", str(mesh), "--filter", "line", "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert not out.exists()
    assert list(tmp_path.iterdir()) == [mesh]  # no temp leftovers either


def test_pr_rejects_singleton_class_without_partial_file(tmp_path):
    mat = tmp_path / "mat.csv"
    labels = tmp_path / "labels.csv"
    out = tmp_path / "pr.csv"
    ids = ("x", "y", "z")
    mat.write_text(
        serialize_matrix(DistanceMatrix(ids, [[0, 1, 2], [1, 0, 3], [2, 3, 0]]))
    )
    labels.write_text(serialize_labels({"x": "a", "y": "a", "z": "b"}))
    assert run("pr", "--matrix", str(mat), "--labels", str(labels), "--out", str(out)) == 1
    assert not out.exists()


def test_malformed_off_is_one_error_line(tmp_path, capsys):
    out = tmp_path / "diagram.csv"
    bodies = {
        "ragged.off": "OFF\n2 0 0\n0 0\n0 0 0 0\n",
        "number.off": "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1.5.0 0\n3 0 1 2\n",
        "index.off": "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 99999999999999999999\n",
        "huge.off": "OFF\n3 1 0\n1e308 0 0\n1e308 1 0\n0 1 0\n3 0 1 2\n",
        "far.off": "OFF\n3 1 0\n1e200 0 0\n0 0 0\n0 1 0\n3 0 1 2\n",
    }
    for name, text in bodies.items():
        mesh = tmp_path / name
        mesh.write_text(text)
        capsys.readouterr()
        assert run("diagram", "--mesh", str(mesh), "--filter", "line", "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1, name
        assert not out.exists(), name
        if name == "index.off":
            assert err.strip() == "error: face 0 has an index that is not a 64-bit integer"
        if name in ("huge.off", "far.off"):  # the sum or the squares overflow
            assert err.startswith("error: vertex coordinates too large"), name
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(bodies)


@pytest.mark.parametrize("name", ["#c00m00", " c00m00", "c00m00 "])
def test_diagram_file_name_that_would_not_read_back_fails_embed(tmp_path, capsys, name):
    d = tmp_path / "db"
    index = tmp_path / "index.csv"
    assert run("synth", "--classes", "2", "--per-class", "3", "--out", str(d)) == 0
    os.rename(d / "c00m00.csv", d / f"{name}.csv")
    capsys.readouterr()
    assert run("embed", "--diagrams", str(d), "--transform", "T", "--out", str(index)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: model id {name!r} must not") and err.count("\n") == 1
    assert not index.exists()


JUNK = ["", " ", "x", "#", "#x", "nan", "inf", "-inf", "-0.0", "0", "-1", "7", "1e308",
        "-1e308", "5e-324", "99999999999999999999", "R", "Q", "c00m01", "\x1c", "é"]
STRAY = ["", "  ", "#", "# stray, comment", "junk", ",", ",,,", "0,1", "c00m00,x"]


def mutated(text: str, rng: random.Random, sep: str = ",") -> str:
    """``text`` with 1-3 ``sep``-separated fields dropped, duplicated or junked, or stray
    lines added."""
    lines = text.splitlines()
    for _ in range(rng.randint(1, 3)):
        how = rng.choice(("drop", "duplicate", "junk", "insert", "stray", "copy"))
        i = rng.randrange(len(lines))
        if how in ("stray", "copy"):
            extra = rng.choice(STRAY) if how == "stray" else lines[i]
            lines.insert(rng.randint(0, len(lines)), extra)
            continue
        fields = lines[i].split(sep)
        j = rng.randrange(len(fields))
        if how == "drop":
            del fields[j]
        elif how == "duplicate":
            fields.insert(j, fields[j])
        else:  # "junk" replaces field j, "insert" puts a junk field before it
            fields[j : j + (how == "junk")] = [rng.choice(JUNK)]
        lines[i] = sep.join(fields)
    return "\n".join(lines) + "\n"


def check_exit(code: int, err: str, out, context) -> None:
    """Exit 0 with nothing on stderr, or exit 1 with one ``error:`` line and no output file."""
    if code == 0:
        assert err == "", context
        out.unlink(missing_ok=True)
    else:
        assert code == 1, context
        assert err.startswith("error: ") and err.count("\n") == 1, context
        assert err.endswith("\n") and not out.exists(), context


def test_fuzzed_inputs_exit_zero_or_one_error_line(tmp_path, capsys):
    d = tmp_path / "db"
    index, mat, out = tmp_path / "index.csv", tmp_path / "mat.csv", tmp_path / "out.csv"
    assert run("synth", "--classes", "2", "--per-class", "3", "--seed", "5", "--out", str(d)) == 0
    assert run("embed", "--diagrams", str(d), "--transform", "T", "--out", str(index)) == 0
    assert run("dist", "--index", str(index), "--metric", "d1", "--out", str(mat)) == 0
    labels = d / "labels.csv"
    embed = ("embed", "--diagrams", str(d), "--transform", "S", "--out", str(out))
    bottleneck = ("dist", "--diagrams", str(d), "--metric", "bottleneck", "--out", str(out))
    dist = ("dist", "--index", str(index), "--metric", "d2", "--out", str(out))
    pr = ("pr", "--matrix", str(mat), "--labels", str(labels), "--out", str(out))
    query = ("query", "--index", str(index), "--diagrams", str(d), "--id", "c00m00",
             "--metric", "d1", "--candidates", "3")
    readers = {
        d / "c00m00.csv": (embed, bottleneck, query),
        d / "c01m02.csv": (embed, query),
        index: (dist, query),
        mat: (pr,),
        labels: (pr,),
    }
    rng = random.Random(2024)
    exits = set()
    for case in range(300):
        path = rng.choice(sorted(readers))
        original = path.read_text()
        path.write_text(mutated(original, rng))
        for argv in readers[path]:
            capsys.readouterr()
            code = run(*argv)
            err = capsys.readouterr().err
            check_exit(code, err, out, (case, path.name, argv[0], path.read_text(), err))
            exits.add(code)
        path.write_text(original)
    assert exits == {0, 1}


def test_fuzzed_off_exits_zero_or_one_error_line(tmp_path, capsys):
    mesh, out = tmp_path / "mesh.off", tmp_path / "diagram.csv"
    original = capsule_off(1.5, 0.8)
    rng = random.Random(2025)
    exits = set()
    for case in range(300):
        text = mutated(original, rng, sep=" ")
        mesh.write_text(text)
        capsys.readouterr()
        code = run("diagram", "--mesh", str(mesh), "--filter", rng.choice(["line", "plane"]),
                   "--out", str(out))
        err = capsys.readouterr().err
        check_exit(code, err, out, (case, text, err))
        assert sorted(tmp_path.iterdir()) == [mesh], (case, text)  # no temp file left
        exits.add(code)
    assert exits == {0, 1}


def test_constant_filter_is_one_error_line(tmp_path, capsys):
    # three vertices on one line: every vertex lies on the frame axis
    mesh, out = tmp_path / "mesh.off", tmp_path / "diagram.csv"
    mesh.write_text("OFF\n3 0 0\n0 0 0\n0 0 1\n0 0 3\n")
    capsys.readouterr()
    code = run("diagram", "--mesh", str(mesh), "--filter", "line", "--out", str(out))
    err = capsys.readouterr().err
    check_exit(code, err, out, err)
    assert err == "error: line-distance filter is constant across the mesh\n"


def test_overflowing_distances_give_no_warning_lines(tmp_path, capsys):
    # differences of finite values beyond the float range become inf silently,
    # as in the scalar references; a non-finite matrix is then one error line
    d = tmp_path / "db"
    index, out = tmp_path / "index.csv", tmp_path / "out.csv"
    assert run("synth", "--classes", "2", "--per-class", "3", "--out", str(d)) == 0
    assert run("embed", "--diagrams", str(d), "--transform", "T", "--out", str(index)) == 0
    header, *rows = index.read_text().splitlines()
    for i, huge in ((0, "1e308"), (1, "-1e308")):
        fields = rows[i].split(",")
        fields[4] = huge
        rows[i] = ",".join(fields)
    index.write_text("\n".join([header, *rows]) + "\n")
    (d / "c00m00.csv").write_text("-1e308,1e308\n0,1\n")
    capsys.readouterr()
    assert run("dist", "--index", str(index), "--metric", "d1", "--out", str(out)) == 1
    assert capsys.readouterr().err == "error: matrix entries must be finite\n"
    assert run("query", "--index", str(index), "--diagrams", str(d), "--id", "c00m01",
               "--metric", "d1", "--candidates", "2") == 0
    assert capsys.readouterr().err == ""
    assert run("dist", "--diagrams", str(d), "--metric", "bottleneck", "--out", str(out)) == 0
    assert capsys.readouterr().err == ""
