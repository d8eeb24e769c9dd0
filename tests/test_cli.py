"""End-to-end tests for the command-line surface.

Everything goes through ``main(argv)`` with real files in tmp_path, the
same way a shell user would drive it.
"""

import errno
import hashlib
import os
import random
import subprocess
import sys

import numpy as np
import pytest

from persvec import mesh as mesh_module
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
from persvec.transforms import embed_radial


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
    # A multiplicity of 2**45 is within the rule, but expanding it needs
    # 256 TiB, beyond any address space, so the allocation fails at once.
    huge = tmp_path / "huge"
    huge.mkdir()
    (huge / "a.csv").write_text(f"0,1,{2**45}\n")
    (huge / "b.csv").write_text("0,2\n")
    # an index of two models, and a diagram directory that holds only one
    work = tmp_path / "work"
    index, part = work / "index.csv", work / "part"
    assert run("synth", "--classes", "1", "--per-class", "2", "--out", str(work / "db")) == 0
    assert run("embed", "--diagrams", str(work / "db"), "--transform", "R", "--out", str(index)) == 0
    part.mkdir()
    (part / "c00m00.csv").write_text((work / "db" / "c00m00.csv").read_text())
    cases = [
        (("embed", "--diagrams", str(huge), "--transform", "R", "--out", str(out)), ""),
        (("dist", "--diagrams", str(huge), "--metric", "bottleneck", "--out", str(out)), ""),
        (("dist", "--index", str(tmp_path / "missing.csv"), "--metric", "d1", "--out", str(out)),
         f"[Errno {errno.ENOENT}]"),
        (("diagram", "--mesh", str(tmp_path / "no.off"), "--filter", "line", "--out", str(out)),
         f"[Errno {errno.ENOENT}]"),
        (("embed", "--diagrams", str(tmp_path), "--transform", "R", "--out", str(out)),  # empty dir
         "no diagram CSV files"),
        (("embed", "--diagrams", str(tmp_path / "nodir"), "--transform", "R", "--out", str(out)),
         "not a directory"),
        (("query", "--index", str(index), "--diagrams", str(part), "--id", "c00m00",
          "--candidates", "1"),
         "no diagram file for indexed model 'c00m01'"),
        (("embed", "--diagrams", str(tmp_path), "--transform", "Q", "--out", str(out)),
         "argument --transform"),
        (("frobnicate",), "argument command"),
        (("diagram", "--mesh", "x", "--filter", "square", "--out", str(out)), "argument --filter"),
        ((), "the following arguments are required"),
    ]
    for argv, message in cases:
        capsys.readouterr()
        assert run(*argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}"), argv
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
    assert capsys.readouterr().err == "error: line 2: count must be between 1 and 3, got 0\n"
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


def test_failed_rename_names_the_destination_and_leaves_no_temp_file(tmp_path, capsys):
    d = tmp_path / "db"
    assert run("synth", "--classes", "2", "--per-class", "2", "--out", str(d)) == 0
    target = tmp_path / "target"
    target.mkdir()  # the rename onto a directory fails after the temp file is written
    capsys.readouterr()
    assert run("embed", "--diagrams", str(d), "--transform", "R", "--out", str(target)) == 1
    err = capsys.readouterr().err
    assert err == f"error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: {str(target)!r}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["db", "target"]
    assert list(target.iterdir()) == []


def test_failed_rename_with_unremovable_temp_file_names_the_destination(tmp_path, capsys, monkeypatch):
    d = tmp_path / "db"
    assert run("synth", "--classes", "2", "--per-class", "2", "--out", str(d)) == 0

    def fail(code):
        def call(path, *args):
            raise OSError(code, os.strerror(code), path)
        return call

    monkeypatch.setattr(os, "replace", fail(errno.EXDEV))
    monkeypatch.setattr(os, "unlink", fail(errno.EACCES))  # the temp file stays
    capsys.readouterr()
    index = tmp_path / "index.csv"
    assert run("embed", "--diagrams", str(d), "--transform", "R", "--out", str(index)) == 1
    err = capsys.readouterr().err
    assert err == f"error: [Errno {errno.EXDEV}] {os.strerror(errno.EXDEV)}: {str(index)!r}\n"
    assert [p.name.startswith(".part-") for p in tmp_path.iterdir() if p != d] == [True]


def test_uncreatable_temp_file_names_the_destination(tmp_path, capsys, monkeypatch):
    d = tmp_path / "db"
    assert run("synth", "--classes", "2", "--per-class", "2", "--out", str(d)) == 0
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    assert run("embed", "--diagrams", "db", "--transform", "R", "--out", "nodir/x.csv") == 1
    err = capsys.readouterr().err
    assert err == f"error: [Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: 'nodir/x.csv'\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["db"]


def test_taken_temp_name_is_drawn_again(tmp_path, monkeypatch):
    d = tmp_path / "db"
    assert run("synth", "--classes", "2", "--per-class", "2", "--out", str(d)) == 0
    taken = tmp_path / f".part-{bytes(8).hex()}"  # another writer's temp file
    taken.write_text("theirs")
    draws, urandom = [], os.urandom

    def repeat_once(n):  # the taken name first, then fresh ones
        draws.append(n)
        return bytes(n) if len(draws) == 1 else urandom(n)

    monkeypatch.setattr(os, "urandom", repeat_once)
    index = tmp_path / "index.csv"
    assert run("embed", "--diagrams", str(d), "--transform", "R", "--out", str(index)) == 0
    assert len(draws) == 2 and len(load_index(index).entries) == 4
    assert taken.read_text() == "theirs"
    assert sorted(p.name for p in tmp_path.glob(".part-*")) == [taken.name]


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
            assert err.strip() == ("error: triangle (0, 1, 99999999999999999999) has an index that is not "
                                   "a 64-bit integer")
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


def sphere_grid_off(rng, n_lat, n_lon):
    """OFF text of a noisy, bulged latitude/longitude sphere grid (no pole vertices)."""
    theta = (np.arange(n_lat) + 0.5) * (np.pi / n_lat)
    phi = np.arange(n_lon) * (2.0 * np.pi / n_lon)
    th, ph = np.meshgrid(theta, phi, indexing="ij")
    radius = 1.0 + 0.3 * np.maximum(np.cos(th), 0.0) + 0.03 * rng.standard_normal(th.shape)
    verts = np.stack([radius * np.sin(th) * np.cos(ph), radius * np.sin(th) * np.sin(ph),
                      radius * np.cos(th)], axis=-1).reshape(-1, 3)
    i, j = np.meshgrid(np.arange(n_lat - 1), np.arange(n_lon), indexing="ij")
    v00, v01 = i * n_lon + j, i * n_lon + (j + 1) % n_lon
    tris = np.concatenate([np.stack([v00, v00 + n_lon, v01 + n_lon], axis=-1).reshape(-1, 3),
                           np.stack([v00, v01 + n_lon, v01], axis=-1).reshape(-1, 3)])
    lines = ["OFF", f"{len(verts)} {len(tris)} 0"]
    lines += ["%.6f %.6f %.6f" % tuple(v) for v in verts.tolist()]
    lines += ["3 %d %d %d" % tuple(t) for t in tris.tolist()]
    return "\n".join(lines) + "\n"


# SHA-256 of the index files `embed` wrote before embedding became one array
# pass; the array pass must reproduce every byte
INDEX_SHA256 = {
    ("synth", "R", None):
        "bb2274b180e17f277b7350eabf060faad7c81a2be5e7d25d3df0ee6c7df14c5b",
    ("synth", "S", None):
        "35c8d626af26743309b94e4d57ff629d4709f2b14d0e1a78669d9a0ad715e9f6",
    ("synth", "T", None):
        "7956eb832623d5017adc4be4326eb29afcae320f50c5fb4bf35fb13f24aca017",
    ("synth", "S", "36"):
        "5e83b3eb754cb1221b1cb6902b64cbf137e26fe50767d61e901d362d29fc0b7a",
    ("mesh", "R", None):
        "af356f9f526fa04dbd63c5ccd16572db700f5bbc0f7871b5bd7092ad99d629ce",
    ("mesh", "S", None):
        "3e54cb6569e28b3db0741f903a9631e04d838c9b737dc16f6e5d448dfb75c4ec",
    ("mesh", "T", None):
        "a356e0acde879289f76fe807973c431f960940758c983cc29cb60a6bdff499be",
    ("mesh", "T", "40"):
        "d6d0fdb9d2579bdc8898cc9ab5ab93f56afcb456b2027080c99cb87ecee3859b",
}


def test_index_bytes_are_pinned(tmp_path):
    synth, mesh = tmp_path / "synth", tmp_path / "mesh"
    assert run("synth", "--classes", "3", "--per-class", "4", "--noise-points", "30",
               "--seed", "7", "--out", str(synth)) == 0
    mesh.mkdir()
    rng = np.random.default_rng(3)
    for i, (n_lat, n_lon) in enumerate([(20, 30), (24, 32), (28, 36), (30, 40), (16, 24)]):
        off = tmp_path / f"m{i}.off"
        off.write_text(sphere_grid_off(rng, n_lat, n_lon))
        assert run("diagram", "--mesh", str(off), "--filter", ("line", "plane")[i % 2],
                   "--out", str(mesh / f"m{i}.csv")) == 0
    got = {}
    for db, kind, k in INDEX_SHA256:
        out = tmp_path / "index.csv"
        assert run("embed", "--diagrams", str(tmp_path / db), "--transform", kind,
                   *(("-k", k) if k else ()), "--out", str(out)) == 0
        got[db, kind, k] = hashlib.sha256(out.read_bytes()).hexdigest()
    assert got == INDEX_SHA256


def test_bottleneck_matrix_bytes_are_pinned(tmp_path):
    # The exact search may take other probes, never other floats: these are
    # the bytes written before failed probes returned their jumps.
    db, out = tmp_path / "db", tmp_path / "bmat.csv"
    assert run("synth", "--classes", "6", "--per-class", "8", "--noise-points", "40",
               "--seed", "3", "--out", str(db)) == 0
    assert run("dist", "--diagrams", str(db), "--metric", "bottleneck", "--out", str(out)) == 0
    assert (hashlib.sha256(out.read_bytes()).hexdigest()
            == "b8ee071a1880936a1c082627dd135498fb260ab8fdfaad254812144b0400f60f")


def test_far_points_under_s_and_t(tmp_path, capsys):
    d = tmp_path / "db"
    d.mkdir()
    (d / "a.csv").write_text("0,1\n")
    (d / "b.csv").write_text("0,2\n1e308,1.5e308\n")
    index = tmp_path / "index.csv"
    capsys.readouterr()
    # S keeps the far point: its root is finite and it enters the coefficients
    assert run("embed", "--diagrams", str(d), "--transform", "S", "--out", str(index)) == 0
    assert capsys.readouterr().err == ""
    b = load_index(str(index)).entry("b").vectors["S"]
    assert b.coefficients[0] == embed_radial(0, 2) + embed_radial(1e308, 1.5e308) != embed_radial(0, 2)
    # T has no finite root for it: one error line naming the point, no index
    out = tmp_path / "t.csv"
    code = run("embed", "--diagrams", str(d), "--transform", "T", "--out", str(out))
    err = capsys.readouterr().err
    check_exit(code, err, out, err)
    assert err == "error: point (1e+308, 1.5e+308) lies too far from the origin for a finite T root\n"


def test_first_overflowing_diagram_in_database_order_is_reported(tmp_path, capsys):
    # b (40 points, |z| ~ 2e80) overflows at e_4 and sits in a later kernel block
    # than c (4 points, |z| ~ 2e200), which overflows already at e_2
    d = tmp_path / "db"
    d.mkdir()
    (d / "a.csv").write_text("0,1\n0,2\n1,3\n")
    (d / "b.csv").write_text("".join(f"{1 + i / 64}e80,{2 + i / 64}e80\n" for i in range(40)))
    (d / "c.csv").write_text("".join(f"{1 + i / 8}e200,{2 + i / 8}e200\n" for i in range(4)))
    out = tmp_path / "index.csv"
    capsys.readouterr()
    code = run("embed", "--diagrams", str(d), "--transform", "R", "--out", str(out))
    err = capsys.readouterr().err
    check_exit(code, err, out, err)
    assert err == "error: coefficient 4 overflowed the float range\n"
    (d / "b.csv").unlink()
    assert run("embed", "--diagrams", str(d), "--transform", "R", "--out", str(out)) == 1
    assert capsys.readouterr().err == "error: coefficient 2 overflowed the float range\n"


def test_diagram_checks_the_triangles_once(tmp_path, monkeypatch):
    checked = []

    def spy(entries, width, vertices, what):
        checked.append(what)
        return real(entries, width, vertices, what)

    real = mesh_module._index_rows
    monkeypatch.setattr(mesh_module, "_index_rows", spy)
    (tmp_path / "m.off").write_text(capsule_off(1.5, 0.5))
    out = tmp_path / "m.csv"
    assert run("diagram", "--mesh", str(tmp_path / "m.off"), "--filter", "line", "--out", str(out)) == 0
    assert checked == ["triangle", "edge"]


def test_importing_the_cli_loads_no_scipy():
    """Every command pays for what ``persvec.cli`` imports; scipy is never
    loaded, not even by the bottleneck distance (see below)."""
    import persvec

    src = os.path.dirname(os.path.dirname(persvec.__file__))
    code = "import sys, persvec.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"



# Runs the commands that reach the bottleneck distance, and one distance
# in-process, with or without scipy blocked (argv[1]), in directory argv[2].
# Prints each exit code, the query's ranking and the distance's float.hex.
BLOCKED_SCIPY_SCRIPT = """
import contextlib, io, os, sys
if sys.argv[1] == "blocked":
    sys.modules["scipy"] = None  # any import of scipy now raises ImportError
from persvec.cli import main
from persvec.diagram import parse_diagram
from persvec.metrics import bottleneck_distance

os.chdir(sys.argv[2])
for argv in (
    "synth --classes 4 --per-class 3 --noise-points 24 --seed 9 --out db",
    "embed --diagrams db --transform T --out index.csv",
    "query --index index.csv --diagrams db --id c01m02 --metric d1 --candidates 6",
    "dist --diagrams db --metric bottleneck --threads 1 --out one.csv",
    "dist --diagrams db --metric bottleneck --threads 2 --out two.csv",
):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(argv.split())
    print(argv.split()[0], code, out.getvalue().split())
a, b = (parse_diagram(open(f"db/{m}.csv").read()) for m in ("c00m00", "c03m01"))
print(bottleneck_distance(a, b).hex())
print(sorted(m for m, module in sys.modules.items() if module and m.split(".")[0] == "scipy"))
"""


def test_bottleneck_commands_run_with_scipy_blocked(tmp_path):
    """synth, query and ``dist --metric bottleneck`` (one process and a
    forked pool) and ``bottleneck_distance`` itself succeed with every
    scipy import made to fail, and write the same bytes as a run without
    the block."""
    import persvec

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(persvec.__file__)))
    printed, files = {}, {}
    for mode in ("blocked", "free"):
        (tmp_path / mode).mkdir()
        proc = subprocess.run([sys.executable, "-c", BLOCKED_SCIPY_SCRIPT, mode, str(tmp_path / mode)],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        printed[mode] = proc.stdout
        files[mode] = {p.relative_to(tmp_path / mode): p.read_bytes()
                       for p in sorted((tmp_path / mode).rglob("*")) if p.is_file()}
    lines = printed["blocked"].splitlines()
    assert [line.split()[:2] for line in lines[:5]] == [[c, "0"] for c in ("synth", "embed", "query", "dist", "dist")]
    assert len(lines[2].split()) > 3 and lines[-1] == "[]"
    assert printed["blocked"] == printed["free"]
    assert files["blocked"] == files["free"]

def test_fractional_face_index_fails_under_default_warning_filters(tmp_path):
    """``diagram`` as run from a shell, where a DeprecationWarning is
    ignored: a face index of ``1.5`` is an error, never truncated to 1."""
    import persvec

    mesh = tmp_path / "m.off"
    mesh.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1.5 2\n")
    out = tmp_path / "out.csv"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(persvec.__file__))
    code = "import sys; from persvec.cli import main; sys.exit(main(sys.argv[1:]))"
    argv = ["diagram", "--mesh", str(mesh), "--filter", "line", "--out", str(out)]
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error:") and len(proc.stderr.strip().splitlines()) == 1, proc.stderr
    assert "1.5" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("umask", [0o027, 0o022], ids=oct)
def test_written_files_take_their_mode_from_the_umask(tmp_path, umask):
    """Every file a command writes has mode 0o666 & ~umask, as a file that
    ``open`` creates would, whatever the temp file it is renamed from."""
    import persvec

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(persvec.__file__)))
    code = "import os, sys; os.umask(int(sys.argv[1])); from persvec.cli import main; sys.exit(main(sys.argv[2:]))"
    db, index, matrix = tmp_path / "db", tmp_path / "index.csv", tmp_path / "d1.csv"
    for argv in (
        ["synth", "--classes", "2", "--per-class", "2", "--out", str(db)],
        ["embed", "--diagrams", str(db), "--transform", "R", "--out", str(index)],
        ["dist", "--index", str(index), "--metric", "d1", "--out", str(matrix)],
    ):
        proc = subprocess.run([sys.executable, "-c", code, str(umask), *argv], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
    written = sorted(db.iterdir()) + [index, matrix]
    assert len(written) == 7  # four diagrams, the labels, the index and the matrix
    assert {oct(path.stat().st_mode & 0o777) for path in written} == {oct(0o666 & ~umask)}
