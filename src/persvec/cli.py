"""Batch command-line surface for the mesh -> diagram -> retrieval pipeline.

Subcommands:

* ``diagram``: OFF mesh to persistence-diagram CSV
* ``embed``: directory of diagram CSVs to a coefficient index
* ``dist``: all-pairs distance matrix from an index (d1/d2/d3) or from
  diagrams (bottleneck)
* ``pr``: precision/recall table from a matrix plus class labels
* ``query``: two-stage ranking for one model, printed to stdout
* ``synth``: seeded synthetic diagram database for experiments

Any validation failure exits 1 with a single-line ``error:`` diagnostic;
output files are written to a temp name and renamed only on success, so
a failed run never leaves a half-written file behind.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .diagram import parse_diagram, serialize_diagram
from .mesh import (
    FILTERS,
    MeshFrame,
    axis_vector,
    center_of_mass,
    mesh_zero_persistence,
    normalize_mesh,
    parse_off,
)
from .metrics import COEFFICIENT_METRICS, METRICS
from .retrieval import (
    DatabaseEntry,
    LabeledDatabase,
    _atomic_write,
    database_labels,
    distance_matrix,
    embed_database,
    load_index,
    parse_labels,
    parse_matrix,
    pr_curve,
    save_index,
    serialize_labels,
    serialize_matrix,
    serialize_pr_table,
    synthetic_database,
    two_stage_query,
)
from .transforms import TRANSFORMS


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exceptions, not exits."""

    def error(self, message):
        raise ValueError(message)


def _read_text(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _load_diagram_dir(directory: str) -> LabeledDatabase:
    """Each ``<id>.csv`` in the directory becomes one unlabeled entry."""
    if not os.path.isdir(directory):
        raise ValueError(f"not a directory: {directory}")
    names = sorted(
        n for n in os.listdir(directory) if n.endswith(".csv") and n != "labels.csv"
    )
    if not names:
        raise ValueError(f"no diagram CSV files in {directory}")
    entries = []
    for name in names:
        text = _read_text(os.path.join(directory, name))
        try:
            diag = parse_diagram(text)
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from None
        entries.append(DatabaseEntry(name[: -len(".csv")], "", diag))
    return LabeledDatabase(tuple(entries))


def _load_nonempty_index(path) -> tuple[LabeledDatabase, str]:
    """A non-empty index and its transform kind (one per file, by parse_index)."""
    db = load_index(path)
    if not db.entries:
        raise ValueError("the index is empty")
    return db, next(iter(db.entries[0].vectors))


def _cmd_diagram(args) -> int:
    mesh = parse_off(_read_text(args.mesh))
    centered = normalize_mesh(mesh, center_of_mass(mesh))
    axis, _ = axis_vector(centered, np.zeros(3))
    frame = MeshFrame(np.zeros(3), axis)
    values = FILTERS[args.filter](centered, frame)
    diag = mesh_zero_persistence(centered, values)
    _atomic_write(args.out, serialize_diagram(diag))
    return 0


def _cmd_embed(args) -> int:
    db = _load_diagram_dir(args.diagrams)
    embedded = embed_database(db, args.transform, args.k)
    save_index(embedded, args.out, args.transform)
    return 0


def _cmd_dist(args) -> int:
    if args.metric == "bottleneck":
        if args.index is not None:
            raise ValueError("bottleneck works on diagrams; pass --diagrams, not --index")
        if args.diagrams is None:
            raise ValueError("bottleneck needs --diagrams")
        db = _load_diagram_dir(args.diagrams)
        matrix = distance_matrix(db, "bottleneck", threads=args.threads)
    else:
        if args.diagrams is not None:
            raise ValueError(
                f"{args.metric} works on an embedding index; pass --index, not --diagrams"
            )
        if args.index is None:
            raise ValueError(f"{args.metric} needs --index")
        db, kind = _load_nonempty_index(args.index)
        matrix = distance_matrix(db, args.metric, transform=kind, threads=args.threads)
    _atomic_write(args.out, serialize_matrix(matrix))
    return 0


def _cmd_pr(args) -> int:
    matrix = parse_matrix(_read_text(args.matrix))
    labels = parse_labels(_read_text(args.labels))
    table = pr_curve(matrix, labels)
    _atomic_write(args.out, serialize_pr_table(table))
    return 0


def _cmd_query(args) -> int:
    index_db, kind = _load_nonempty_index(args.index)
    width = index_db.entries[0].vectors[kind].width
    diagram_db = _load_diagram_dir(args.diagrams)
    diagrams = {d.model_id: d.diagram for d in diagram_db.entries}
    entries = []
    for e in index_db.entries:
        match = diagrams.get(e.model_id)
        if match is None:
            raise ValueError(f"no diagram file for indexed model {e.model_id!r}")
        if match.total_multiplicity() > width:
            raise ValueError(
                f"diagram {e.model_id!r} has {match.total_multiplicity()} points, "
                f"more than the index width {width}; re-embed the database with "
                f"`embed` to enlarge it"
            )
        entries.append(DatabaseEntry(e.model_id, e.label, match, dict(e.vectors)))
    db = LabeledDatabase(tuple(entries))
    ranking = two_stage_query(args.id, db, kind, args.metric, args.candidates)
    print("\n".join(ranking))
    return 0


def _cmd_synth(args) -> int:
    db = synthetic_database(
        classes=args.classes,
        per_class=args.per_class,
        base_points=args.base_points,
        jitter=args.jitter,
        noise_points=args.noise_points,
        noise_band=args.noise_band,
        seed=args.seed,
    )
    os.makedirs(args.out, exist_ok=True)
    for e in db.entries:
        _atomic_write(
            os.path.join(args.out, f"{e.model_id}.csv"), serialize_diagram(e.diagram)
        )
    _atomic_write(
        os.path.join(args.out, "labels.csv"), serialize_labels(database_labels(db))
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="persvec", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("diagram", help="mesh OFF file -> diagram CSV")
    p.add_argument("--mesh", required=True, help="input OFF file")
    p.add_argument("--filter", required=True, choices=sorted(FILTERS))
    p.add_argument("--out", required=True, help="output diagram CSV")
    p.set_defaults(func=_cmd_diagram)

    p = sub.add_parser("embed", help="diagram directory -> coefficient index")
    p.add_argument("--diagrams", required=True, help="directory of <id>.csv diagrams")
    p.add_argument("--transform", required=True, choices=sorted(TRANSFORMS))
    p.add_argument("-k", type=int, default=None, help="coefficient count (default: floor sqrt of the width)")
    p.add_argument("--out", required=True, help="output index CSV")
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("dist", help="all-pairs distance matrix")
    p.add_argument("--index", default=None, help="coefficient index (for d1/d2/d3)")
    p.add_argument("--diagrams", default=None, help="diagram directory (for bottleneck)")
    p.add_argument("--metric", required=True, choices=sorted(METRICS))
    p.add_argument(
        "--threads",
        type=int,
        default=1,
        help="worker processes for bottleneck pairs, at most the CPU count; "
        "d1/d2/d3 run in one vectorised pass and ignore it",
    )
    p.add_argument("--out", required=True, help="output matrix CSV")
    p.set_defaults(func=_cmd_dist)

    p = sub.add_parser("pr", help="precision/recall table from a matrix")
    p.add_argument("--matrix", required=True, help="distance matrix CSV")
    p.add_argument("--labels", required=True, help="labels CSV (id,class)")
    p.add_argument("--out", required=True, help="output PR CSV")
    p.set_defaults(func=_cmd_pr)

    p = sub.add_parser("query", help="two-stage ranking for one model")
    p.add_argument("--index", required=True, help="coefficient index CSV")
    p.add_argument("--diagrams", required=True, help="diagram directory for re-ranking")
    p.add_argument("--id", required=True, help="query model id")
    p.add_argument("--metric", default="d3", choices=sorted(COEFFICIENT_METRICS))
    p.add_argument("--candidates", type=int, required=True)
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("synth", help="generate a seeded synthetic database")
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--per-class", type=int, required=True)
    p.add_argument("--base-points", type=int, default=6)
    p.add_argument("--jitter", type=float, default=0.02)
    p.add_argument("--noise-points", type=int, default=3)
    p.add_argument("--noise-band", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ValueError, OverflowError, OSError) as exc:
        message = str(exc).splitlines()[0] if str(exc) else type(exc).__name__
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
