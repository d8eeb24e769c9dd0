"""Per-layer tracing from outside the program.

``Tracer.install`` replaces public persvec functions with timing wrappers
under the names their callers look them up by (``persvec.cli.distance_matrix``,
``persvec.retrieval.bottleneck_distance``, ...) and ``uninstall`` puts the
originals back.  A layer is the module a function belongs to.  Each call
records its span; a span's self time is its duration minus the time of the
wrapped calls made inside it.  Hot functions (``coefficient_distance`` runs
about 1.5M times per batch-synth job) keep an aggregate count and time
instead of one span per call.  Spans stay in memory until ``write``.

Internals such as ``point_distance`` or ``elementary_symmetric`` are not
wrapped: their time is part of the self time of the public function above.
"""

from __future__ import annotations

import importlib
import json
import os
import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


def _rows_parsed(c, args, kwargs, result):
    c["diagram.rows_parsed"] += sum(
        1 for line in args[0].splitlines() if line.strip() and not line.lstrip().startswith("#"))


def _transform(c, args, kwargs, result):
    c["transforms.points"] += result.width
    # read by _embed, which wraps the one transform_diagram call per embedding
    c["_nonzero_roots"] = sum(r.multiplicity for r in result.roots if r.value != 0)


def _embed(c, args, kwargs, result):
    c["coefficients.width"] = max(c["coefficients.width"], result.width)
    c["coefficients.count"] = max(c["coefficients.count"], result.count)
    c["coefficients.root_updates"] += c["_nonzero_roots"] * result.count


def _bottleneck(c, args, kwargs, result):
    size = args[0].total_multiplicity() + args[1].total_multiplicity()
    c["metrics.bottleneck.points"] += size
    c["metrics.bottleneck.cost_cells"] += size * size


def _pairs(c, args, kwargs, result):
    n = len(result.ids)
    c["retrieval.pairs"] += n * (n - 1) // 2


def _pr_queries(c, args, kwargs, result):
    c["retrieval.pr_queries"] += len(args[0].ids)


def _matrix_out(c, args, kwargs, result):
    c["retrieval.matrix_bytes"] += len(result)


def _matrix_in(c, args, kwargs, result):
    c["retrieval.matrix_bytes"] += len(args[0])


def _index_out(c, args, kwargs, result):
    c["retrieval.index_bytes"] += os.path.getsize(args[1])


def _index_in(c, args, kwargs, result):
    c["retrieval.index_bytes"] += os.path.getsize(args[0])


def _mesh(c, args, kwargs, result):
    c["mesh.vertices"] += result.vertex_count
    c["mesh.triangles"] += len(result.triangles)


def _edges(c, args, kwargs, result):
    c["mesh.edges"] += len(result)


def _persistence(c, args, kwargs, result):
    # every union that does not close a cycle merges two components
    c["mesh.merges"] += len(args[0]) - result.essential_count
    c["mesh.diagram_points"] += result.total_multiplicity()


# (module, attribute, dict key or None, layer, hot, counter hook)
TARGETS = (
    ("persvec.cli", "main", None, "cli.main", False, None),
    ("persvec.cli", "parse_diagram", None, "diagram.parse_diagram", False, _rows_parsed),
    ("persvec.diagram", "parse_diagram", None, "diagram.parse_diagram", False, _rows_parsed),
    ("persvec.cli", "serialize_diagram", None, "diagram.serialize_diagram", False, None),
    ("persvec.coefficients", "transform_diagram", None, "transforms.transform_diagram", False, _transform),
    ("persvec.retrieval", "embed_diagram", None, "coefficients.embed_diagram", False, _embed),
    ("persvec.retrieval", "coefficient_distance", None, "metrics.coefficient_distance", True, None),
    ("persvec.retrieval", "bottleneck_distance", None, "metrics.bottleneck_distance", False, _bottleneck),
    ("persvec.cli", "distance_matrix", None, "retrieval.distance_matrix", False, _pairs),
    ("persvec.cli", "pr_curve", None, "retrieval.pr_curve", False, _pr_queries),
    ("persvec.cli", "serialize_matrix", None, "retrieval.matrix_io", False, _matrix_out),
    ("persvec.cli", "parse_matrix", None, "retrieval.matrix_io", False, _matrix_in),
    ("persvec.cli", "save_index", None, "retrieval.index_io", False, _index_out),
    ("persvec.cli", "load_index", None, "retrieval.index_io", False, _index_in),
    ("persvec.cli", "embed_database", None, "retrieval.embed_database", False, None),
    ("persvec.retrieval", "embed_database", None, "retrieval.embed_database", False, None),
    ("persvec.retrieval", "two_stage_query", None, "retrieval.two_stage_query", False, None),
    ("persvec.cli", "parse_off", None, "mesh.parse_off", False, _mesh),
    ("persvec.mesh", "FILTERS", "line", "mesh.frame_filter", False, None),
    ("persvec.mesh", "FILTERS", "plane", "mesh.frame_filter", False, None),
    ("persvec.mesh", "triangle_edges", None, "mesh.triangle_edges", False, _edges),
    ("persvec.mesh", "zero_persistence", None, "mesh.zero_persistence", False, _persistence),
)

LAYERS = tuple(dict.fromkeys(t[3] for t in TARGETS))
COUNTERS = (
    "diagram.rows_parsed", "transforms.points", "coefficients.width",
    "coefficients.count", "coefficients.root_updates", "metrics.bottleneck.points",
    "metrics.bottleneck.cost_cells", "retrieval.pairs", "retrieval.pr_queries",
    "retrieval.matrix_bytes", "retrieval.index_bytes",
    "mesh.vertices", "mesh.triangles", "mesh.edges", "mesh.merges", "mesh.diagram_points",
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for layer in LAYERS:
        units.update({f"{layer}.calls": "count", f"{layer}.self_s": "s",
                      f"{layer}.errors": "count"})
    units.update({"metrics.bottleneck_distance.p50_ms": "ms",
                  "metrics.bottleneck_distance.p90_ms": "ms",
                  "retrieval.rerank_candidates": "count"})
    units.update({name: "bytes" if name.endswith("_bytes") else "count" for name in COUNTERS})
    units.update({"trace.run_s": "s", "trace.load_s": "s", "trace.overhead_ratio": "ratio",
                  "trace.unattributed_ratio": "ratio", "trace.counter_errors": "count",
                  "fail_ratio": "ratio"})
    return units


class Tracer:
    def __init__(self):
        self.stack = []  # open spans as [child seconds, span id]
        self.spans = []  # (id, layer, start, end, parent id, self seconds)
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.errors = defaultdict(int)
        self.counts = defaultdict(int)
        self.windows = {}  # phase -> (start, end)
        self._next_id = 0
        self._undo = []

    def _wrap(self, fn, layer, hot, count):
        stack, spans, calls, self_s, errors, counts = (
            self.stack, self.spans, self.calls, self.self_s, self.errors, self.counts)

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [0.0, None]
            if not hot:
                frame[1] = self._next_id
                self._next_id += 1
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[layer] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                if parent is not None:
                    parent[0] += end - start
                own = end - start - frame[0]
                calls[layer] += 1
                self_s[layer] += own
                if not hot:
                    spans.append((frame[1], layer, start, end,
                                  parent[1] if parent else None, own))
            if count is not None:
                try:
                    count(counts, args, kwargs, result)
                except Exception:  # a counter must never fail the program's call
                    counts["trace.counter_errors"] += 1
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target; raise LookupError, wrapping nothing, if any is missing.

        A missing target means the program no longer looks that name up
        there, so its layer would read 0 calls without measuring anything.
        """
        found, missing = [], []
        for module, attr, key, layer, hot, count in TARGETS:
            mod = importlib.import_module(module)
            # a module's functions live in its __dict__; FILTERS is a plain dict
            owner, name = (getattr(mod, attr, {}), key) if key else (vars(mod), attr)
            if name in owner:
                found.append((owner, name, layer, hot, count))
            else:
                missing.append(f"{module}.{attr}" + (f"[{key}]" if key else ""))
        if missing:
            raise LookupError(f"trace targets not found: {', '.join(missing)}")
        for owner, name, layer, hot, count in found:
            original = owner[name]
            owner[name] = self._wrap(original, layer, hot, count)
            self._undo.append((owner, name, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            owner[name] = original

    @contextmanager
    def window(self, phase: str):
        """Time a phase; spans started inside it are attributed to it."""
        start = perf_counter()
        try:
            yield
        finally:
            self.windows[phase] = (start, perf_counter())

    def _attributed(self) -> float:
        total = 0.0
        for _, _, start, end, parent, _ in self.spans:
            if parent is None and any(a <= start <= b for a, b in self.windows.values()):
                total += end - start
        return total

    def metrics(self, untraced_run_s: float) -> dict[str, float]:
        """Per-layer metrics; run and load times come from the 'run' and 'load' windows."""
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.self_s"] = self.self_s[layer]
            out[f"{layer}.errors"] = self.errors[layer]
        bottleneck = [(e - s) * 1e3 for _, layer, s, e, _, _ in self.spans
                      if layer == "metrics.bottleneck_distance"]
        out["metrics.bottleneck_distance.p50_ms"] = statistics.median(bottleneck) if bottleneck else 0.0
        out["metrics.bottleneck_distance.p90_ms"] = (
            statistics.quantiles(bottleneck, n=10)[-1] if len(bottleneck) > 1 else sum(bottleneck))
        for name in COUNTERS:
            out[name] = self.counts[name]
        # bottleneck calls made inside a query: the re-rank work the program did
        queries = {sid for sid, layer, *_ in self.spans if layer == "retrieval.two_stage_query"}
        out["retrieval.rerank_candidates"] = sum(
            1 for _, layer, _, _, parent, _ in self.spans
            if layer == "metrics.bottleneck_distance" and parent in queries)
        out["trace.counter_errors"] = self.counts["trace.counter_errors"]
        durations = {p: b - a for p, (a, b) in self.windows.items()}
        run_s, load_s = durations.get("run", 0.0), durations.get("load", 0.0)
        out["trace.run_s"] = run_s
        out["trace.load_s"] = load_s
        out["trace.overhead_ratio"] = run_s / untraced_run_s
        out["trace.unattributed_ratio"] = 1.0 - self._attributed() / (run_s + load_s)
        return out

    def write(self, path: str, header: dict) -> None:
        """Spans as JSON lines (times relative to the first window), then aggregates."""
        origin = min(a for a, _ in self.windows.values())
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for sid, layer, start, end, parent, own in self.spans:
                fh.write(json.dumps({"id": sid, "name": layer, "start": start - origin,
                                     "end": end - origin, "parent": parent,
                                     "self_s": own}) + "\n")
            for module, attr, key, layer, hot, _ in TARGETS:
                if hot:
                    fh.write(json.dumps({"aggregate": layer, "calls": self.calls[layer],
                                         "self_s": self.self_s[layer],
                                         "errors": self.errors[layer]}) + "\n")
