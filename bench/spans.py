"""Per-layer tracing for the benchmark, installed from outside the package.

The traced run wraps module attributes of ``sato4`` (functions, methods
and cached properties) with span recorders.  A wrapper replaces every
binding of the original object across the loaded ``sato4`` modules, so
calls made through a name imported with ``from .x import y`` are seen
too.  Nothing inside the package changes.

Each span is (name, start, end, parent span, op id).  Spans are kept in
memory as flat arrays and written once, at the end of the run.  Totals
are accumulated while spans close: calls, inclusive time (outermost span
of a name only, so recursion is not counted twice) and self time (the
span minus the time its child spans cover).

A target that no longer exists after a refactor is listed as absent and
every metric built from it reads 0; the run does not fail.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter

# span name -> (module, attribute path); the span name's prefix is the layer
TARGETS = {
    "diagram.parse_pd": ("sato4.diagram", "parse_pd"),
    "diagram.init": ("sato4.diagram", "LinkDiagram.__init__"),
    "diagram.canonical_encoding": ("sato4.diagram", "LinkDiagram.canonical_encoding"),
    "diagram.faces": ("sato4.diagram", "LinkDiagram.faces"),
    "conway.conway": ("sato4.conway", "conway"),
    "conway._compute": ("sato4.conway", "_compute"),
    "seifert.to_braid_form": ("sato4.seifert", "to_braid_form"),
    "seifert.seifert_matrix": ("sato4.seifert", "seifert_matrix"),
    "seifert.conway_from_seifert": ("sato4.seifert", "conway_from_seifert"),
    **{
        f"rewrites.{name}": ("sato4.rewrites", name)
        for name in (
            "make_crossing", "kink_loop", "add_kink", "remove_kink", "insert_r2",
            "find_bigons", "remove_r2", "find_triangles", "slide_r3",
        )
    },
    "search.auto_script": ("sato4.search", "auto_script"),
    "search.enumerate_moves": ("sato4.search", "enumerate_moves"),
    "movies.apply_move": ("sato4.movies", "apply_move"),
    "movies.run_script": ("sato4.movies", "run_script"),
    "movies.record_self_crossing_change": ("sato4.movies", "record_self_crossing_change"),
    "bundle.verify_gluing": ("sato4.bundle", "verify_gluing"),
    "corpus.load_corpus": ("sato4.corpus", "load_corpus"),
    "corpus.calibrate": ("sato4.corpus", "calibrate"),
    "corpus.verify_corpus": ("sato4.corpus", "verify_corpus"),
    "cli.main": ("sato4.cli", "main"),
}

# name, unit, better; the layer is the part before the first dot
PER_LAYER = (
    ("diagram.parse_s", "s", "lower"),
    ("diagram.built", "count", "lower"),
    ("diagram.build_s", "s", "lower"),
    ("diagram.encode_calls", "count", "lower"),
    ("diagram.encode_s", "s", "lower"),
    ("diagram.faces_s", "s", "lower"),
    ("conway.calls", "count", "lower"),
    ("conway.memo_hits", "count", "higher"),
    ("conway.memo_hit_ratio", "ratio", "higher"),
    ("conway.memo_entries", "count", "lower"),
    ("conway.self_s", "s", "lower"),
    ("conway.share", "ratio", "lower"),
    ("seifert.braid_slides", "count", "lower"),
    ("seifert.braid_s", "s", "lower"),
    ("seifert.matrix_s", "s", "lower"),
    ("seifert.matrix_dim_sum", "count", "lower"),
    ("seifert.bareiss_s", "s", "lower"),
    ("seifert.share", "ratio", "lower"),
    ("rewrites.calls", "count", "lower"),
    ("rewrites.self_s", "s", "lower"),
    ("search.s", "s", "lower"),
    ("search.expanded", "count", "lower"),
    ("search.children", "count", "lower"),
    ("search.useful_ratio", "ratio", "higher"),
    ("search.exhausted", "count", "lower"),
    ("search.share", "ratio", "lower"),
    ("movies.run_s", "s", "lower"),
    ("movies.moves", "count", "lower"),
    ("movies.records", "count", "lower"),
    ("movies.sc_s", "s", "lower"),
    ("bundle.glue_s", "s", "lower"),
    ("corpus.load_s", "s", "lower"),
    ("corpus.calibrate_s", "s", "lower"),
    ("corpus.verify_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("bench.failed_frac", "ratio", "lower"),
    ("bench.traced_ops_per_s", "1/s", "higher"),
)

# metric -> span names it is built from (absent when any of them is)
_SOURCES = {
    "diagram.parse_s": ("diagram.parse_pd",),
    "diagram.built": ("diagram.init",),
    "diagram.build_s": ("diagram.init",),
    "diagram.encode_calls": ("diagram.canonical_encoding",),
    "diagram.encode_s": ("diagram.canonical_encoding",),
    "diagram.faces_s": ("diagram.faces",),
    "conway.calls": ("conway.conway",),
    "conway.memo_hits": ("conway.conway", "conway._compute"),
    "conway.memo_hit_ratio": ("conway.conway", "conway._compute"),
    "conway.memo_entries": ("conway._MEMO",),
    "conway.self_s": ("conway.conway", "conway._compute"),
    "conway.share": ("conway.conway",),
    "seifert.braid_slides": ("seifert.to_braid_form", "rewrites.insert_r2"),
    "seifert.braid_s": ("seifert.to_braid_form",),
    "seifert.matrix_s": ("seifert.seifert_matrix",),
    "seifert.matrix_dim_sum": ("seifert.seifert_matrix",),
    "seifert.bareiss_s": ("seifert.conway_from_seifert",),
    "seifert.share": ("seifert.seifert_matrix", "seifert.conway_from_seifert"),
    "search.s": ("search.auto_script",),
    "search.expanded": ("search.enumerate_moves",),
    "search.children": ("search.auto_script", "movies.apply_move"),
    "search.useful_ratio": ("search.auto_script", "movies.apply_move"),
    "search.exhausted": ("search.auto_script",),
    "search.share": ("search.auto_script",),
    "movies.run_s": ("movies.run_script",),
    "movies.moves": ("movies.run_script",),
    "movies.records": ("movies.run_script",),
    "movies.sc_s": ("movies.record_self_crossing_change",),
    "bundle.glue_s": ("bundle.verify_gluing",),
    "corpus.load_s": ("corpus.load_corpus",),
    "corpus.calibrate_s": ("corpus.calibrate",),
    "corpus.verify_s": ("corpus.verify_corpus",),
    "cli.self_s": ("cli.main",),
}


class _Stats:
    __slots__ = ("calls", "incl", "self_s", "active")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0
        self.self_s = 0.0
        self.active = 0


class Tracer:
    """Span recorder plus the counters the per-layer metrics need."""

    def __init__(self, targets: dict[str, tuple[str, str]] = TARGETS):
        self.targets = targets
        self.names: list[str] = list(targets)
        self._index = {n: i for i, n in enumerate(self.names)}
        self.stats = {n: _Stats() for n in self.names}
        self.absent: list[str] = []
        self.op = -1
        self.op_time = 0.0
        self.counters = {
            "slides": 0, "children": 0, "dim_sum": 0, "script_moves": 0,
            "exhausted": 0, "moves": 0, "records": 0, "memo_entries": 0,
        }
        # spans as parallel columns; ``end`` is filled in when the span closes
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self._stack: list[list] = []  # [span index, name index, child time]
        self._t0 = perf_counter()
        self._memo_owner = None

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every target that exists; record the others as absent."""
        for name, (module_name, path) in self.targets.items():
            try:
                module = importlib.import_module(module_name)
                owner, attr = _resolve(module, path)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if isinstance(original, functools.cached_property):
                wrapped = functools.cached_property(self._wrap(name, original.func))
                wrapped.__set_name__(owner, attr)
                setattr(owner, attr, wrapped)
            elif isinstance(owner, type):
                setattr(owner, attr, self._wrap(name, original))
            else:
                _rebind(original, self._wrap(name, original))
        try:
            self._memo_owner = importlib.import_module("sato4.conway")
            self._memo_owner._MEMO
        except (ImportError, AttributeError):
            self._memo_owner = None
            self.absent.append("conway._MEMO")

    def _wrap(self, name: str, fn):
        idx = self._index[name]
        stats = self.stats[name]
        on_result = _RESULT_HOOKS.get(name)
        stack = self._stack
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, ops = self.span_parent, self.span_op
        t0 = self._t0
        counters = self.counters
        parent_hooks = _PARENT_HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(names)
            parent = stack[-1] if stack else None
            if parent_hooks and parent is not None:
                key = parent_hooks.get(self.names[parent[1]])
                if key:
                    counters[key] += 1
            names.append(idx)
            parents.append(parent[0] if parent else -1)
            ops.append(self.op)
            ends.append(0.0)
            stats.active += 1
            frame = [span, idx, 0.0]
            stack.append(frame)
            start = perf_counter()
            starts.append(start - t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                ends[span] = end - t0
                stats.calls += 1
                stats.self_s += dur - frame[2]
                stats.active -= 1
                if not stats.active:
                    stats.incl += dur
                if stack:
                    stack[-1][2] += dur
            if on_result is not None:
                on_result(counters, result)
            return result

        return traced

    # -- ops ---------------------------------------------------------------

    def end_op(self, seconds: float) -> None:
        """Close one op: add its time and sample the skein memo size."""
        self.op_time += seconds
        if self._memo_owner is not None:
            entries = len(self._memo_owner._MEMO)
            self.counters["memo_entries"] = max(self.counters["memo_entries"], entries)

    # -- results -----------------------------------------------------------

    def metrics(self, attempted: int, failed: int, wall: float) -> dict[str, float]:
        s = self.stats
        c = self.counters
        op_time = self.op_time or 1.0
        calls = s["conway.conway"].calls
        hits = calls - s["conway._compute"].calls
        children = c["children"]
        rewrites = [v for n, v in s.items() if n.startswith("rewrites.")]
        values = {
            "diagram.parse_s": s["diagram.parse_pd"].incl,
            "diagram.built": s["diagram.init"].calls,
            "diagram.build_s": s["diagram.init"].incl,
            "diagram.encode_calls": s["diagram.canonical_encoding"].calls,
            "diagram.encode_s": s["diagram.canonical_encoding"].incl,
            "diagram.faces_s": s["diagram.faces"].incl,
            "conway.calls": calls,
            "conway.memo_hits": hits,
            "conway.memo_hit_ratio": hits / calls if calls else 0.0,
            "conway.memo_entries": c["memo_entries"],
            "conway.self_s": s["conway.conway"].self_s + s["conway._compute"].self_s,
            "conway.share": s["conway.conway"].incl / op_time,
            "seifert.braid_slides": c["slides"],
            "seifert.braid_s": s["seifert.to_braid_form"].incl,
            "seifert.matrix_s": s["seifert.seifert_matrix"].incl,
            "seifert.matrix_dim_sum": c["dim_sum"],
            "seifert.bareiss_s": s["seifert.conway_from_seifert"].incl,
            "seifert.share": (
                s["seifert.seifert_matrix"].incl + s["seifert.conway_from_seifert"].incl
            ) / op_time,
            "rewrites.calls": sum(v.calls for v in rewrites),
            "rewrites.self_s": sum(v.self_s for v in rewrites),
            "search.s": s["search.auto_script"].incl,
            "search.expanded": s["search.enumerate_moves"].calls,
            "search.children": children,
            "search.useful_ratio": c["script_moves"] / children if children else 0.0,
            "search.exhausted": c["exhausted"],
            "search.share": s["search.auto_script"].incl / op_time,
            "movies.run_s": s["movies.run_script"].incl,
            "movies.moves": c["moves"],
            "movies.records": c["records"],
            "movies.sc_s": s["movies.record_self_crossing_change"].incl,
            "bundle.glue_s": s["bundle.verify_gluing"].incl,
            "corpus.load_s": s["corpus.load_corpus"].incl,
            "corpus.calibrate_s": s["corpus.calibrate"].incl,
            "corpus.verify_s": s["corpus.verify_corpus"].incl,
            "cli.self_s": s["cli.main"].self_s,
            "bench.failed_frac": failed / attempted if attempted else 0.0,
            "bench.traced_ops_per_s": attempted / wall if wall else 0.0,
        }
        for metric, sources in _SOURCES.items():
            if any(src in self.absent for src in sources):
                values[metric] = 0
        return values

    def absent_metrics(self) -> list[str]:
        return sorted(m for m, src in _SOURCES.items() if any(x in self.absent for x in src))

    def write(self, stem: Path, header: dict) -> None:
        """Write ``<stem>.json`` (names, layout, metrics) and ``<stem>.spans``.

        The binary file holds the five columns one after another, each as
        a native-endian array of ``count`` items: name index (int32),
        start and end in seconds since the tracer started (float64),
        parent span index or -1 (int32) and op id (int32).
        """
        columns = (
            ("name", self.span_name), ("start", self.span_start), ("end", self.span_end),
            ("parent", self.span_parent), ("op", self.span_op),
        )
        meta = {
            **header,
            "names": self.names,
            "absent": self.absent,
            "count": len(self.span_name),
            "columns": [[label, col.typecode, col.itemsize] for label, col in columns],
        }
        stem.with_suffix(".json").write_text(json.dumps(meta, indent=1) + "\n")
        with open(stem.with_suffix(".spans"), "wb") as f:
            for _, col in columns:
                col.tofile(f)


def _resolve(module, path: str):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    attr = parts[-1]
    if isinstance(owner, type):
        if attr not in owner.__dict__:
            raise AttributeError(path)
    else:
        getattr(owner, attr)
    return owner, attr


def _rebind(original, replacement) -> None:
    """Replace every binding of ``original`` in the loaded sato4 modules."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "sato4" and not mod_name.startswith("sato4."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _on_matrix(counters, result) -> None:
    counters["dim_sum"] += result.size


def _on_auto_script(counters, result) -> None:
    if result is None:
        counters["exhausted"] += 1
    else:
        counters["script_moves"] += len(result.moves)


def _on_run_script(counters, result) -> None:
    counters["moves"] += result.move_count
    counters["records"] += len(result.records)


_RESULT_HOOKS = {
    "seifert.seifert_matrix": _on_matrix,
    "search.auto_script": _on_auto_script,
    "movies.run_script": _on_run_script,
}

# span name -> {parent span name: counter bumped when called directly under it}
_PARENT_HOOKS = {
    "rewrites.insert_r2": {"seifert.to_braid_form": "slides"},
    "movies.apply_move": {"search.auto_script": "children"},
}
