"""Outside-in tracer: spans around calls into shiftlab's public functions.

Nothing in the library is edited.  `install` rebinds each hooked function in
every `shiftlab` module that holds it, and patches `WindowedSet.from_mask`
and `Word.__str__` on their classes, so internal callers are traced too.

A span records its index, layer, start, end, parent span, thread and job.
Spans stay in memory until `save`.  A layer's self time is the length of its spans
minus the part covered by their child spans on the same thread; waiting for
a worker thread therefore counts as self time of the span that waits.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
from array import array
from collections import Counter

import numpy as np

SPAN_COLUMNS = ("span", "layer", "start_ns", "end_ns", "parent", "thread", "job")


def _h(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


# Per-layer counters: (args, kwargs, result) -> {counter: increment}.
def _hitting(args, kwargs, result):
    window, analysis = result
    h = _h(args, kwargs, 2, "h")
    return {
        "window_bits": h,
        "direct_checks": min(analysis.n_star, h),
        "nonempty": 1 if len(window) else 0,
    }


def _difference(args, kwargs, result):
    # difference_set(s) shifts s by its own members; cross_difference(a, b)
    # shifts b by the members of a.
    sub = args[0] if args else next(iter(kwargs.values()))
    top = args[1] if len(args) > 1 else kwargs.get("minuend", sub)
    return {"shift_bits": len(sub) * top.horizon}


def _grid_cells(args, kwargs, result):
    a = _h(args, kwargs, 1, "a")
    grid = _h(args, kwargs, 2, "grid")
    return {"cells": (grid.nmax + 1) ** len(a)}


# layer -> [(module, attribute, counters)]; "Class.method" patches the class.
HOOKS: dict[str, list[tuple[str, str, object]]] = {
    "subshift.linear_hitting": [("subshift", "linear_hitting", _hitting)],
    "subshift.word_str": [("subshift", "Word.__str__", None)],
    "subshift.enumerate": [
        ("subshift", "enumerate_admissible_words", lambda a, k, r: {"words": len(r)}),
    ],
    "subshift.certificate": [
        ("subshift", "emptiness_certificate",
         lambda a, k, r: {"issued": 0 if r is None else 1}),
    ],
    "intset.from_mask": [
        ("intset", "WindowedSet.from_mask", lambda a, k, r: {"members": len(r)}),
    ],
    "intset.difference": [
        ("intset", "difference_set", _difference),
        ("intset", "cross_difference", _difference),
    ],
    "intset.materialize": [("intset", "materialize", None)],
    "points.build": [
        ("points", "build_transitive_point", lambda a, k, r: {"prefix_len": len(r)}),
    ],
    "points.decode": [("points", "decode_point", None)],
    "points.entering_window": [("points", "entering_window", None)],
    "families.grid": [
        ("families", "fa_grid_report", _grid_cells),
        ("families", "fsa_grid_report", _grid_cells),
        ("families", "finfty_grid_report", None),
    ],
    "families.window_report": [
        ("families", "family_window_report", None),
        ("families", "nabla_report", None),
    ],
    "dynamics.sweep": [
        ("dynamics", name, lambda a, k, r: {"tuples": len(r.outcomes)})
        for name in (
            "check_transitive",
            "check_a_transitive",
            "check_delta_a_transitive",
            "verify_delta_product",
        )
    ],
    "dynamics.verify": [
        ("dynamics", "verify_nuv", None),
        ("dynamics", "verify_orbit_closure_prop", None),
    ],
    "dynamics.diagnose": [("dynamics", "point_diagnostic", None)],
    "cli.parse": [
        ("cli", "_config_from_args", None),
        ("subshift", "parse_shift_rule", None),
        ("families", "parse_family_spec", None),
    ],
    "cli.command": [
        ("cli", "_run_check", None),
        ("cli", "_run_diagnose", None),
        ("cli", "_run_verify", None),
    ],
    "cli.golden": [("cli", "_run_reproduce", None)],
    "cli.render": [
        ("cli", "render_json", lambda a, k, r: {"bytes": len(r)}),
        ("cli", "render_markdown", lambda a, k, r: {"bytes": len(r)}),
    ],
}


class Tracer:
    """Collects spans and per-layer counters; see `table` for the totals."""

    def __init__(self) -> None:
        self.layers: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans = array("q")
        self.counters: Counter = Counter()
        self.job = -1
        self._next = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()

    def _layer_id(self, layer: str) -> int:
        if layer not in self._ids:
            self._ids[layer] = len(self.layers)
            self.layers.append(layer)
        return self._ids[layer]

    def span(self, layer: str, fn, counters=None):
        """Wrap ``fn`` so that each call records one span of ``layer``.

        The hot path takes no lock: `next` on a counter and `array.extend`
        are single calls into C, which the interpreter lock keeps whole.
        """
        lid = self._layer_id(layer)
        tracer = self
        local = self._local
        spans = self.spans
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
                local.tid = threading.get_native_id()
            index = next(tracer._next)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.extend((index, lid, start, end, parent, local.tid, tracer.job))
            if counters is not None:
                counts = counters(args, kwargs, result)
                with tracer._lock:
                    for name, value in counts.items():
                        tracer.counters[f"{layer}.{name}"] += value
            return result

        traced.__name__ = getattr(fn, "__name__", layer)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def rows(self) -> np.ndarray:
        """Every finished span as one row of SPAN_COLUMNS, in start order."""
        rows = np.frombuffer(self.spans, dtype=np.int64).reshape(-1, len(SPAN_COLUMNS))
        return rows[np.argsort(rows[:, 0], kind="stable")]

    def count(self, name: str, value: int = 1) -> None:
        with self._lock:
            self.counters[name] += value

    def install(self, package) -> None:
        """Hook every function of HOOKS in ``package``.

        A hooked name that the package no longer defines raises, so a rename
        fails the traced run instead of reporting that layer as idle.
        """
        modules = {
            name: importlib.import_module(f"{package.__name__}.{name}")
            for name in ("intset", "subshift", "points", "families", "dynamics", "cli")
        }
        loaded = list(modules.values())
        for layer, hooks in HOOKS.items():
            self._layer_id(layer)
            for module_name, attr, counters in hooks:
                home = modules[module_name]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    raw = vars(cls)[meth]
                    if isinstance(raw, classmethod):
                        wrapped = self.span(layer, raw.__func__, counters)
                        setattr(cls, meth, classmethod(wrapped))
                    else:
                        setattr(cls, meth, self.span(layer, raw, counters))
                    continue
                original = getattr(home, attr)
                wrapped = self.span(layer, original, counters)
                for module in loaded:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, name, wrapped)
        self._hook_cli(modules["cli"])

    def _hook_cli(self, cli) -> None:
        """Argument parsing, per-preset glue and the point cache."""
        build_parser = cli.build_parser

        def traced_build_parser(*args, **kwargs):
            parser = build_parser(*args, **kwargs)
            parser.parse_args = self.span("cli.parse", parser.parse_args)
            return parser

        cli.build_parser = self.span("cli.parse", traced_build_parser)

        presets = cli.PRESETS
        for name, fn in list(presets.items()):
            presets[name] = self.span("cli.preset", fn)

        cached_point = cli._cached_point
        tracer = self

        def traced_cached_point(config, rule):
            builds = tracer.calls("points.build")
            point = cached_point(config, rule)
            if getattr(config, "cache_dir", None) and (config.point or "greedy") == "greedy":
                fresh = tracer.calls("points.build") > builds
                tracer.count("points.cache.misses" if fresh else "points.cache.hits")
            return point

        cli._cached_point = traced_cached_point

    def calls(self, layer: str) -> int:
        rows = np.frombuffer(self.spans, dtype=np.int64)[1 :: len(SPAN_COLUMNS)]
        return int((rows == self._ids[layer]).sum())

    def table(self) -> dict[str, float]:
        """calls, self_s and counters per layer, flat and sorted by name.

        Self time: a span's length minus the lengths of its direct children
        (a child is always on its parent's thread).
        """
        rows = self.rows()
        position = np.full(int(rows[:, 0].max(initial=-1)) + 1, -1)
        position[rows[:, 0]] = np.arange(len(rows))
        length = rows[:, 3] - rows[:, 2]
        covered = np.zeros(len(rows), dtype=np.int64)
        nested = rows[:, 4] >= 0
        np.add.at(covered, position[rows[nested, 4]], length[nested])
        n = len(self.layers)
        calls = np.bincount(rows[:, 1], minlength=n)
        self_ns = np.bincount(rows[:, 1], weights=length - covered, minlength=n)
        out: dict[str, float] = {}
        for lid, layer in enumerate(self.layers):
            out[f"{layer}.calls"] = int(calls[lid])
            out[f"{layer}.self_s"] = float(self_ns[lid]) / 1e9
        out.update(self.counters)
        return dict(sorted(out.items()))

    def save(self, path) -> None:
        """Write the spans, the column names and the layer names (numpy .npz)."""
        np.savez_compressed(
            path,
            spans=self.rows(),
            columns=np.array(SPAN_COLUMNS),
            layers=np.array(self.layers),
        )
