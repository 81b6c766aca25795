"""In-memory span tracing of ordersketch's public functions.

`Tracer.install` replaces each traced function by a timing wrapper, by
patching module and class attributes in memory; every ordersketch module
that re-imported the same function object is patched too, so calls made
from inside the library are seen.  A function absent from the library at
some commit is skipped and reports zero counts.  Spans are kept as
``(name, start, end, parent, op)`` tuples and self time is derived from
them after the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

import numpy as np


def _levels_size(out) -> int:
    return int(sum(np.size(level) for level in out.levels))


# (module, attribute path, work counter name, work function(args, result))
TARGETS = [
    ("cli", "main", None, None),
    ("cli", "read_stream_file", "events", lambda a, out: len(out)),
    ("hashing", "eval_hash", None, None),
    ("hashing", "eval_hash_array", "letters", lambda a, out: int(np.size(a[1]))),
    ("hashing", "sample_hashes", None, None),
    ("features", "features_from_arrays", "events", lambda a, out: int(np.size(a[0]))),
    ("features", "apply_event_inplace", None, None),
    ("tensor", "truncated_product", "coords", lambda a, out: _levels_size(out)),
    ("sketch", "OrderSketch.extend", "events", lambda a, out: len(a[1])),
    ("sketch", "OrderSketch.letter_estimates", None, None),
    ("sketch", "OrderSketch.query", None, None),
    ("sketch", "OrderSketch.to_snapshot", "bytes", lambda a, out: len(out)),
    ("sketch", "OrderSketch.from_snapshot", "bytes", lambda a, out: len(a[1])),
    ("sketch", "OrderSketch.merge", None, None),
    ("sketch", "dense_pullback", None, None),
    ("sketch", "mine_heavy_patterns", None, None),
    ("experiments", "error_metric", None, None),
    ("experiments", "train_linear_classifier", None, None),
]

MINE = "sketch.mine_heavy_patterns"


def layer_metric_names() -> list:
    """Every per-layer metric the traced pass reports, in a fixed order."""
    names = []
    for module, attr, work, _ in TARGETS:
        base = f"{module}.{attr}"
        names += [f"{base}.calls", f"{base}.s", f"{base}.self_s"]
        if work:
            names.append(f"{base}.events_per_s" if base == "cli.read_stream_file"
                         else f"{base}.{work}")
    return names + ["sketch.mine.kept_ratio", "sketch.mine.true_hot_ratio"]


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, op id)
        self.work = {}  # name -> summed work count
        self.mined = []  # (args, result) of each mine_heavy_patterns call
        self.op = -1
        self._stack = []
        self._undo = []

    # -- patching -------------------------------------------------------------

    def _wrapper(self, name, fn, work):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(index)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.op)
            if work is not None:
                try:
                    count = work(args, out)
                except (IndexError, TypeError, AttributeError):
                    count = 0  # the signature changed; the span still counts
                self.work[name] = self.work.get(name, 0) + count
            if name == MINE:
                self.mined.append((args, out))
            return out

        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if key == "ordersketch" or key.startswith("ordersketch.")]
        for module_name, attr, _, work in TARGETS:
            name = f"{module_name}.{attr}"
            try:
                owner = importlib.import_module(f"ordersketch.{module_name}")
            except ImportError:
                continue
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            if owner is None or leaf not in vars(owner):
                continue
            original = vars(owner)[leaf]
            if isinstance(original, classmethod):
                patched = classmethod(self._wrapper(name, original.__func__, work))
            else:
                patched = self._wrapper(name, original, work)
            self._set(owner, leaf, patched)
            if not path:
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original and module is not owner:
                            self._set(module, key, patched)

    def _set(self, owner, key, value) -> None:
        self._undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    # -- reporting ------------------------------------------------------------

    def layer_metrics(self) -> dict:
        calls, total, child = {}, {}, {}
        for name, start, end, parent, _ in self.spans:
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + (end - start)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                pname = self.spans[parent][0]
                child[pname] = child.get(pname, 0.0) + (end - start)
        out = {}
        for module, attr, work, _ in TARGETS:
            base = f"{module}.{attr}"
            seconds = total.get(base, 0.0)
            out[f"{base}.calls"] = (calls.get(base, 0), "count")
            out[f"{base}.s"] = (seconds, "s")
            out[f"{base}.self_s"] = (seconds - child.get(base, 0.0), "s")
            if base == "cli.read_stream_file":
                rate = self.work.get(base, 0) / seconds if seconds > 0 else 0.0
                out[f"{base}.events_per_s"] = (rate, "events/s")
            elif work:
                out[f"{base}.{work}"] = (self.work.get(base, 0), work)
        out.update(self._mine_ratios())
        return out

    def _mine_ratios(self) -> dict:
        """Reported words per candidate queried, and retained letters whose
        exact mass is above rho per retained letter."""
        reported = queried = true_hot = retained = 0
        for args, out in self.mined:
            try:
                stream, results = args[0], out[1]
                mass = np.bincount(stream.letters, weights=stream.lambdas,
                                   minlength=stream.alphabet_size)
                for res in results.values():
                    k = len(res.hot_letters)
                    reported += len(res.estimates)
                    queried += sum(k**m for m in range(1, res.depth + 1))
                    retained += k
                    true_hot += int(sum(mass[a] > res.threshold for a in res.hot_letters))
            except (IndexError, TypeError, AttributeError):
                continue  # a changed signature or result type reports no ratio
        return {
            "sketch.mine.kept_ratio": (reported / queried if queried else 0.0, "ratio"),
            "sketch.mine.true_hot_ratio": (true_hot / retained if retained else 0.0, "ratio"),
        }

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")
