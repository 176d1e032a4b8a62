"""Layer spans for the traced run, installed from outside the program.

Each wrapped function records a span (name, start, end, parent span,
request id) or, for hot leaf calls, adds to a per-request count and busy
time.  A span's self time is its duration minus the time its children,
spans or counted calls, were running.  Everything stays in memory until
``write`` is called at the end of the run.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, attribute, layer name, mode).  "Cls.method" patches the class;
# a function is replaced on every treecut module that bound it by name,
# e.g. sweep_engine.backbone and cli.optimize.  "count" marks hot leaf
# calls: per-request count and busy time instead of one span each.
TARGETS = (
    ("cli", "main", "cli.main", "span"),
    ("tree_model", "load_tree", "tree_model.load_tree", "span"),
    ("tree_model", "distances_from", "tree_model.distances_from", "count"),
    ("diameter_core", "backbone", "diameter_core.backbone", "span"),
    ("caterpillar", "Caterpillar.__init__", "caterpillar.build", "span"),
    ("caterpillar", "Caterpillar.families", "caterpillar.families", "count"),
    ("caterpillar", "Caterpillar.evaluate", "caterpillar.evaluate", "count"),
    ("sweep_engine", "optimize", "sweep_engine.optimize", "span"),
    ("smawk", "wedge_path_on_arcs", "smawk.wedge_path_on_arcs", "span"),
    ("augmented_eval", "augmented_diameter",
     "augmented_eval.augmented_diameter", "span"),
    ("augmented_eval", "augmented_diameter_value",
     "augmented_eval.augmented_diameter_value", "span"),
    ("augmented_eval", "classify_usefulness",
     "augmented_eval.classify_usefulness", "span"),
)


class Tracer:
    def __init__(self):
        self.request = None
        self.spans = []          # dicts, in the order they close
        self.counted = {}        # request -> {name: [calls, busy_s, self_s]}
        self._open = []          # frames: [covered_s, span id or None]
        self._next_id = 0
        self._patches = []       # (owner, attribute, original)

    # -- wrappers --------------------------------------------------------

    def _span(self, name, fn):
        clock, stack = time.perf_counter, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = next((f[1] for f in reversed(stack) if f[1] is not None),
                          None)
            frame = [0.0, self._next_id]
            self._next_id += 1
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][0] += end - start
                self.spans.append({"id": frame[1], "name": name,
                                   "request": self.request, "parent": parent,
                                   "start": start, "end": end,
                                   "self": end - start - frame[0]})
        return wrapper

    def _count(self, name, fn):
        clock, stack = time.perf_counter, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0, None]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                busy = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += busy
                rec = self.counted[self.request].setdefault(name, [0, 0.0, 0.0])
                rec[0] += 1
                rec[1] += busy
                rec[2] += busy - frame[0]
        return wrapper

    # -- installation ----------------------------------------------------

    def install(self):
        modules = [m for key, m in list(sys.modules.items())
                   if key == "treecut" or key.startswith("treecut.")]
        for module, attr, name, mode in TARGETS:
            owner = sys.modules[f"treecut.{module}"]
            make = self._span if mode == "span" else self._count
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, original, make(name, original))
                continue
            original = getattr(owner, attr)
            wrapper = make(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def begin(self, request):
        self.request = request
        self.counted[request] = {}

    # -- results ---------------------------------------------------------

    def totals(self):
        """name -> [calls, busy_s, self_s] summed over the whole run."""
        out = {}
        for span in self.spans:
            rec = out.setdefault(span["name"], [0, 0.0, 0.0])
            rec[0] += 1
            rec[1] += span["end"] - span["start"]
            rec[2] += span["self"]
        for per_request in self.counted.values():
            for name, (calls, busy, self_s) in per_request.items():
                rec = out.setdefault(name, [0, 0.0, 0.0])
                rec[0] += calls
                rec[1] += busy
                rec[2] += self_s
        return out

    def write(self, path):
        path.write_text(json.dumps({
            "spans": self.spans,
            "counted": {str(k): v for k, v in self.counted.items()},
        }))
