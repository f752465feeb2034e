"""Spans around the public functions of rydkit's modules, recorded from outside.

`Tracer.install` replaces each public function of the traced modules with a
wrapper, in every rydkit module namespace that binds it (so `from .grid import
scan` call sites are intercepted too). It also wraps the CLI entry point, the
CSV methods of `grid.ScanGrid` and the two scipy solvers the models call. No
rydkit source is edited.

Each call records one span: name, parent span, start and end. Spans live in
flat arrays in memory and are written out once, by `dump`, at the end of a
run. `summarize` turns spans into per-layer totals: calls, self time (a span's
duration minus the time its child spans cover) and the counters below.

Standard library only, so the controller can read span files without rydkit.
"""

from __future__ import annotations

import functools
import inspect
import json
import operator
import sys
import time
from array import array
from collections import defaultdict

PACKAGE = "rydkit"
TRACED_MODULES = ("budget", "core", "dressing", "gate_error", "grid", "species", "report")
ENTRY_POINTS = (("cli", "main"),)
# Span name -> scipy.optimize attribute. The solver is wrapped wherever it is
# bound: in scipy.optimize itself (once imported) and in any rydkit namespace.
SOLVERS = {"report.minimize_scalar": "minimize_scalar", "gate_error.brentq": "brentq"}
METHODS = (("grid", "ScanGrid", "to_csv"), ("grid", "ScanGrid", "from_csv"))

# Work counted at a span boundary: span name -> (counter, fn(arguments, result)),
# totalled as "<span name>.<counter>".
COUNTERS = {
    "grid.scan": ("cells", lambda a, r: len(r.x_axis.values) * len(r.y_axis.values)),
    "grid.ScanGrid.to_csv": ("bytes", lambda a, r: len(r.encode())),
    "report.minimize_scalar": ("nfev", lambda a, r: int(r.nfev)),
    "budget.simulate_loss": ("draws", lambda a, r: r.trials * a["n_code"]),
}
# Calls of `inner` made (at any depth) inside `outer`, totalled under the key.
NESTED = {
    "gate_error.detuning_budget.evals": (
        "gate_error.excitation_error", "gate_error.detuning_budget"),
}


class Tracer:
    """Records spans while installed; `uninstall` restores every original."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, float] = defaultdict(float)
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, span_name: str, fn):
        if span_name not in self.names:
            self.names.append(span_name)
        nid = self.names.index(span_name)
        counter = COUNTERS.get(span_name)
        signature = inspect.signature(fn) if counter else None
        counts, stack, clock = self.counts, self._stack, time.perf_counter
        add_name, add_parent = self.name.append, self.parent.append
        add_start, ends, add_end = self.start.append, self.end, self.end.append

        def span(*args, **kwargs):
            idx = len(ends)
            add_name(nid)
            add_parent(stack[-1])
            add_end(0.0)
            stack.append(idx)
            add_start(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if counter is not None:
                arguments = signature.bind(*args, **kwargs).arguments
                counts[f"{span_name}.{counter[0]}"] += counter[1](arguments, result)
            return result

        return functools.update_wrapper(span, fn)

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every traced callable of the rydkit modules imported so far."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        mods = {n: m for n, m in list(sys.modules.items())
                if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))}
        targets: dict[int, tuple[str, object]] = {}
        for short in TRACED_MODULES:
            mod = mods.get(f"{PACKAGE}.{short}")
            for attr, obj in (vars(mod).items() if mod else ()):
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    targets[id(obj)] = (f"{short}.{attr}", obj)
        for short, attr in ENTRY_POINTS:
            obj = getattr(mods.get(f"{PACKAGE}.{short}"), attr, None)
            if obj is not None:
                targets[id(obj)] = (f"{short}.{attr}", obj)
        optimize = sys.modules.get("scipy.optimize")
        for span_name, attr in SOLVERS.items():
            home = mods.get(f"{PACKAGE}.{span_name.split('.')[0]}")
            obj = getattr(optimize, attr, None) or getattr(home, attr, None)
            if obj is not None:
                targets[id(obj)] = (span_name, obj)
        wrappers = {key: self._wrap(name, obj) for key, (name, obj) in targets.items()}
        for mod in [*mods.values(), optimize]:
            for attr, obj in list(vars(mod).items() if mod else ()):
                if id(obj) in targets and targets[id(obj)][1] is obj:
                    self._set(mod, attr, wrappers[id(obj)])
        for short, cls_name, attr in METHODS:
            cls = getattr(mods.get(f"{PACKAGE}.{short}"), cls_name, None)
            if cls is None:
                continue
            raw = vars(cls)[attr]
            name = f"{short}.{cls_name}.{attr}"
            if isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(self._wrap(name, raw.__func__)))
            else:
                self._set(cls, attr, self._wrap(name, raw))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def dump(self, path: str) -> None:
        """Write every span: one JSON header line, then the four raw arrays."""
        header = {"names": self.names, "spans": len(self.end), "counts": dict(self.counts),
                  "arrays": [["name", "H"], ["parent", "q"], ["start", "d"], ["end", "d"]]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)

    def summary(self) -> dict[str, float]:
        return summarize(self.names, self.name, self.parent, self.start, self.end,
                         self.counts)


def load(path: str) -> dict[str, float]:
    """Summary of a span file written by `Tracer.dump`."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        arrays = []
        for _, code in header["arrays"]:
            arr = array(code)
            arr.fromfile(fh, header["spans"])
            arrays.append(arr)
    return summarize(header["names"], *arrays, header["counts"])


def summarize(names, name, parent, start, end, counts) -> dict[str, float]:
    """Per span name: `.calls`, `.total_s` and `.self_s`; plus counters and nesting."""
    n = len(end)
    duration = array("d", map(operator.sub, end, start))
    child = array("d", bytes(8 * n))
    for i in range(n):
        if parent[i] >= 0:
            child[parent[i]] += duration[i]
    out: dict[str, float] = defaultdict(float)
    for i in range(n):
        key = names[name[i]]
        out[f"{key}.calls"] += 1
        out[f"{key}.total_s"] += duration[i]
        out[f"{key}.self_s"] += duration[i] - child[i]
    for key, (inner, outer) in NESTED.items():
        if inner not in names or outer not in names:
            continue
        inner_id, outer_id = names.index(inner), names.index(outer)
        for i in range(n):
            if name[i] == inner_id:
                p = parent[i]
                while p >= 0 and name[p] != outer_id:
                    p = parent[p]
                out[key] += p >= 0
    for key, value in counts.items():
        out[key] += value
    return dict(out)
