"""Outside-in tracer: spans around the package's layer boundaries.

The tracer wraps public functions and methods of ``spinchannel`` from the
outside, so the package itself carries no tracing code.  A function that
another module binds through ``from ... import`` lives on under a second
name there (``runner.integrate``, ``runner.expm_hermitian``,
``quantum_channel.expm_hermitian``); ``install`` rebinds every name in the
package that refers to a wrapped function, otherwise calls through those
names would escape the trace and their layers would read zero.

Each span is recorded in memory as (name, start, end, parent, pass id).
A span's self time is its duration minus the durations of its child spans;
spans nest strictly because the package runs in one thread, so the self
times of all spans add up to the summed duration of the root spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

# (module, attribute, span name).  Functions; methods are handled below.
FUNCTIONS = (
    ("spinchannel.runner", "run_scenario", "runner.run_scenario"),
    ("spinchannel.runner", "sweep", "runner.sweep"),
    ("spinchannel.runner", "write_output", "runner.write_output"),
    ("spinchannel.hybrid_dynamics", "integrate", "hybrid_dynamics.integrate"),
    ("spinchannel.correlators", "otoc_product", "correlators.otoc_product"),
    ("spinchannel.quantum_channel", "thermal_otoc", "quantum_channel.thermal_otoc"),
    ("spinchannel.quantum_channel", "thermal_concurrence", "quantum_channel.thermal_concurrence"),
    ("spinchannel.quantum_channel", "otoc_numeric", "quantum_channel.otoc_numeric"),
    ("spinchannel.quantum_channel", "concurrence", "quantum_channel.concurrence"),
    ("spinchannel.quantum_channel", "thermal_density", "quantum_channel.thermal_density"),
    ("spinchannel.spin_algebra", "expm_hermitian", "spin_algebra.expm_hermitian"),
)
STEPPER_METHODS = (("step", "dp45.step"), ("interpolate", "dp45.interpolate"),
                   ("replace_state", "dp45.replace_state"))
RHS_SPAN = "hybrid_dynamics.rhs"


class Tracer:
    """Records spans for one pass.  ``install`` patches, ``uninstall`` restores."""

    def __init__(self, pass_id: int):
        self.pass_id = pass_id
        self.names: list[str] = []
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.rebound: list[str] = []

    def _name_index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn):
        idx = self._name_index(name)
        spans, stack, clock, pass_id = self.spans, self._stack, time.perf_counter, self.pass_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            me = len(spans)
            spans.append(None)
            stack.append(me)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[me] = (idx, start, end, parent, pass_id)

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        package = [m for name, m in sys.modules.items()
                   if name == "spinchannel" or name.startswith("spinchannel.")]
        for module_name, attr, span in FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapped = self.wrap(span, original)
            for module in package:
                for bound_name, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, bound_name, wrapped)
                        self.rebound.append(f"{module.__name__}.{bound_name}")

        from spinchannel.dp45 import DormandPrince45
        for method, span in STEPPER_METHODS:
            self._set(DormandPrince45, method, self.wrap(span, getattr(DormandPrince45, method)))
        original_init = DormandPrince45.__init__
        wrap = self.wrap

        def init(stepper, fun, *args, **kwargs):
            original_init(stepper, wrap(RHS_SPAN, fun), *args, **kwargs)

        self._set(DormandPrince45, "__init__", init)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def summary(self) -> tuple[dict[str, dict[str, float]], float]:
        """Per span name: calls, inclusive seconds and self seconds; and the
        summed duration of the root spans."""
        child = [0.0] * len(self.spans)
        for idx, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        per_name: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        roots = 0.0
        for i, (idx, start, end, parent, _) in enumerate(self.spans):
            rec = per_name[self.names[idx]]
            rec["calls"] += 1
            rec["total_s"] += end - start
            rec["self_s"] += (end - start) - child[i]
            if parent < 0:
                roots += end - start
        return dict(per_name), roots

    def write(self, path: str) -> None:
        """Write the spans as JSON: span names, then one
        [name index, start, end, parent span index, pass id] row per span."""
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"pass_id": self.pass_id, "names": self.names,
                       "fields": ["name", "start", "end", "parent", "pass_id"],
                       "spans": self.spans}, fh, separators=(",", ":"))
            fh.write("\n")


def span_cost_s(calls: int = 20000, repeats: int = 5) -> float:
    """Extra seconds one traced call costs over a plain call, timed on a
    no-op wrapped by a ``Tracer`` (fastest of ``repeats``)."""
    def noop():
        return None

    probe = Tracer(pass_id=-1)
    traced = probe.wrap("probe", noop)
    best = []
    for fn in (noop, traced):
        fastest = float("inf")
        for _ in range(repeats):
            probe.spans.clear()
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            fastest = min(fastest, time.perf_counter() - start)
        best.append(fastest)
    return (best[1] - best[0]) / calls
