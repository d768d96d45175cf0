"""Traced-run harness: spans and counts around dqdsim's public functions.

The package binds its functions across modules with ``from .x import y``,
so a function is wrapped in every ``dqdsim`` module namespace that binds it.
Span wrappers record (name, start, end, parent, raised) in memory; count
wrappers only count calls, which keeps the fine-grained functions cheap to
trace.  Nothing here changes what the wrapped functions compute.
"""
from __future__ import annotations

import importlib
import sys
import time

SPANS = {
    "cli": ("main",),
    "noise": ("calibrate_tilt", "calibrate_barrier", "improvement_factor",
              "delta_J", "sweep"),
    "hamiltonian": ("solve", "hubbard_parameters", "jacobi_eigh", "assemble_matrix"),
    "integrals": ("build_tables",),
}
COUNTS = {
    "integrals": ("coulomb_element", "impurity_element", "i0e"),
    "orbitals": ("build_basis",),
    "model": ("derive_constants",),
}
CALIBRATIONS = ("noise.calibrate_tilt", "noise.calibrate_barrier")

# A span record: [name, start, end, parent index (-1 at the top), raised].
NAME, START, END, PARENT, RAISED = range(5)


def _build_tables_name(args, kwargs) -> str:
    imp = kwargs.get("imp", args[2] if len(args) > 2 else None)
    return "integrals.build_tables." + ("clean" if imp is None else "impurity")


class Tracer:
    """Wraps dqdsim's functions while installed; keeps spans of each pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _span(self, label, fn):
        spans, stack = self.spans, self._stack
        perf = time.perf_counter
        name_of = _build_tables_name if label == "integrals.build_tables" else None

        def wrapper(*args, **kwargs):
            rec = [name_of(args, kwargs) if name_of else label, 0.0, 0.0,
                   stack[-1] if stack else -1, False]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec[RAISED] = True
                raise
            finally:
                rec[END] = perf()
                stack.pop()
        return wrapper

    def _counter(self, label, fn):
        counts = self.counts
        counts[label] = 0

        def wrapper(*args, **kwargs):
            counts[label] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        """Replace every binding of each traced function in dqdsim's modules."""
        targets = []
        for kinds, make in ((SPANS, self._span), (COUNTS, self._counter)):
            for module, names in kinds.items():
                mod = importlib.import_module(f"dqdsim.{module}")
                for name in names:
                    fn = getattr(mod, name)
                    targets.append((fn, make(f"{module}.{name}", fn)))
        namespaces = [m for n, m in list(sys.modules.items())
                      if n == "dqdsim" or n.startswith("dqdsim.")]
        for fn, wrapper in targets:
            for mod in namespaces:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._restore.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._restore):
            setattr(mod, attr, fn)
        self._restore.clear()

    def take_pass(self) -> tuple[list[list], dict[str, int]]:
        """Hand over the spans and counts recorded since the last call."""
        spans, counts = self.spans[:], dict(self.counts)
        self.spans.clear()
        for key in self.counts:
            self.counts[key] = 0
        return spans, counts


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total and self seconds, solves nested in it,
    and how many calls raised."""
    child = [0.0] * len(spans)
    owner = [-1] * len(spans)   # nearest enclosing calibration span
    for i, (name, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += end - start
            owner[i] = owner[parent]
        if name in CALIBRATIONS:
            owner[i] = i
    out: dict[str, dict[str, float]] = {}
    # Spans are stored in start order, so an owner is summarized before
    # the solves nested in it.
    for i, (name, start, end, _, raised) in enumerate(spans):
        s = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                  "raised": 0, "j_evals": 0})
        s["calls"] += 1
        s["total_s"] += end - start
        s["self_s"] += end - start - child[i]
        s["raised"] += raised
        if name == "hamiltonian.solve" and owner[i] >= 0:
            out[spans[owner[i]][NAME]]["j_evals"] += 1
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list], counts: dict[str, int], rows: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    Every metric is reported on every workload; a layer that the workload
    never enters reads 0 (per-layer metrics have no bound).  `.s` is the
    inclusive time of a span, `self_s` its time minus its child spans.
    """
    summary = summarize(spans)

    def get(name, key):
        return summary.get(name, {}).get(key, 0)

    m = {
        "cli.main.calls": get("cli.main", "calls"),
        "cli.self_s": get("cli.main", "self_s"),
        "cli.rows": rows,
    }
    for name in ("noise.calibrate_tilt", "noise.calibrate_barrier"):
        m[f"{name}.calls"] = get(name, "calls")
        m[f"{name}.j_evals"] = get(name, "j_evals")
        m[f"{name}.s"] = get(name, "total_s")
    cal_calls = sum(get(n, "calls") for n in CALIBRATIONS)
    cal_evals = sum(get(n, "j_evals") for n in CALIBRATIONS)
    m["noise.calibrate.failed"] = sum(get(n, "raised") for n in CALIBRATIONS)
    m["noise.calibrate.j_evals_per_call"] = _ratio(cal_evals, cal_calls)
    for name in ("noise.improvement_factor", "noise.sweep", "noise.delta_J"):
        m[f"{name}.calls"] = get(name, "calls")
        m[f"{name}.s"] = get(name, "total_s")
    for name in ("hamiltonian.solve", "hamiltonian.hubbard_parameters",
                 "integrals.build_tables.clean", "integrals.build_tables.impurity"):
        m[f"{name}.calls"] = get(name, "calls")
        m[f"{name}.self_s"] = get(name, "self_s")
    for name in ("hamiltonian.jacobi_eigh", "hamiltonian.assemble_matrix"):
        m[f"{name}.calls"] = get(name, "calls")
        m[f"{name}.s"] = get(name, "total_s")
    tables = (get("integrals.build_tables.clean", "calls")
              + get("integrals.build_tables.impurity", "calls"))
    for module, names in COUNTS.items():
        for name in names:
            m[f"{module}.{name}.calls"] = counts.get(f"{module}.{name}", 0)
    j_evals = get("hamiltonian.solve", "calls")
    m["work.j_evals_per_row"] = _ratio(j_evals, rows)
    m["work.tables_per_j_eval"] = _ratio(tables, j_evals)
    return m
