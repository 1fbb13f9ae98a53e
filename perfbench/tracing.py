"""Per-layer spans recorded from outside the package.

``Tracer.install`` replaces the public functions that
``burgerslab.harness.studies`` calls with timing wrappers, at the binding the
studies look them up through (and ``laplacian_values`` at its binding in
``heat``, where the march calls it once per step).  Nothing under ``src/`` is
changed.  Each span records its duration, the part of it covered by wrapped
child spans (so self time = total - children), exact work counts computed
from the call's arguments, and the rise of the process RSS high-water mark,
which is charged to the innermost open span's layer.  Each quantity a record
reports is declared, with its unit, in ``TARGETS`` next to the counter that
computes it.

A target that no longer exists under its name is reported as missing and
the rest of the run goes on.  Byte figures are computed from array shapes,
not measured.
"""

from __future__ import annotations

import importlib
import inspect
import resource
import time
from dataclasses import dataclass
from functools import wraps
from pathlib import Path
from typing import Callable

import numpy as np

STUDIES = "burgerslab.harness.studies"


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _stack_bytes(grid) -> int:
    """Computed size of an (M+1) x N^d float64 space-time stack."""
    return (grid.M + 1) * grid.num_nodes * 8


def _support_nodes(phi, grid) -> int:
    """Space-time nodes inside phi's box: |t - t_c| < t_r, per-axis wrapped |x - c| < x_r."""
    t = grid.dt * np.arange(grid.M)
    nodes = int(np.count_nonzero(np.abs(t - phi.t_center) < phi.t_radius))
    x = grid.axis_coords()
    half = 0.5 * grid.L
    for c in phi.x_center:
        wrapped = (x - c + half) % grid.L - half
        nodes *= int(np.count_nonzero(np.abs(wrapped) < phi.x_radius))
    return nodes


def _weak_counts(a, _):
    grid = a["traj"].grid
    phis = list(a["phis"])
    return {
        "node_phi_products": grid.M * grid.num_nodes * len(phis),
        "support_nodes": sum(_support_nodes(phi, grid) for phi in phis),
    }


def _fk_counts(a, _):
    steps = int(round(a["t"] / a["noise"].grid.dt))
    return {"walk_steps": a["num_paths"] * steps}


def _emit_counts(_, written):
    return {"bytes_written": sum(Path(p).stat().st_size for p in written)}


@dataclass(frozen=True)
class Target:
    """One wrapped function and every quantity its record reports."""

    name: str  # record name, <module>.<function>
    layer: str
    module: str  # the module whose binding the callers look the function up through
    attr: str  # attribute path within that module
    counter: Callable | None = None  # (bound arguments, result) -> {count: value}
    counts: tuple = ()  # (quantity, unit) of each value the counter returns; exact
    rates: tuple = ()  # (quantity, unit, numerator, denominator) of the summed record

    def quantities(self) -> tuple:
        """(quantity, unit) of every value the record reports, in report order."""
        return ((("calls", "count"), ("total_s", "s"), ("self_s", "s"))
                + self.counts + tuple((q, unit) for q, unit, _, _ in self.rates))


TARGETS = (
    Target("noise.sample_noise", "noise", STUDIES, "sample_noise",
           lambda a, _: {"values": a["grid"].M * a["grid"].num_nodes},
           counts=(("values", "count"),)),
    Target("noise.mollify", "noise", STUDIES, "mollify",
           lambda a, _: {"slices": a["noise"].grid.M},
           counts=(("slices", "count"),)),
    Target("noise.coarse_grain", "noise", STUDIES, "coarse_grain"),
    Target("noise.pair", "noise", STUDIES, "pair"),
    Target("lattice.laplacian_values", "lattice", "burgerslab.heat", "laplacian_values"),
    Target("heat.solve_heat", "heat", STUDIES, "solve_heat",
           lambda a, _: {"node_steps": a["grid"].M * a["grid"].num_nodes,
                         "bytes_out": _stack_bytes(a["grid"]),
                         "max_bytes_out": _stack_bytes(a["grid"])},
           counts=(("node_steps", "count"), ("bytes_out", "B"), ("max_bytes_out", "B")),
           rates=(("node_steps_per_s", "1/s", "node_steps", "total_s"),)),
    Target("colehopf.cole_hopf", "colehopf", STUDIES, "cole_hopf",
           lambda a, _: {"bytes_out": _stack_bytes(a["sol"].grid)},
           counts=(("bytes_out", "B"),)),
    Target("colehopf.weak_residual_batch", "colehopf", STUDIES, "weak_residual_batch",
           _weak_counts,
           counts=(("node_phi_products", "count"), ("support_nodes", "count")),
           rates=(("support_fraction", "fraction", "support_nodes", "node_phi_products"),)),
    Target("colehopf.distributional_limit_1d", "colehopf", STUDIES, "distributional_limit_1d",
           lambda a, _: {"gradient_passes": len(a["entries"])},
           counts=(("gradient_passes", "count"),)),
    Target("colehopf.kpz_residual", "colehopf", STUDIES, "kpz_residual"),
    Target("colehopf.lojasiewicz_section", "colehopf", STUDIES, "lojasiewicz_section"),
    Target("fk.fk_estimate", "fk", STUDIES, "fk_estimate", _fk_counts,
           counts=(("walk_steps", "count"),),
           rates=(("walk_steps_per_s", "1/s", "walk_steps", "total_s"),)),
    Target("harness.config.validate", "harness", "burgerslab.harness.config",
           "ExperimentConfig.validate"),
    Target("harness.bank.build_bank", "harness", STUDIES, "build_bank"),
    Target("harness.reports.emit_reports", "harness", STUDIES, "emit_reports", _emit_counts,
           counts=(("bytes_written", "B"),)),
    Target("harness.studies", "harness", STUDIES, "run_study"),
)

# Layers whose spans sample the RSS high-water mark.  lattice is left out: its
# one wrapped function runs once per time step, and a rise inside it is
# charged to the enclosing heat span instead.
LAYERS = ("noise", "heat", "colehopf", "fk", "harness")

# Quantities that must repeat exactly from run to run of one config and seed.
COUNT_QUANTITIES = frozenset(
    ["calls"] + [q for target in TARGETS for q, _ in target.counts]
)


def merge(key: str, acc, value):
    """Counts add up; a ``max_`` quantity keeps the largest value."""
    return max(acc, value) if key.startswith("max_") else acc + value


class _Record:
    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.counts = {}
        self.counter_error = None


class _Frame:
    __slots__ = ("layer", "child_s")

    def __init__(self, layer):
        self.layer = layer
        self.child_s = 0.0


class Tracer:
    """Installs span wrappers; ``report()`` summarizes what they recorded."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.records = {}
        self.missing = []
        self.rss_rise_mb = {layer: 0.0 for layer in LAYERS}
        self._stack = []
        self._rss_mark = 0.0
        self._restore = []

    def install(self) -> None:
        for target in self.targets:
            try:
                owner = importlib.import_module(target.module)
                *parents, attr = target.attr.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(target.name)
                continue
            self.records[target.name] = _Record()
            setattr(owner, attr, self._wrap(fn, target))
            self._restore.append((owner, attr, fn))
        self._rss_mark = _maxrss_mb()

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    def _charge_rss(self) -> None:
        """Charge the high-water-mark rise since the last boundary to the open span."""
        now = _maxrss_mb()
        layer = next((f.layer for f in reversed(self._stack) if f.layer in LAYERS), None)
        if layer and now > self._rss_mark:
            self.rss_rise_mb[layer] += now - self._rss_mark
        self._rss_mark = now

    def _wrap(self, fn, target):
        record = self.records[target.name]
        layer, counter = target.layer, target.counter
        signature = inspect.signature(fn) if counter else None
        stack = self._stack
        sample_rss = layer in LAYERS

        @wraps(fn)
        def wrapper(*args, **kwargs):
            entered = time.perf_counter()
            if sample_rss:
                self._charge_rss()
            frame = _Frame(layer)
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                if sample_rss:
                    self._charge_rss()
                stack.pop()
                record.calls += 1
                record.total_s += elapsed
                record.self_s += elapsed - frame.child_s
            if counter and record.counter_error is None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    for key, value in counter(bound.arguments, result).items():
                        record.counts[key] = merge(key, record.counts.get(key, 0), value)
                except (TypeError, KeyError, AttributeError, OSError) as exc:
                    record.counter_error = f"{type(exc).__name__}: {exc}"
            if stack:
                # the wrapper's own bookkeeping is charged to no layer: it shows
                # only in the traced-minus-untraced overhead
                stack[-1].child_s += time.perf_counter() - entered
            return result

        return wrapper

    def report(self) -> dict:
        """Plain-JSON summary: per-record quantities, per-layer RSS rise, missing names."""
        records = {}
        for name, rec in self.records.items():
            out = {"calls": rec.calls, "total_s": rec.total_s, "self_s": rec.self_s}
            if rec.counter_error:
                out["counter_error"] = rec.counter_error
            else:
                out.update(rec.counts)
            records[name] = out
        return {
            "records": records,
            "rss_rise_mb": dict(self.rss_rise_mb),
            "missing": list(self.missing),
        }


def derived(records: dict) -> dict:
    """Every target's rates over its summed record (0 where no work was done)."""
    out = {}
    for target in TARGETS:
        rec = records.get(target.name, {})
        for q, _, num, den in target.rates:
            if num in rec:
                out[f"{target.name}.{q}"] = rec[num] / rec[den] if rec[den] > 0 else 0.0
    return out
