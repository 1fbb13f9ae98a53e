"""Study reports and deterministic artifact emission.

A study produces one StudyReport: named pass/fail items (``check``
derives an item's pass from the value, target and tolerance it records),
measured convergence orders, optional curve groups, and tables of values.
``emit_reports``, the one place an artifact is formatted, writes
everything under one directory:

* ``study.json`` — config echo, items, orders, curves, verdict (never the
  wall clock, which would break byte-level reproducibility);
* one CSV file per table, each cell a ``str`` as it is or a number as
  the ``repr`` of its Python value;
* one hand-emitted SVG per curve group — minimal log-log line charts with
  no plotting dependency.

Every file is byte-identical across re-emissions of the same report.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = ["StudyReport", "emit_reports", "resolve_out_dir"]

_ENV_OUT = "BURGERSLAB_OUT"


def resolve_out_dir(explicit=None) -> Path:
    """Output directory precedence: explicit, $BURGERSLAB_OUT, ./burgerslab-out."""
    if explicit:
        return Path(explicit)
    env = os.environ.get(_ENV_OUT)
    if env:
        return Path(env)
    return Path("burgerslab-out")


@dataclass
class StudyReport:
    """Everything one study run concluded; see the module docstring."""

    study: str
    config: dict
    items: list = field(default_factory=list)
    orders: dict = field(default_factory=dict)
    curves: dict = field(default_factory=dict)
    tables: dict = field(default_factory=dict)
    wallclock_s: float | None = None

    def add(self, name: str, value, passed: bool, target=None, tol=None):
        """Record one named check; numeric entries must be finite."""
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"item {name!r} has non-finite value {value!r}")
        item = {"name": name, "value": value, "passed": bool(passed)}
        if target is not None:
            target = float(target)
            if not math.isfinite(target):
                raise ValueError(f"item {name!r} has non-finite target {target!r}")
            item["target"] = target
        if tol is not None:
            item["tol"] = float(tol)
        self.items.append(item)
        return item

    def check(self, name: str, value, target=0.0, tol=None):
        """Record one check: it passes when |value − target| ≤ tol, or value == target if no tol."""
        passed = value == target if tol is None else abs(value - target) <= tol
        return self.add(name, value, passed, target=target, tol=tol)

    def add_order(self, name: str, value: float):
        if not math.isfinite(value):
            raise ValueError(f"order {name!r} is non-finite: {value!r}")
        self.orders[name] = float(value)

    def add_table(self, name: str, header, rows):
        """Record one CSV table: column names and rows of values, one per column."""
        self.tables[name] = (tuple(header), [tuple(row) for row in rows])

    def add_curves(self, chart: str, series: dict, xlabel: str, ylabel: str):
        """Record one log-log chart; points with x ≤ 0 or y ≤ 0 are not drawn."""
        self.curves[chart] = {
            "xlabel": xlabel,
            "ylabel": ylabel,
            "loglog": True,
            "series": {
                label: [(float(x), float(y)) for x, y in pts]
                for label, pts in series.items()
            },
        }

    @property
    def passed(self) -> bool:
        return all(item["passed"] for item in self.items)


def _jsonable(obj):
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def _cell(value) -> str:
    """One CSV cell: a str as it is, a number as the repr of its Python value."""
    if isinstance(value, str):
        return value
    return repr(value.item() if isinstance(value, np.generic) else value)


def emit_reports(report: StudyReport, out_dir) -> list:
    """Write study.json, tables, and SVG charts; return the paths written."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create output directory {out}: {exc}") from exc

    written = []

    def _write(name: str, text: str):
        path = out / name
        try:
            path.write_text(text)
        except OSError as exc:
            raise OSError(f"cannot write {path}: {exc}") from exc
        written.append(path)

    payload = {
        "study": report.study,
        "passed": report.passed,
        "config": report.config,
        "items": report.items,
        "orders": report.orders,
        "curves": report.curves,
    }
    _write("study.json", json.dumps(payload, indent=2, sort_keys=True,
                                    default=_jsonable) + "\n")
    for name, (header, rows) in sorted(report.tables.items()):
        _write(name, "".join(",".join(map(_cell, row)) + "\n" for row in [header, *rows]))
    for name, spec in sorted(report.curves.items()):
        _write(f"{name}.svg", _svg_chart(name, spec))
    return written


# ---------------------------------------------------------------------------
# minimal SVG line charts

_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f",
)

_W, _H = 640, 440
_ML, _MR, _MT, _MB = 75, 25, 45, 55


def _ticks(lo: float, hi: float):
    """Decade ticks between log10 bounds; the bounds themselves if none fit."""
    first = math.ceil(lo - 1e-9)
    last = math.floor(hi + 1e-9)
    if first > last:
        return [lo, hi]
    return [float(k) for k in range(first, last + 1)]


def _tick_label(v: float) -> str:
    return f"1e{v:g}" if v == int(v) else f"{10.0 ** v:.2g}"


def _svg_chart(name: str, spec: dict) -> str:
    pts_all = []
    series = []
    for label, pts in spec["series"].items():
        kept = [(math.log10(x), math.log10(y)) for x, y in pts
                if not (x <= 0 or y <= 0)]
        series.append((label, kept))
        pts_all.extend(kept)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.2f}" y="22" text-anchor="middle" '
        f'font-size="15">{name}</text>',
    ]
    if pts_all:
        xs = [p[0] for p in pts_all]
        ys = [p[1] for p in pts_all]
        xlo, xhi = min(xs), max(xs)
        ylo, yhi = min(ys), max(ys)
        if xhi - xlo < 1e-12:
            xlo, xhi = xlo - 1.0, xhi + 1.0
        if yhi - ylo < 1e-12:
            ylo, yhi = ylo - 1.0, yhi + 1.0
        xpad, ypad = 0.05 * (xhi - xlo), 0.05 * (yhi - ylo)
        xlo, xhi = xlo - xpad, xhi + xpad
        ylo, yhi = ylo - ypad, yhi + ypad

        def sx(v):
            return _ML + (v - xlo) / (xhi - xlo) * (_W - _ML - _MR)

        def sy(v):
            return _H - _MB - (v - ylo) / (yhi - ylo) * (_H - _MT - _MB)

        parts.append(
            f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
            f'height="{_H - _MT - _MB}" fill="none" stroke="#444"/>'
        )
        for tv in _ticks(xlo, xhi):
            if not (xlo <= tv <= xhi):
                continue
            x = sx(tv)
            parts.append(
                f'<line x1="{x:.2f}" y1="{_H - _MB}" x2="{x:.2f}" '
                f'y2="{_H - _MB + 5}" stroke="#444"/>'
            )
            parts.append(
                f'<text x="{x:.2f}" y="{_H - _MB + 18}" text-anchor="middle">'
                f'{_tick_label(tv)}</text>'
            )
        for tv in _ticks(ylo, yhi):
            if not (ylo <= tv <= yhi):
                continue
            y = sy(tv)
            parts.append(
                f'<line x1="{_ML - 5}" y1="{y:.2f}" x2="{_ML}" y2="{y:.2f}" '
                f'stroke="#444"/>'
            )
            parts.append(
                f'<text x="{_ML - 8}" y="{y + 4:.2f}" text-anchor="end">'
                f'{_tick_label(tv)}</text>'
            )
        for i, (label, kept) in enumerate(series):
            if not kept:
                continue
            color = _PALETTE[i % len(_PALETTE)]
            coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in kept)
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" '
                f'stroke-width="1.5"/>'
            )
            for x, y in kept:
                parts.append(
                    f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="2.5" '
                    f'fill="{color}"/>'
                )
            ly = _MT + 16 + 16 * i
            parts.append(
                f'<rect x="{_W - _MR - 130}" y="{ly - 9}" width="10" '
                f'height="10" fill="{color}"/>'
            )
            parts.append(
                f'<text x="{_W - _MR - 115}" y="{ly}">{label}</text>'
            )
    parts.append(
        f'<text x="{(_ML + _W - _MR) / 2:.2f}" y="{_H - 12}" '
        f'text-anchor="middle">{spec["xlabel"]}</text>'
    )
    parts.append(
        f'<text x="16" y="{(_MT + _H - _MB) / 2:.2f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {(_MT + _H - _MB) / 2:.2f})">'
        f'{spec["ylabel"]}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
