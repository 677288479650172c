"""Deterministic CSV and SVG exporters.

All numeric formatting is fixed at 12 significant digits with a plain
decimal point, so identical inputs always produce byte-identical files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from .geometry import Configuration
from .sampling import PolylineSample
from .sweep import SweepResult

CSV_HEADER = "alpha,length,phi1,phi2,ls,feasible"

_STROKES = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")
_DASHES = ("", "7,3", "2,2", "8,3,2,3", "5,5", "1,3")


def _pen(i: int, width: str) -> str:
    """Stroke attributes of the i-th curve: colour and dash cycle."""
    dash = _DASHES[i % len(_DASHES)]
    dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
    return f'stroke="{_STROKES[i % len(_STROKES)]}" stroke-width="{width}"{dash_attr}'


def fmt12(x: float) -> str:
    """12-significant-digit decimal representation."""
    return format(float(x), ".12g")


def _fmt(x: float) -> str:
    """Fixed 4-decimal formatting for SVG coordinates."""
    out = format(float(x), ".4f")
    return "0.0000" if out == "-0.0000" else out


def export_sweep_csv(result: SweepResult, destination) -> None:
    """Write a sweep as CSV: header then one row per grid sample.

    Infeasible samples keep their alpha but leave the other numeric
    fields empty and carry feasible=false.
    """
    lines = [CSV_HEADER]
    for k in range(result.n):
        alpha = fmt12(result.alphas[k])
        if bool(result.feasible[k]):
            lines.append(
                ",".join(
                    (
                        alpha,
                        fmt12(result.lengths[k]),
                        fmt12(result.phi1[k]),
                        fmt12(result.phi2[k]),
                        fmt12(result.ls[k]),
                        "true",
                    )
                )
            )
        else:
            lines.append(f"{alpha},,,,,false")
    text = "\n".join(lines) + "\n"
    try:
        Path(destination).write_text(text, encoding="utf-8", newline="\n")
    except OSError as exc:
        raise OSError(f"cannot write sweep CSV to {destination!r}: {exc}") from exc


@dataclass(frozen=True)
class PathScene:
    """A geometric scene: sampled paths, circles, the start pose, markers."""

    paths: tuple[tuple[str, PolylineSample], ...]
    circles: tuple[tuple[float, float, float], ...] = ()
    start: Optional[Configuration] = None
    markers: tuple[tuple[float, float, str], ...] = ()


@dataclass(frozen=True)
class SweepPlot:
    """Length-versus-alpha curves; jumps are drawn broken, not connected."""

    curves: tuple[tuple[str, Sequence[float], Sequence[float]], ...]
    break_threshold: float


def render_svg(scene, destination) -> None:
    """Render a PathScene or SweepPlot as a standalone SVG document."""
    if isinstance(scene, PathScene):
        text = _render_scene(scene)
    elif isinstance(scene, SweepPlot):
        text = _render_plot(scene)
    else:
        raise TypeError(f"cannot render {type(scene).__name__}")
    try:
        Path(destination).write_text(text, encoding="utf-8", newline="\n")
    except OSError as exc:
        raise OSError(f"cannot write SVG to {destination!r}: {exc}") from exc


class _Projection:
    """World to SVG coordinates: uniform scale, 5% margin, y up."""

    width = 800.0

    def __init__(self, xmin, xmax, ymin, ymax):
        spanx = max(xmax - xmin, 1e-9)
        spany = max(ymax - ymin, 1e-9)
        margin = 0.05 * max(spanx, spany)
        self.xmin, self.ymin = xmin - margin, ymin - margin
        spanx += 2 * margin
        spany += 2 * margin
        self.scale = self.width / spanx
        self.height = spany * self.scale

    def point(self, x, y):
        return (x - self.xmin) * self.scale, self.height - (y - self.ymin) * self.scale


def _scene_bounds(scene: PathScene):
    xs, ys = [], []
    for _, sample in scene.paths:
        for x, y, _ in sample.poses:
            xs.append(x)
            ys.append(y)
    for cx, cy, radius in scene.circles:
        xs.extend((cx - radius, cx + radius))
        ys.extend((cy - radius, cy + radius))
    if scene.start is not None:
        xs.append(scene.start.x)
        ys.append(scene.start.y)
    for x, y, _ in scene.markers:
        xs.append(x)
        ys.append(y)
    if not xs:
        raise ValueError("scene is empty")
    return min(xs), max(xs), min(ys), max(ys)


def _svg_document(body: list[str], width: float, height: float) -> str:
    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(width)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">\n'
    )
    return head + "\n".join(body) + "\n</svg>\n"


def _legend(labels: Sequence[str]) -> list[str]:
    body = []
    for i, label in enumerate(labels):
        y = 20.0 + 18.0 * i
        body.append(f'<line x1="10" y1="{_fmt(y)}" x2="40" y2="{_fmt(y)}" {_pen(i, "2")}/>')
        body.append(
            f'<text x="46" y="{_fmt(y + 4)}" font-family="sans-serif" '
            f'font-size="12">{label}</text>'
        )
    return body


def _render_scene(scene: PathScene) -> str:
    proj = _Projection(*_scene_bounds(scene))
    body = ['<rect width="100%" height="100%" fill="white"/>']
    for cx, cy, radius in scene.circles:
        px, py = proj.point(cx, cy)
        body.append(
            f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="{_fmt(radius * proj.scale)}" '
            f'fill="none" stroke="#999999" stroke-width="1"/>'
        )
    for i, (label, sample) in enumerate(scene.paths):
        points = " ".join(
            f"{_fmt(px)},{_fmt(py)}" for px, py in (proj.point(x, y) for x, y, _ in sample.poses)
        )
        body.append(f'<polyline points="{points}" fill="none" {_pen(i, "2")}/>')
    if scene.start is not None:
        px, py = proj.point(scene.start.x, scene.start.y)
        hx = px + 18.0 * math.cos(scene.start.theta)
        hy = py - 18.0 * math.sin(scene.start.theta)
        body.append(f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="4" fill="#000000"/>')
        body.append(
            f'<line x1="{_fmt(px)}" y1="{_fmt(py)}" x2="{_fmt(hx)}" y2="{_fmt(hy)}" '
            f'stroke="#000000" stroke-width="2"/>'
        )
    for x, y, label in scene.markers:
        px, py = proj.point(x, y)
        body.append(
            f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="3" fill="none" '
            f'stroke="#000000" stroke-width="1"/>'
        )
        body.append(
            f'<text x="{_fmt(px + 5)}" y="{_fmt(py - 5)}" font-family="sans-serif" '
            f'font-size="11">{label}</text>'
        )
    body.extend(_legend([label for label, _ in scene.paths]))
    return _svg_document(body, proj.width, proj.height)


def _render_plot(plot: SweepPlot) -> str:
    if not plot.curves:
        raise ValueError("plot has no curves")
    finite = [
        v
        for _, _, lengths in plot.curves
        for v in lengths
        if v is not None and math.isfinite(v)
    ]
    if not finite:
        raise ValueError("plot has no finite samples")
    ymin, ymax = min(finite), max(finite)
    xmax = max(max(alphas) for _, alphas, _ in plot.curves)
    proj = _Projection(0.0, max(xmax, 1e-9), ymin, ymax)
    body = ['<rect width="100%" height="100%" fill="white"/>']
    # axes
    x0, y0 = proj.point(0.0, ymin)
    x1, _ = proj.point(xmax, ymin)
    _, y1 = proj.point(0.0, ymax)
    body.append(
        f'<path d="M {_fmt(x0)} {_fmt(y1)} L {_fmt(x0)} {_fmt(y0)} L {_fmt(x1)} {_fmt(y0)}" '
        f'fill="none" stroke="#333333" stroke-width="1"/>'
    )
    for i, (label, alphas, lengths) in enumerate(plot.curves):
        runs: list[list[str]] = [[]]
        previous = None
        for alpha, length in zip(alphas, lengths):
            bad = length is None or not math.isfinite(length)
            if bad or (previous is not None and abs(length - previous) > plot.break_threshold):
                if runs[-1]:
                    runs.append([])
                previous = None
                if bad:
                    continue
            px, py = proj.point(alpha, length)
            runs[-1].append(f"{_fmt(px)},{_fmt(py)}")
            previous = length
        for run in runs:
            if len(run) >= 2:
                body.append(
                    f'<polyline points="{" ".join(run)}" fill="none" {_pen(i, "1.5")}/>'
                )
    body.extend(_legend([label for label, _, _ in plot.curves]))
    return _svg_document(body, proj.width, proj.height)
