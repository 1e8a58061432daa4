"""Minimal SVG line/scatter charts, no plotting dependencies.

Deliberately small: axes, ticks, polylines, circle markers and text labels,
emitted with fixed number formatting so repeated runs produce identical
bytes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

__all__ = ["Series", "Marker", "line_chart"]

_WIDTH, _HEIGHT = 860, 540
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 78, 24, 40, 56
_COLORS = ("#2a7a2a", "#e08020", "#2060c0", "#c03030")


@dataclass
class Series:
    name: str
    xs: Sequence[float]
    ys: Sequence[float]
    color: Optional[str] = None


@dataclass
class Marker:
    x: float
    y: float
    label: str
    color: str = "#202020"


def _nice_ticks(lo: float, hi: float, n: int = 6) -> List[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / max(n, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    start = math.ceil(lo / step) * step
    ticks = []
    t = start
    while t <= hi + 1e-9 * step:
        ticks.append(round(t, 10))
        t += step
    return ticks


def line_chart(
    path,
    series: List[Series],
    *,
    title: str,
    x_label: str,
    y_label: str,
    markers: Optional[List[Marker]] = None,
    y_log: bool = False,
) -> None:
    """Write a single-panel chart; log-scale y drops non-positive points."""
    markers = markers or []
    pts_x: List[float] = []
    pts_y: List[float] = []
    for s in series:
        for x, y in zip(s.xs, s.ys):
            if y_log and y <= 0:
                continue
            pts_x.append(float(x))
            pts_y.append(float(y))
    for m in markers:
        if not (y_log and m.y <= 0):
            pts_x.append(float(m.x))
            pts_y.append(float(m.y))
    if not pts_x:
        raise ValueError("nothing to plot")

    x_lo, x_hi = min(pts_x), max(pts_x)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_log:
        y_lo = math.floor(math.log10(min(pts_y)))
        y_hi = math.ceil(math.log10(max(pts_y)))
        if y_hi == y_lo:
            y_hi += 1
    else:
        y_lo, y_hi = min(pts_y), max(pts_y)
        if y_hi == y_lo:
            y_hi = y_lo + 1.0
        pad = 0.05 * (y_hi - y_lo)
        y_lo, y_hi = y_lo - pad, y_hi + pad

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def sx(x: float) -> float:
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        v = math.log10(y) if y_log else y
        return _MARGIN_T + plot_h - (v - y_lo) / (y_hi - y_lo) * plot_h

    out: List[str] = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif" font-size="13">'
    )
    out.append(f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>')
    out.append(
        f'<text x="{_WIDTH / 2:.1f}" y="24" text-anchor="middle" font-size="16">{title}</text>'
    )

    # axes frame
    out.append(
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#404040"/>'
    )

    for tick in _nice_ticks(x_lo, x_hi):
        px = sx(tick)
        out.append(
            f'<line x1="{px:.2f}" y1="{_MARGIN_T + plot_h}" x2="{px:.2f}" '
            f'y2="{_MARGIN_T + plot_h + 5}" stroke="#404040"/>'
        )
        out.append(
            f'<text x="{px:.2f}" y="{_MARGIN_T + plot_h + 20}" text-anchor="middle">'
            f"{tick:g}</text>"
        )
    y_ticks = (
        [float(e) for e in range(int(y_lo), int(y_hi) + 1)]
        if y_log
        else _nice_ticks(y_lo, y_hi)
    )
    for tick in y_ticks:
        py = sy(10.0**tick) if y_log else sy(tick)
        label = f"1e{int(tick)}" if y_log else f"{tick:g}"
        out.append(
            f'<line x1="{_MARGIN_L - 5}" y1="{py:.2f}" x2="{_MARGIN_L}" y2="{py:.2f}" '
            f'stroke="#404040"/>'
        )
        out.append(
            f'<text x="{_MARGIN_L - 9}" y="{py + 4:.2f}" text-anchor="end">{label}</text>'
        )

    out.append(
        f'<text x="{_MARGIN_L + plot_w / 2:.1f}" y="{_HEIGHT - 14}" '
        f'text-anchor="middle">{x_label}</text>'
    )
    out.append(
        f'<text x="20" y="{_MARGIN_T + plot_h / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 20 {_MARGIN_T + plot_h / 2:.1f})">{y_label}</text>'
    )

    for i, s in enumerate(series):
        color = s.color or _COLORS[i % len(_COLORS)]
        coords = [
            f"{sx(float(x)):.2f},{sy(float(y)):.2f}"
            for x, y in zip(s.xs, s.ys)
            if not (y_log and y <= 0)
        ]
        if coords:
            out.append(
                f'<polyline points="{" ".join(coords)}" fill="none" '
                f'stroke="{color}" stroke-width="1.8"/>'
            )
        out.append(
            f'<text x="{_MARGIN_L + plot_w - 8}" y="{_MARGIN_T + 18 + 18 * i}" '
            f'text-anchor="end" fill="{color}">{s.name}</text>'
        )

    for m in markers:
        if y_log and m.y <= 0:
            continue
        px, py = sx(m.x), sy(m.y)
        out.append(
            f'<circle cx="{px:.2f}" cy="{py:.2f}" r="5" fill="{m.color}" stroke="white"/>'
        )
        out.append(f'<text x="{px + 9:.2f}" y="{py - 7:.2f}">{m.label}</text>')

    out.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")
