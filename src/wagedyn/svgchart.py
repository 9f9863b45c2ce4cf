"""Minimal self-contained SVG line charts. Convenience output only."""
from __future__ import annotations

import math
from pathlib import Path

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_W, _H = 640, 400
_ML, _MR, _MT, _MB = 60, 20, 30, 45


def _ticks(lo: float, hi: float) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / 5  # about five ticks per axis
    mag = 10 ** math.floor(math.log10(raw))
    step = min(s for s in (mag, 2 * mag, 5 * mag, 10 * mag) if s >= raw)
    start = math.ceil(lo / step) * step
    out = []
    t = start
    while t <= hi + 1e-12:
        out.append(round(t, 12))
        t += step
    return out


def write_line_chart(path: str | Path, x_values, series: dict[str, list[float]],
                     title: str = "", x_label: str = "", y_label: str = "") -> None:
    xs = [float(v) for v in x_values]
    all_y = [float(y) for ys in series.values() for y in ys if not math.isnan(float(y))]
    if not xs or not all_y:
        Path(path).write_text("<svg xmlns='http://www.w3.org/2000/svg'/>\n", encoding="utf-8")
        return
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(all_y + [0.0]), max(all_y)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pw, ph = _W - _ML - _MR, _H - _MT - _MB

    def X(v: float) -> float:
        return _ML + (v - x_lo) / (x_hi - x_lo) * pw

    def Y(v: float) -> float:
        return _MT + ph - (v - y_lo) / (y_hi - y_lo) * ph

    parts = [f"<svg xmlns='http://www.w3.org/2000/svg' width='{_W}' height='{_H}' "
             f"font-family='sans-serif' font-size='12'>",
             f"<rect width='{_W}' height='{_H}' fill='white'/>"]
    if title:
        parts.append(f"<text x='{_W / 2}' y='18' text-anchor='middle' "
                     f"font-size='14'>{title}</text>")
    parts.append(f"<line x1='{_ML}' y1='{_MT + ph}' x2='{_ML + pw}' y2='{_MT + ph}' "
                 f"stroke='black'/>")
    parts.append(f"<line x1='{_ML}' y1='{_MT}' x2='{_ML}' y2='{_MT + ph}' stroke='black'/>")
    for t in _ticks(x_lo, x_hi):
        parts.append(f"<line x1='{X(t):.1f}' y1='{_MT + ph}' x2='{X(t):.1f}' "
                     f"y2='{_MT + ph + 4}' stroke='black'/>")
        parts.append(f"<text x='{X(t):.1f}' y='{_MT + ph + 18}' "
                     f"text-anchor='middle'>{t:g}</text>")
    for t in _ticks(y_lo, y_hi):
        parts.append(f"<line x1='{_ML - 4}' y1='{Y(t):.1f}' x2='{_ML}' y2='{Y(t):.1f}' "
                     f"stroke='black'/>")
        parts.append(f"<text x='{_ML - 8}' y='{Y(t):.1f}' text-anchor='end' "
                     f"dominant-baseline='middle'>{t:g}</text>")
    if x_label:
        parts.append(f"<text x='{_ML + pw / 2}' y='{_H - 8}' "
                     f"text-anchor='middle'>{x_label}</text>")
    if y_label:
        parts.append(f"<text x='14' y='{_MT + ph / 2}' text-anchor='middle' "
                     f"transform='rotate(-90 14 {_MT + ph / 2})'>{y_label}</text>")
    for i, (label, ys) in enumerate(series.items()):
        color = _COLORS[i % len(_COLORS)]
        pts = " ".join(f"{X(x):.2f},{Y(float(y)):.2f}" for x, y in zip(xs, ys)
                       if not math.isnan(float(y)))
        parts.append(f"<polyline points='{pts}' fill='none' stroke='{color}' "
                     f"stroke-width='1.5'/>")
        ly = _MT + 14 + 16 * i
        parts.append(f"<line x1='{_ML + pw - 130}' y1='{ly}' x2='{_ML + pw - 110}' "
                     f"y2='{ly}' stroke='{color}' stroke-width='2'/>")
        parts.append(f"<text x='{_ML + pw - 105}' y='{ly + 4}'>{label}</text>")
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")
