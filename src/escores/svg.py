"""Deterministic SVG curve panels, built as plain strings.

No plotting library: identical reports must serialize to identical
bytes, so every coordinate is formatted with a fixed precision and
nothing depends on fonts, clocks, or library versions.
"""

from __future__ import annotations

from typing import Sequence

from .core import InvalidInputError

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_WIDTH = 560
_HEIGHT = 400
_MARGIN_LEFT = 64
_MARGIN_RIGHT = 18
_MARGIN_TOP = 42
_MARGIN_BOTTOM = 48


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _finite(points: "Sequence[tuple[float, float]]") -> list[tuple[float, float]]:
    return [
        (x, y)
        for x, y in points
        if -float("inf") < x < float("inf") and -float("inf") < y < float("inf")
    ]


def render_panel(
    title: str,
    series: "Sequence[tuple[str, Sequence[tuple[float, float]]]]",
    x_label: str,
    y_label: str,
    *,
    reference_y: float | None = None,
    identity_line: bool = False,
    fixed_range: tuple[float, float, float, float] | None = None,
) -> str:
    """One SVG chart: a polyline per ``(name, points)`` series, optional reference geometry.

    Non-finite points are dropped from the polylines; the subtitle notes
    how many.  ``fixed_range`` pins (x_min, x_max, y_min, y_max);
    otherwise ranges are padded data extents.
    """
    finite = [_finite(points) for _, points in series]
    dropped = sum(len(points) - len(kept) for (_, points), kept in zip(series, finite))
    all_pts = [pt for pts in finite for pt in pts]

    if fixed_range is not None:
        x_min, x_max, y_min, y_max = fixed_range
    else:
        xs = [p[0] for p in all_pts] or [0.0, 1.0]
        ys = [p[1] for p in all_pts] or [0.0, 1.0]
        if reference_y is not None:
            ys.append(reference_y)
        x_min, x_max = min(xs), max(xs)
        y_min, y_max = min(ys), max(ys)
        if identity_line:
            hi = max(x_max, y_max)
            x_min, y_min = min(x_min, 0.0), min(y_min, 0.0)
            x_max = y_max = hi
        if x_max == x_min:
            x_min, x_max = x_min - 0.5, x_max + 0.5
        if y_max == y_min:
            y_min, y_max = y_min - 0.5, y_max + 0.5
        pad_x = 0.04 * (x_max - x_min)
        pad_y = 0.06 * (y_max - y_min)
        x_min, x_max = x_min - pad_x, x_max + pad_x
        y_min, y_max = y_min - pad_y, y_max + pad_y

    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def sx(x: float) -> float:
        return _MARGIN_LEFT + (x - x_min) / (x_max - x_min) * plot_w

    def sy(y: float) -> float:
        return _MARGIN_TOP + plot_h - (y - y_min) / (y_max - y_min) * plot_h

    parts: list[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">'
    )
    parts.append(f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>')
    parts.append(
        f'<text x="{_MARGIN_LEFT}" y="24" font-family="sans-serif" font-size="15" '
        f'fill="#202020">{title}</text>'
    )
    if dropped:
        parts.append(
            f'<text x="{_WIDTH - _MARGIN_RIGHT}" y="24" text-anchor="end" '
            f'font-family="sans-serif" font-size="11" fill="#909090">'
            f"{dropped} non-finite point(s) omitted</text>"
        )

    # axes and ticks
    x0, y0 = _MARGIN_LEFT, _MARGIN_TOP + plot_h
    parts.append(
        f'<line x1="{x0}" y1="{y0}" x2="{x0 + plot_w}" y2="{y0}" stroke="#404040" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{x0}" y1="{_MARGIN_TOP}" x2="{x0}" y2="{y0}" stroke="#404040" stroke-width="1"/>'
    )
    for i in range(5):
        frac = i / 4
        tx = x_min + frac * (x_max - x_min)
        ty = y_min + frac * (y_max - y_min)
        px, py = sx(tx), sy(ty)
        parts.append(
            f'<line x1="{_fmt(px)}" y1="{y0}" x2="{_fmt(px)}" y2="{y0 + 4}" stroke="#404040"/>'
        )
        parts.append(
            f'<text x="{_fmt(px)}" y="{y0 + 17}" text-anchor="middle" font-family="sans-serif" '
            f'font-size="10" fill="#404040">{tx:.4g}</text>'
        )
        parts.append(
            f'<line x1="{x0 - 4}" y1="{_fmt(py)}" x2="{x0}" y2="{_fmt(py)}" stroke="#404040"/>'
        )
        parts.append(
            f'<text x="{x0 - 7}" y="{_fmt(py + 3)}" text-anchor="end" font-family="sans-serif" '
            f'font-size="10" fill="#404040">{ty:.4g}</text>'
        )
    parts.append(
        f'<text x="{x0 + plot_w / 2:.2f}" y="{_HEIGHT - 10}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" fill="#202020">{x_label}</text>'
    )
    parts.append(
        f'<text x="16" y="{_MARGIN_TOP + plot_h / 2:.2f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" fill="#202020" '
        f'transform="rotate(-90 16 {_MARGIN_TOP + plot_h / 2:.2f})">{y_label}</text>'
    )

    if reference_y is not None and y_min <= reference_y <= y_max:
        ry = sy(reference_y)
        parts.append(
            f'<line x1="{x0}" y1="{_fmt(ry)}" x2="{x0 + plot_w}" y2="{_fmt(ry)}" '
            f'stroke="#808080" stroke-width="1" stroke-dasharray="6 4"/>'
        )
    if identity_line:
        lo = max(x_min, y_min)
        hi = min(x_max, y_max)
        if hi > lo:
            parts.append(
                f'<line x1="{_fmt(sx(lo))}" y1="{_fmt(sy(lo))}" x2="{_fmt(sx(hi))}" '
                f'y2="{_fmt(sy(hi))}" stroke="#808080" stroke-width="1" stroke-dasharray="6 4"/>'
            )

    for index, ((name, _), pts) in enumerate(zip(series, finite)):
        color = _PALETTE[index % len(_PALETTE)]
        if pts:
            coords = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in pts)
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="2"/>'
            )
            if len(pts) == 1:
                x, y = pts[0]
                parts.append(
                    f'<circle cx="{_fmt(sx(x))}" cy="{_fmt(sy(y))}" r="3" fill="{color}"/>'
                )
        ly = _MARGIN_TOP + 14 + 14 * index
        lx = x0 + plot_w - 130
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{lx + 23}" y="{ly}" font-family="sans-serif" font-size="11" '
            f'fill="#202020">{name}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def slugify(name: str) -> str:
    out = "".join(c if c.isalnum() else "_" for c in name)
    if not out:
        raise InvalidInputError(f"cannot build a file name from {name!r}")
    return out
