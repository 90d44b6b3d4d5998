"""Minimal self-contained SVG 1.1 emission for curves and boundary images.

No external assets, no CSS classes: every style is a presentation
attribute, so the files stand alone.  Writes are atomic (temp file plus
os.replace; the temp file is removed if either fails).  Machine-readable
plot metadata (root location, radius, ...) goes into the <desc> element as
semicolon-separated key=value pairs.

A polyline's pixels are formed as two arrays by the same `Frame.px` and
`Frame.py` expressions a single point goes through, and all its points
are formatted by one `%` call.  The bytes are those of a per-point loop:
numpy's elementwise +, -, * and / round like Python's float operations,
so each array pixel has the bits of the scalar one, and `%.2f` is the
same correctly rounded conversion as `f"{v:.2f}"`, nan, inf and -0.00
included.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass

import numpy as np

_PAD = 54.0
# canvas sizes in px: curve plots are landscape, boundary plots square
_CURVE_WIDTH, _CURVE_HEIGHT = 720.0, 480.0
_BOUNDARY_SIDE = 560.0


@dataclass(frozen=True)
class Frame:
    width: float
    height: float
    x0: float
    x1: float
    y0: float
    y1: float

    # x and y may be floats or arrays: one expression for both
    def px(self, x: float | np.ndarray) -> float | np.ndarray:
        return _PAD + (x - self.x0) / (self.x1 - self.x0) * (self.width - 2 * _PAD)

    def py(self, y: float | np.ndarray) -> float | np.ndarray:
        return self.height - _PAD - (y - self.y0) / (self.y1 - self.y0) * (self.height - 2 * _PAD)

    def desc_items(self) -> dict:
        return {
            "x0": f"{self.x0:.9g}",
            "x1": f"{self.x1:.9g}",
            "y0": f"{self.y0:.9g}",
            "y1": f"{self.y1:.9g}",
            "width": f"{self.width:g}",
            "height": f"{self.height:g}",
            "pad": f"{_PAD:g}",
        }


def _axis_box(frame: Frame, x_label: str, y_label: str) -> list[str]:
    parts = [
        f'<rect x="{_PAD:g}" y="{_PAD:g}" width="{frame.width - 2 * _PAD:g}" '
        f'height="{frame.height - 2 * _PAD:g}" fill="none" stroke="#444" stroke-width="1"/>'
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        x = frame.x0 + frac * (frame.x1 - frame.x0)
        y = frame.y0 + frac * (frame.y1 - frame.y0)
        parts.append(
            f'<text x="{frame.px(x):.1f}" y="{frame.height - _PAD + 18:.1f}" '
            f'font-family="sans-serif" font-size="11" text-anchor="middle" '
            f'fill="#222">{x:.3g}</text>'
        )
        parts.append(
            f'<text x="{_PAD - 6:.1f}" y="{frame.py(y) + 4:.1f}" font-family="sans-serif" '
            f'font-size="11" text-anchor="end" fill="#222">{y:.3g}</text>'
        )
    parts.append(
        f'<text x="{frame.width / 2:.1f}" y="{frame.height - 14:.1f}" '
        f'font-family="sans-serif" font-size="13" text-anchor="middle" '
        f'fill="#000">{x_label}</text>'
    )
    parts.append(
        f'<text x="16" y="{frame.height / 2:.1f}" font-family="sans-serif" font-size="13" '
        f'text-anchor="middle" fill="#000" '
        f'transform="rotate(-90 16 {frame.height / 2:.1f})">{y_label}</text>'
    )
    return parts


def _polyline(frame: Frame, xs, ys, color: str) -> str:
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    coords = np.empty(2 * xs.size)
    # Python floats overflow to inf and form nan without a word: so do these
    with np.errstate(over="ignore", invalid="ignore"):
        coords[0::2] = frame.px(xs)
        coords[1::2] = frame.py(ys)
    pts = " ".join(["%.2f,%.2f"] * xs.size) % tuple(coords.tolist())
    return f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.6"/>'


def _write(path: str, frame: Frame, title: str, desc: dict, x_label: str, y_label: str, body: list[str]) -> Frame:
    """Write the header, axes, body, title and </svg> to path atomically.

    The text goes to path.tmp, which replaces path; if the write or the
    replace raises, the temp file is removed and the error goes on.
    """
    desc_text = ";".join(f"{k}={v}" for k, v in desc.items())
    width, height = frame.width, frame.height
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width:g}" height="{height:g}" viewBox="0 0 {width:g} {height:g}">',
        f"<title>{title}</title>",
        f"<desc>{desc_text}</desc>",
        f'<rect x="0" y="0" width="{width:g}" height="{height:g}" fill="white"/>',
        *_axis_box(frame, x_label, y_label),
        *body,
        f'<text x="{width / 2:.1f}" y="30" font-family="sans-serif" font-size="15" '
        f'text-anchor="middle" fill="#000">{title}</text>',
        "</svg>",
    ]
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write("\n".join(parts) + "\n")
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
    return frame


def write_curve_plot(
    path: str,
    xs,
    ys,
    *,
    title: str,
    root: float,
    vline: float | None = None,
) -> Frame:
    """A margin curve against r, with its root marked on the zero line and an optional vertical line.

    The axes are labelled "r" and "margin".  The y window is clipped to
    [-1, *] so the divergence toward r = 1 does not flatten the
    interesting region; clipped samples are dropped.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    keep = ys >= -1.0
    y_lo = float(min(ys[keep].min(), -0.1))
    y_hi = float(max(ys[keep].max(), 0.1)) * 1.05
    width, height = _CURVE_WIDTH, _CURVE_HEIGHT
    frame = Frame(width, height, float(xs.min()), float(xs.max()), y_lo, y_hi)

    desc = {"kind": "curve", **frame.desc_items(), "root": f"{root:.9g}"}
    if vline is not None:
        desc["vline"] = f"{vline:.9g}"
    body = []
    if y_lo < 0.0 < y_hi:
        y0px = frame.py(0.0)
        body.append(
            f'<line x1="{_PAD:g}" y1="{y0px:.2f}" x2="{width - _PAD:g}" y2="{y0px:.2f}" '
            f'stroke="#999" stroke-width="0.8"/>'
        )
    body.append(_polyline(frame, xs[keep], ys[keep], "#1f6fb2"))
    if vline is not None:
        xpx = frame.px(vline)
        body.append(
            f'<line x1="{xpx:.2f}" y1="{_PAD:g}" x2="{xpx:.2f}" y2="{height - _PAD:g}" '
            f'stroke="#2a8f2a" stroke-width="1.2" stroke-dasharray="6 4"/>'
        )
    body.append(
        f'<circle cx="{frame.px(root):.2f}" cy="{frame.py(0.0):.2f}" r="4.5" '
        f'fill="#c23b22" stroke="none"/>'
    )
    return _write(path, frame, title, desc, "r", "margin", body)


def write_boundary_plot(path: str, points, *, title: str, radius: float) -> Frame:
    """Closed image curve of a circle |z| = radius under a section, equal aspect."""
    pts = np.asarray(points, dtype=complex)
    xs, ys = pts.real, pts.imag
    cx = (xs.min() + xs.max()) / 2.0
    cy = (ys.min() + ys.max()) / 2.0
    half = max(xs.max() - xs.min(), ys.max() - ys.min(), 1e-9) / 2.0 * 1.1
    frame = Frame(_BOUNDARY_SIDE, _BOUNDARY_SIDE, cx - half, cx + half, cy - half, cy + half)

    desc = {"kind": "boundary", "radius": f"{radius:.9g}", "points": str(pts.size), **frame.desc_items()}
    body = [_polyline(frame, np.append(xs, xs[0]), np.append(ys, ys[0]), "#6a3bb2")]
    return _write(path, frame, title, desc, "Re", "Im", body)


def _past(x: float) -> float:
    # the margin diverges at r = 1: stop at 0.999, unless x lies beyond it
    past = x + 0.35 * (1.0 - x)
    return past if x >= 0.999 else min(0.999, max(past, x * 1.25))


def curve_window(root: float, target: float | None = None) -> tuple[float, float]:
    """Sampling window for a margin curve: past the root, clear of r = 1.

    A target in (0, 1) outside the root's window widens it: down to half
    the target, or past the target as past the root.
    """
    lo, hi = 1e-3, _past(root)
    if target is not None:
        lo = lo if target >= lo else 0.5 * target
        hi = hi if target <= hi else _past(target)
    return lo, hi
