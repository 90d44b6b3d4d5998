"""Minimal self-contained SVG 1.1 emission for curves and boundary images.

No external assets, no CSS classes: every style is a presentation
attribute, so the files stand alone.  Writes are atomic (temp file plus
os.replace).  Machine-readable plot metadata (root location, radius, ...)
goes into the <desc> element as semicolon-separated key=value pairs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

_PAD = 54.0


@dataclass(frozen=True)
class Frame:
    width: float
    height: float
    x0: float
    x1: float
    y0: float
    y1: float

    def px(self, x: float) -> float:
        return _PAD + (x - self.x0) / (self.x1 - self.x0) * (self.width - 2 * _PAD)

    def py(self, y: float) -> float:
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


def _atomic_write(path: str, text: str) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _header(width: float, height: float, title: str, desc: dict) -> list[str]:
    desc_text = ";".join(f"{k}={v}" for k, v in desc.items())
    return [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width:g}" height="{height:g}" viewBox="0 0 {width:g} {height:g}">',
        f"<title>{title}</title>",
        f"<desc>{desc_text}</desc>",
        f'<rect x="0" y="0" width="{width:g}" height="{height:g}" fill="white"/>',
    ]


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
    pts = " ".join(f"{frame.px(float(x)):.2f},{frame.py(float(y)):.2f}" for x, y in zip(xs, ys))
    return f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.6"/>'


def write_curve_plot(
    path: str,
    xs,
    ys,
    *,
    title: str,
    x_label: str,
    y_label: str,
    root: float | None = None,
    vline: float | None = None,
    width: float = 720.0,
    height: float = 480.0,
) -> Frame:
    """Curve with optional root marker and vertical reference line.

    The y window is clipped to [-1, *] so the divergence toward r = 1 does
    not flatten the interesting region; clipped samples are dropped.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    keep = ys >= -1.0
    y_lo = float(min(ys[keep].min(), -0.1))
    y_hi = float(max(ys[keep].max(), 0.1)) * 1.05
    frame = Frame(width, height, float(xs.min()), float(xs.max()), y_lo, y_hi)

    desc = {"kind": "curve", **frame.desc_items()}
    if root is not None:
        desc["root"] = f"{root:.9g}"
    if vline is not None:
        desc["vline"] = f"{vline:.9g}"
    parts = _header(width, height, title, desc)
    parts += _axis_box(frame, x_label, y_label)
    if y_lo < 0.0 < y_hi:
        y0px = frame.py(0.0)
        parts.append(
            f'<line x1="{_PAD:g}" y1="{y0px:.2f}" x2="{width - _PAD:g}" y2="{y0px:.2f}" '
            f'stroke="#999" stroke-width="0.8"/>'
        )
    parts.append(_polyline(frame, xs[keep], ys[keep], "#1f6fb2"))
    if vline is not None:
        xpx = frame.px(vline)
        parts.append(
            f'<line x1="{xpx:.2f}" y1="{_PAD:g}" x2="{xpx:.2f}" y2="{height - _PAD:g}" '
            f'stroke="#2a8f2a" stroke-width="1.2" stroke-dasharray="6 4"/>'
        )
    if root is not None:
        parts.append(
            f'<circle cx="{frame.px(root):.2f}" cy="{frame.py(0.0):.2f}" r="4.5" '
            f'fill="#c23b22" stroke="none"/>'
        )
    parts.append(f'<text x="{width / 2:.1f}" y="30" font-family="sans-serif" font-size="15" '
                 f'text-anchor="middle" fill="#000">{title}</text>')
    parts.append("</svg>")
    _atomic_write(path, "\n".join(parts) + "\n")
    return frame


def write_boundary_plot(path: str, points, *, title: str, radius: float,
                        width: float = 560.0, height: float = 560.0) -> Frame:
    """Closed image curve of a circle |z| = radius under a section, equal aspect."""
    pts = np.asarray(points, dtype=complex)
    xs, ys = pts.real, pts.imag
    cx = (xs.min() + xs.max()) / 2.0
    cy = (ys.min() + ys.max()) / 2.0
    half = max(xs.max() - xs.min(), ys.max() - ys.min(), 1e-9) / 2.0 * 1.1
    frame = Frame(width, height, cx - half, cx + half, cy - half, cy + half)

    desc = {"kind": "boundary", "radius": f"{radius:.9g}", "points": str(pts.size), **frame.desc_items()}
    parts = _header(width, height, title, desc)
    parts += _axis_box(frame, "Re", "Im")
    closed_x = np.append(xs, xs[0])
    closed_y = np.append(ys, ys[0])
    parts.append(_polyline(frame, closed_x, closed_y, "#6a3bb2"))
    parts.append(f'<text x="{width / 2:.1f}" y="30" font-family="sans-serif" font-size="15" '
                 f'text-anchor="middle" fill="#000">{title}</text>')
    parts.append("</svg>")
    _atomic_write(path, "\n".join(parts) + "\n")
    return frame


def read_desc(path: str) -> dict:
    """Parse the <desc> metadata back out of a plot written by this module."""
    import xml.etree.ElementTree as ET

    root = ET.parse(path).getroot()
    ns = "{http://www.w3.org/2000/svg}"
    desc = root.find(f"{ns}desc")
    if desc is None or not desc.text:
        return {}
    out = {}
    for item in desc.text.split(";"):
        key, _, value = item.partition("=")
        out[key] = value
    return out


def curve_window(root: float) -> tuple[float, float]:
    """Sampling window for a margin curve: past the root, clear of r = 1."""
    hi = min(0.999, root + 0.35 * (1.0 - root))
    return 1e-3, max(hi, min(0.999, root * 1.25))
