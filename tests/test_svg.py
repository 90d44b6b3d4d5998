"""The bytes the two SVG writers emit, pinned on inputs whose pixels need no libm call."""

import numpy as np

from harmsect.svg import Frame, curve_window, write_boundary_plot, write_curve_plot

CURVE = """\
<?xml version="1.0" encoding="UTF-8"?>
<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="720" height="480" viewBox="0 0 720 480">
<title>curve</title>
<desc>kind=curve;x0=0;x1=1;y0=-0.5;y1=1.05;width=720;height=480;pad=54;root=0.5;vline=0.25</desc>
<rect x="0" y="0" width="720" height="480" fill="white"/>
<rect x="54" y="54" width="612" height="372" fill="none" stroke="#444" stroke-width="1"/>
<text x="54.0" y="444.0" font-family="sans-serif" font-size="11" text-anchor="middle" fill="#222">0</text>
<text x="48.0" y="430.0" font-family="sans-serif" font-size="11" text-anchor="end" fill="#222">-0.5</text>
<text x="207.0" y="444.0" font-family="sans-serif" font-size="11" text-anchor="middle" fill="#222">0.25</text>
<text x="48.0" y="337.0" font-family="sans-serif" font-size="11" text-anchor="end" fill="#222">-0.112</text>
<text x="360.0" y="444.0" font-family="sans-serif" font-size="11" text-anchor="middle" fill="#222">0.5</text>
<text x="48.0" y="244.0" font-family="sans-serif" font-size="11" text-anchor="end" fill="#222">0.275</text>
<text x="513.0" y="444.0" font-family="sans-serif" font-size="11" text-anchor="middle" fill="#222">0.75</text>
<text x="48.0" y="151.0" font-family="sans-serif" font-size="11" text-anchor="end" fill="#222">0.663</text>
<text x="666.0" y="444.0" font-family="sans-serif" font-size="11" text-anchor="middle" fill="#222">1</text>
<text x="48.0" y="58.0" font-family="sans-serif" font-size="11" text-anchor="end" fill="#222">1.05</text>
<text x="360.0" y="466.0" font-family="sans-serif" font-size="13" text-anchor="middle" fill="#000">r</text>
<text x="16" y="240.0" font-family="sans-serif" font-size="13" text-anchor="middle" fill="#000" \
transform="rotate(-90 16 240.0)">margin</text>
<line x1="54" y1="306.00" x2="666" y2="306.00" stroke="#999" stroke-width="0.8"/>
<polyline points="54.00,66.00 360.00,306.00 666.00,426.00" fill="none" stroke="#1f6fb2" stroke-width="1.6"/>
<line x1="207.00" y1="54" x2="207.00" y2="426" stroke="#2a8f2a" stroke-width="1.2" stroke-dasharray="6 4"/>
<circle cx="360.00" cy="306.00" r="4.5" fill="#c23b22" stroke="none"/>
<text x="360.0" y="30" font-family="sans-serif" font-size="15" text-anchor="middle" fill="#000">curve</text>
</svg>
"""

BOUNDARY = """\
<?xml version="1.0" encoding="UTF-8"?>
<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="560" height="560" viewBox="0 0 560 560">
<title>image</title>
<desc>kind=boundary;radius=0.5;points=4;x0=-0.55;x1=0.55;y0=-0.55;y1=0.55;width=560;height=560;pad=54</desc>
<rect x="0" y="0" width="560" height="560" fill="white"/>
<rect x="54" y="54" width="452" height="452" fill="none" stroke="#444" stroke-width="1"/>
<text x="54.0" y="524.0" font-family="sans-serif" font-size="11" text-anchor="middle" fill="#222">-0.55</text>
<text x="48.0" y="510.0" font-family="sans-serif" font-size="11" text-anchor="end" fill="#222">-0.55</text>
<text x="167.0" y="524.0" font-family="sans-serif" font-size="11" text-anchor="middle" fill="#222">-0.275</text>
<text x="48.0" y="397.0" font-family="sans-serif" font-size="11" text-anchor="end" fill="#222">-0.275</text>
<text x="280.0" y="524.0" font-family="sans-serif" font-size="11" text-anchor="middle" fill="#222">0</text>
<text x="48.0" y="284.0" font-family="sans-serif" font-size="11" text-anchor="end" fill="#222">0</text>
<text x="393.0" y="524.0" font-family="sans-serif" font-size="11" text-anchor="middle" fill="#222">0.275</text>
<text x="48.0" y="171.0" font-family="sans-serif" font-size="11" text-anchor="end" fill="#222">0.275</text>
<text x="506.0" y="524.0" font-family="sans-serif" font-size="11" text-anchor="middle" fill="#222">0.55</text>
<text x="48.0" y="58.0" font-family="sans-serif" font-size="11" text-anchor="end" fill="#222">0.55</text>
<text x="280.0" y="546.0" font-family="sans-serif" font-size="13" text-anchor="middle" fill="#000">Re</text>
<text x="16" y="280.0" font-family="sans-serif" font-size="13" text-anchor="middle" fill="#000" \
transform="rotate(-90 16 280.0)">Im</text>
<polyline points="485.45,280.00 280.00,74.55 74.55,280.00 280.00,485.45 485.45,280.00" fill="none" \
stroke="#6a3bb2" stroke-width="1.6"/>
<text x="280.0" y="30" font-family="sans-serif" font-size="15" text-anchor="middle" fill="#000">image</text>
</svg>
"""


def test_curve_plot_bytes(tmp_path):
    # dyadic samples: every pixel is a sum, product or quotient of doubles,
    # rounded the same on any IEEE platform
    path = tmp_path / "curve.svg"
    frame = write_curve_plot(str(path), [0.0, 0.5, 1.0], [1.0, 0.0, -0.5], title="curve",
                             x_label="r", y_label="margin", root=0.5, vline=0.25)
    assert path.read_bytes() == CURVE.encode()
    assert frame == Frame(720.0, 480.0, 0.0, 1.0, -0.5, 1.05)
    assert [p.name for p in tmp_path.iterdir()] == ["curve.svg"]


def test_boundary_plot_bytes(tmp_path):
    # 1, i, -1, -i at radius 0.5, closed back to the first point
    path = tmp_path / "image.svg"
    frame = write_boundary_plot(str(path), 0.5 * np.array([1, 1j, -1, -1j]), title="image", radius=0.5)
    assert path.read_bytes() == BOUNDARY.encode()
    assert frame == Frame(560.0, 560.0, -0.55, 0.55, -0.55, 0.55)
    assert [p.name for p in tmp_path.iterdir()] == ["image.svg"]


def test_curve_window_holds_root_and_target():
    # below 0.999, with no target or one inside it, the window is the
    # earlier root-only one, so those plots keep their bytes
    def root_window(root):
        hi = min(0.999, root + 0.35 * (1.0 - root))
        return 1e-3, max(hi, min(0.999, root * 1.25))

    for root in np.linspace(0.1, 0.9989, 200):
        lo, hi = root_window(root)
        assert curve_window(root) == (lo, hi)
        for target in np.linspace(lo, hi, 7):
            assert curve_window(root, target) == (lo, hi)
    for root in (0.999, 0.999321, 1.0 - 2.0**-52, 1.0 - 2.0**-53):
        lo, hi = curve_window(root)
        assert lo < root <= hi < 1.0
    for target in (1e-300, 1e-4, 0.5, 0.9995, 1.0 - 2.0**-53):
        lo, hi = curve_window(0.19, target)
        assert lo <= target <= hi < 1.0 and lo < 0.19 < hi
