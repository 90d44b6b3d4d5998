"""The bytes the two SVG writers emit, pinned on inputs whose pixels need no libm call,
and the array polyline against the per-point form it replaced, on random frames and on
the real plots."""

import numpy as np
import pytest

import oracles
from harmsect import cli, svg
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
                             root=0.5, vline=0.25)
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


# pixel = 54 + 512 x and 566 - 512 y: the 1/4096 steps put pixels on exact
# .125/.375/.625/.875 ties of the second decimal
DYADIC = Frame(620.0, 620.0, 0.0, 1.0, 0.0, 1.0)
SPECIAL = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1e308, -1e308, 5e-324,
                    (-54.0 - 1e-3) / 512.0, 2.675, 1.005, 0.125, -0.125])


def random_frame(rng) -> Frame:
    # the two canvases, with bounds that are not dyadic
    width, height = (720.0, 480.0) if rng.random() < 0.5 else (560.0, 560.0)
    x0, y0, xw, yw = (float(v) for v in rng.uniform([-3.0, -3.0, 1e-3, 1e-3], [3.0, 3.0, 5.0, 5.0]))
    return Frame(width, height, x0, x0 + xw, y0, y0 + yw)


def near_ties(rng, lo: float, hi: float, size: int) -> np.ndarray:
    """Samples from lo (pixel 0) to hi (pixel 1000) whose pixels lie a few ulps
    from a tie of the second decimal, where a pixel one bit off prints another
    figure."""
    ties = (8 * rng.integers(0, 1000, size) + rng.choice([1, 3, 5, 7], size)) / 8000.0
    xs = lo + ties * (hi - lo)
    return (xs.view(np.int64) + rng.integers(-3, 4, size)).view(np.float64)


def random_samples(rng, frame: Frame, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n points: a tenth outside the frame, a fifth near a tie of the printed
    pixel, and SPECIAL's values in both coordinates."""
    xw, yw = frame.x1 - frame.x0, frame.y1 - frame.y0
    xs = rng.uniform(frame.x0 - 0.1 * xw, frame.x1 + 0.1 * xw, n)
    ys = rng.uniform(frame.y0 - 0.1 * yw, frame.y1 + 0.1 * yw, n)
    # the samples at pixels 0 and 1000 of each axis
    xpx, ypx = xw / (frame.width - 108.0), yw / (frame.height - 108.0)
    x_lo, y_lo = frame.x0 - 54.0 * xpx, frame.y0 + (frame.height - 54.0) * ypx
    tied = rng.choice(n, size=n // 5, replace=False)
    xs[tied] = near_ties(rng, x_lo, x_lo + 1000.0 * xpx, tied.size)
    ys[tied] = near_ties(rng, y_lo, y_lo - 1000.0 * ypx, tied.size)
    at = rng.choice(n, size=2 * SPECIAL.size, replace=False)
    xs[at[:SPECIAL.size]] = SPECIAL
    ys[at[SPECIAL.size:]] = SPECIAL
    return xs, ys


@pytest.mark.parametrize("seed", range(8))
def test_polyline_is_the_per_point_form(seed):
    rng = np.random.default_rng(seed)
    frame = random_frame(rng)
    xs, ys = random_samples(rng, frame, 1000 + 37 * seed)
    assert svg._polyline(frame, xs, ys, "#123456") == oracles.polyline(frame, xs, ys, "#123456")


def test_polyline_ties_and_signed_zeros():
    k = np.arange(-600, 4700)
    xs = np.concatenate([k / 4096.0, SPECIAL])
    ys = np.concatenate([k[::-1] / 4096.0, SPECIAL])
    line = svg._polyline(DYADIC, xs, ys, "#000")
    assert line == oracles.polyline(DYADIC, xs, ys, "#000")
    # the cases are really there: ties both ways, -0.00 and the non-finite
    for text in (" 54.12,", " 54.38,", " 54.62,", " 54.88,", " -0.00,", "nan,", "inf,", "-inf"):
        assert text in line


@pytest.mark.parametrize("seed", range(4))
def test_frame_transform_on_an_array_has_the_scalar_bits(seed):
    rng = np.random.default_rng(100 + seed)
    frame = random_frame(rng)
    xs, ys = random_samples(rng, frame, 1000)
    with np.errstate(over="ignore"):
        px, py = frame.px(xs), frame.py(ys)
    assert px.shape == py.shape == xs.shape
    assert px.tobytes() == np.array([frame.px(float(x)) for x in xs]).tobytes()
    assert py.tobytes() == np.array([frame.py(float(y)) for y in ys]).tobytes()


@pytest.mark.parametrize("argv", [
    ["psi-curve"],
    ["mu-curve", "--target", "0.5"],
    ["boundary-image", "--class", "convex"],
], ids=["psi-curve", "mu-curve-target", "boundary-image-convex"])
def test_real_plots_match_the_per_point_form(argv, tmp_path, monkeypatch):
    # libm margin or map samples in a frame with non-dyadic bounds: the 1000
    # of the map, closed, and the 418 and 447 of the 1000 margin samples above -1
    array_path, oracle_path = tmp_path / "array.svg", tmp_path / "oracle.svg"
    assert cli.main(["plot", *argv, "--out", str(array_path)]) == 0
    monkeypatch.setattr(svg, "_polyline", oracles.polyline)
    assert cli.main(["plot", *argv, "--out", str(oracle_path)]) == 0
    written = array_path.read_bytes()
    assert written == oracle_path.read_bytes()
    points = written.split(b'<polyline points="')[1].split(b'"')[0].split()
    assert len(points) > 400
