"""SVG emission for construction figures.

The viewbox is the chart square [-3.2, 3.2]^2.  Real conics are drawn as
ellipses when their affine class allows it, otherwise as sampled polylines;
lines are clipped to the box; labeled points carry data-name attributes so
figures can be re-measured by tests.  Points that land far outside the box
get an arrow marker on the border pointing at them.  The two methods that
draw a conic import numpy on first use, so importing this module does not.
"""

from __future__ import annotations

import math

from . import conics as cn
from .errors import GeometryError
from .projective import HLine, HPoint, real_triple

BOX = 3.2
SIZE = 640.0


def _to_svg(x, y):
    s = SIZE / (2 * BOX)
    return (x + BOX) * s, (BOX - y) * s


def _chart(p: HPoint):
    x, y, z = real_triple(p)
    if abs(z) < 1e-12 * max(abs(x), abs(y)):
        return None
    return x / z, y / z


class Figure:
    def __init__(self, title=""):
        self.title = title
        self.elems = []

    def add(self, s):
        self.elems.append(s)

    def conic(self, conic: cn.Conic, stroke="#1f3b73", width=2.0, dashed=False):
        rows = conic.real_rows()
        if rows is None:
            raise GeometryError("only real-representable conics can be drawn")
        drawn = self._conic_as_ellipse(rows, stroke, width, dashed)
        if not drawn:
            self._conic_as_polyline(rows, stroke, width)

    def _conic_as_ellipse(self, rows, stroke, width, dashed):
        import numpy as np

        a2 = np.array([[rows[0][0], rows[0][1]], [rows[0][1], rows[1][1]]])
        b = np.array([rows[0][2], rows[1][2]])
        c = rows[2][2]
        if abs(np.linalg.det(a2)) < 1e-12:
            return False
        ctr = np.linalg.solve(a2, -b)
        c0 = c + b @ ctr
        if abs(c0) < 1e-14:
            return False
        m = a2 / (-c0)
        evals, evecs = np.linalg.eigh(m)
        if evals[0] <= 0 or evals[1] <= 0:
            return False
        r1 = 1.0 / math.sqrt(evals[0])
        r2 = 1.0 / math.sqrt(evals[1])
        ang = math.degrees(math.atan2(evecs[1, 0], evecs[0, 0]))
        cx, cy = _to_svg(ctr[0], ctr[1])
        s = SIZE / (2 * BOX)
        dash = ' stroke-dasharray="6,5"' if dashed else ""
        self.add(
            f'<ellipse cx="{cx:.2f}" cy="{cy:.2f}" rx="{r1 * s:.2f}" '
            f'ry="{r2 * s:.2f}" transform="rotate({-ang:.2f} {cx:.2f} {cy:.2f})" '
            f'fill="none" stroke="{stroke}" stroke-width="{width}"{dash}/>'
        )
        return True

    def _conic_as_polyline(self, rows, stroke, width):
        import numpy as np

        # sample by vertical lines; draw each branch as dots
        pts = []
        a = rows[1][1]
        for x in np.linspace(-BOX, BOX, 257):
            # solve conic(x, y) = 0 for y
            bq = 2 * (rows[0][1] * x + rows[1][2])
            cq = rows[0][0] * x * x + 2 * rows[0][2] * x + rows[2][2]
            disc = bq * bq - 4 * a * cq
            if abs(a) < 1e-14 or disc < 0:
                continue
            for sign in (1, -1):
                y = (-bq + sign * math.sqrt(disc)) / (2 * a)
                if abs(y) <= BOX:
                    pts.append((x, y))
        for x, y in pts:
            sx, sy = _to_svg(x, y)
            self.add(f'<circle cx="{sx:.2f}" cy="{sy:.2f}" r="{width * 0.6:.2f}" '
                     f'fill="{stroke}"/>')

    def line(self, line: HLine, stroke="#444", width=1.2, dashed=False):
        u, v, w = real_triple(line)
        seg = _clip_line(u, v, w)
        if seg is None:
            return
        (x1, y1), (x2, y2) = seg
        sx1, sy1 = _to_svg(x1, y1)
        sx2, sy2 = _to_svg(x2, y2)
        dash = ' stroke-dasharray="7,5"' if dashed else ""
        self.add(f'<line x1="{sx1:.2f}" y1="{sy1:.2f}" x2="{sx2:.2f}" '
                 f'y2="{sy2:.2f}" stroke="{stroke}" stroke-width="{width}"{dash}/>')

    def point(self, p: HPoint, name="", fill="#b3202c", r=4.0):
        c = _chart(p)
        if c is None or max(abs(c[0]), abs(c[1])) > 40 * BOX:
            return
        x, y = c
        if abs(x) > BOX or abs(y) > BOX:
            self._edge_arrow(x, y, name)
            return
        sx, sy = _to_svg(x, y)
        data = f' data-name="{name}"' if name else ""
        self.add(f'<circle cx="{sx:.4f}" cy="{sy:.4f}" r="{r}" '
                 f'fill="{fill}"{data} data-x="{x:.12g}" data-y="{y:.12g}"/>')
        if name:
            self.add(f'<text x="{sx + 6:.2f}" y="{sy - 6:.2f}" '
                     f'font-size="15" font-family="serif">{_esc(name)}</text>')

    def _edge_arrow(self, x, y, name):
        # arrow on the border pointing toward the off-canvas point
        t = BOX / max(abs(x), abs(y))
        bx, by = x * t * 0.97, y * t * 0.97
        sx, sy = _to_svg(bx, by)
        ang = math.degrees(math.atan2(-(y - by), x - bx))
        self.add(f'<path d="M {sx:.1f} {sy:.1f} l -12 -5 l 0 10 z" '
                 f'transform="rotate({ang:.1f} {sx:.1f} {sy:.1f})" fill="#777" '
                 f'data-name="{name}" data-offcanvas="1" '
                 f'data-x="{x:.12g}" data-y="{y:.12g}"/>')
        if name:
            self.add(f'<text x="{sx - 18:.1f}" y="{sy - 8:.1f}" font-size="14" '
                     f'fill="#777" font-family="serif">{_esc(name)}</text>')

    def render(self) -> str:
        head = (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE:.0f}" '
            f'height="{SIZE:.0f}" viewBox="0 0 {SIZE:.0f} {SIZE:.0f}" '
            'version="1.1">\n'
            f'<rect width="{SIZE:.0f}" height="{SIZE:.0f}" fill="#ffffff"/>\n'
        )
        title = (f'<text x="14" y="24" font-size="17" font-family="serif">'
                 f'{_esc(self.title)}</text>\n' if self.title else "")
        return head + title + "\n".join(self.elems) + "\n</svg>\n"

    def save(self, path):
        with open(path, "w") as fh:
            fh.write(self.render())


def _esc(s: str) -> str:
    return (s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;"))


def _clip_line(u, v, w):
    """Intersections of u x + v y + w = 0 with the viewbox borders."""
    pts = []
    if abs(v) > 1e-14:
        for x in (-BOX, BOX):
            y = -(u * x + w) / v
            if abs(y) <= BOX + 1e-9:
                pts.append((x, y))
    if abs(u) > 1e-14:
        for y in (-BOX, BOX):
            x = -(v * y + w) / u
            if abs(x) <= BOX + 1e-9:
                pts.append((x, y))
    uniq = []
    for p in pts:
        if all(math.hypot(p[0] - q[0], p[1] - q[1]) > 1e-9 for q in uniq):
            uniq.append(p)
    if len(uniq) < 2:
        return None
    best = None
    for i in range(len(uniq)):
        for j in range(i + 1, len(uniq)):
            d = math.hypot(uniq[i][0] - uniq[j][0], uniq[i][1] - uniq[j][1])
            if best is None or d > best[0]:
                best = (d, (uniq[i], uniq[j]))
    return best[1]
