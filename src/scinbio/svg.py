"""Minimal native SVG 1.1 emission: polylines, markers, filled cells, arrows.

No plotting dependency; output is deterministic for identical inputs.
"""

import numpy as np

__all__ = ["SvgCanvas"]


class SvgCanvas:
    """Fixed-size canvas mapping a data window onto pixel coordinates."""

    def __init__(self, x_range, y_range, width=640, height=640, margin=40):
        self.x0, self.x1 = float(x_range[0]), float(x_range[1])
        self.y0, self.y1 = float(y_range[0]), float(y_range[1])
        self.w = width
        self.h = height
        self.m = margin
        self.parts = []

    def _px(self, x):
        return self.m + (x - self.x0) / (self.x1 - self.x0) * (self.w - 2 * self.m)

    def _py(self, y):
        return self.h - self.m - (y - self.y0) / (self.y1 - self.y0) * (self.h - 2 * self.m)

    def polyline(self, xs, ys, color="#1f77b4", width=1.2, opacity=1.0):
        pts = " ".join(f"{self._px(x):.2f},{self._py(y):.2f}" for x, y in zip(xs, ys))
        self.parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="{width}" stroke-opacity="{opacity}"/>')

    def circle(self, x, y, r=3.0, color="#d62728", fill=True):
        fill_attr = color if fill else "none"
        self.parts.append(
            f'<circle cx="{self._px(x):.2f}" cy="{self._py(y):.2f}" r="{r}" '
            f'fill="{fill_attr}" stroke="{color}"/>')

    def rect_cell(self, x, y, wx, wy, color="#1f77b4", opacity=0.9):
        px = self._px(x - wx / 2)
        py = self._py(y + wy / 2)
        pw = abs(self._px(x + wx / 2) - px)
        ph = abs(self._py(y - wy / 2) - py)
        self.parts.append(
            f'<rect x="{px:.2f}" y="{py:.2f}" width="{pw:.2f}" height="{ph:.2f}" '
            f'fill="{color}" fill-opacity="{opacity}" stroke="none"/>')

    def arrow(self, x, y, dx, dy, scale=1.0, color="#888888"):
        """Short arrow glyph at (x, y) pointing along (dx, dy) in data space."""
        nrm = float(np.hypot(dx, dy))
        if nrm == 0:
            return
        ux, uy = dx / nrm, dy / nrm
        x2, y2 = x + scale * ux, y + scale * uy
        p1x, p1y = self._px(x), self._py(y)
        p2x, p2y = self._px(x2), self._py(y2)
        self.parts.append(
            f'<line x1="{p1x:.2f}" y1="{p1y:.2f}" x2="{p2x:.2f}" y2="{p2y:.2f}" '
            f'stroke="{color}" stroke-width="1"/>')
        # arrowhead: two short back-strokes
        vx, vy = p2x - p1x, p2y - p1y
        L = max(np.hypot(vx, vy), 1e-9)
        hx, hy = vx / L, vy / L
        qx, qy = -hy, hx
        for s in (+1, -1):
            bx = p2x - 3.2 * hx + s * 2.0 * qx
            by = p2y - 3.2 * hy + s * 2.0 * qy
            self.parts.append(
                f'<line x1="{p2x:.2f}" y1="{p2y:.2f}" x2="{bx:.2f}" y2="{by:.2f}" '
                f'stroke="{color}" stroke-width="1"/>')

    def axes_frame(self, label=""):
        self.parts.append(
            f'<rect x="{self.m}" y="{self.m}" width="{self.w - 2 * self.m}" '
            f'height="{self.h - 2 * self.m}" fill="none" stroke="#000000"/>')
        if label:
            self.parts.append(
                f'<text x="{self.m}" y="{self.m - 8}" font-size="13">{label}</text>')

    def write(self, path):
        body = "\n".join(self.parts)
        doc = (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{self.w}" height="{self.h}" '
            f'viewBox="0 0 {self.w} {self.h}">\n'
            f'<rect width="{self.w}" height="{self.h}" fill="#ffffff"/>\n'
            f"{body}\n</svg>\n")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(doc)
