"""Minimal native SVG 1.1 emission: polylines, markers, filled cells, arrows.

No plotting dependency; output is deterministic for identical inputs.
"""

import numpy as np

__all__ = ["SvgCanvas"]

SIZE = 640  # the canvas is SIZE x SIZE pixels
MARGIN = 40


class SvgCanvas:
    """Fixed-size canvas mapping a data window onto pixel coordinates."""

    def __init__(self, x_range, y_range):
        self.x0, self.x1 = float(x_range[0]), float(x_range[1])
        self.y0, self.y1 = float(y_range[0]), float(y_range[1])
        self.parts = []

    def _px(self, x):
        return MARGIN + (x - self.x0) / (self.x1 - self.x0) * (SIZE - 2 * MARGIN)

    def _py(self, y):
        return SIZE - MARGIN - (y - self.y0) / (self.y1 - self.y0) * (SIZE - 2 * MARGIN)

    def polyline(self, xs, ys, color, width=1.2):
        pts = " ".join(f"{self._px(x):.2f},{self._py(y):.2f}" for x, y in zip(xs, ys))
        self.parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="{width}" stroke-opacity="1.0"/>')

    def circle(self, x, y, r, color, fill=True):
        fill_attr = color if fill else "none"
        self.parts.append(
            f'<circle cx="{self._px(x):.2f}" cy="{self._py(y):.2f}" r="{r}" '
            f'fill="{fill_attr}" stroke="{color}"/>')

    def rect_cell(self, x, y, wx, wy, color):
        px = self._px(x - wx / 2)
        py = self._py(y + wy / 2)
        pw = abs(self._px(x + wx / 2) - px)
        ph = abs(self._py(y - wy / 2) - py)
        self.parts.append(
            f'<rect x="{px:.2f}" y="{py:.2f}" width="{pw:.2f}" height="{ph:.2f}" '
            f'fill="{color}" fill-opacity="0.9" stroke="none"/>')

    def arrow(self, x, y, dx, dy, scale):
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
            'stroke="#888888" stroke-width="1"/>')
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
                'stroke="#888888" stroke-width="1"/>')

    def axes_frame(self, label):
        self.parts.append(
            f'<rect x="{MARGIN}" y="{MARGIN}" width="{SIZE - 2 * MARGIN}" '
            f'height="{SIZE - 2 * MARGIN}" fill="none" stroke="#000000"/>')
        self.parts.append(
            f'<text x="{MARGIN}" y="{MARGIN - 8}" font-size="13">{label}</text>')

    def write(self, path):
        body = "\n".join(self.parts)
        doc = (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{SIZE}" height="{SIZE}" viewBox="0 0 {SIZE} {SIZE}">\n'
            f'<rect width="{SIZE}" height="{SIZE}" fill="#ffffff"/>\n'
            f"{body}\n</svg>\n")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(doc)
