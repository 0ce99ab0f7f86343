"""Minimal deterministic SVG line plots (no external plotting deps)."""

from __future__ import annotations

import math

WIDTH, HEIGHT = 800, 520
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 40, 50
PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#17becf", "#7f7f7f"]


def _nice_ticks(lo, hi):
    if not math.isfinite(lo) or not math.isfinite(hi) or lo == hi:
        return [lo]
    raw = (hi - lo) / 5  # about five ticks
    mag = 10.0 ** math.floor(math.log10(abs(raw)))
    for m in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= m * mag:
            step = m * mag
            break
    start = math.ceil(lo / step) * step
    ticks = []
    t = start
    while t <= hi + 1e-12 * abs(step):
        ticks.append(0.0 if abs(t) < 1e-15 * abs(step) else t)
        t += step
    return ticks


def _fmt(v):
    return f"{v:.6g}"


def render_line_plot(series, out_path, logy=False, x_label="", y_label="",
                     title=""):
    """series: list of (label, xs, ys), with positive ys if ``logy``;
    writes a standalone SVG file."""
    pts = [(x, y) for _, xs, ys in series for x, y in zip(xs, ys)]
    xs_all = [p[0] for p in pts]
    ys_all = [math.log10(p[1]) if logy else p[1] for p in pts]
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_lo == x_hi:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_lo == y_hi:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    iw = WIDTH - MARGIN_L - MARGIN_R
    ih = HEIGHT - MARGIN_T - MARGIN_B

    def sx(x):
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * iw

    def sy(y):
        yy = math.log10(y) if logy else y
        return MARGIN_T + (y_hi - yy) / (y_hi - y_lo) * ih

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{iw}" height="{ih}" '
        'fill="none" stroke="#333" stroke-width="1"/>',
    ]
    if title:
        lines.append(
            f'<text x="{WIDTH // 2}" y="24" text-anchor="middle" '
            f'font-family="monospace" font-size="15">{title}</text>')
    for t in _nice_ticks(x_lo, x_hi):
        px = sx(t)
        lines.append(f'<line x1="{px:.2f}" y1="{MARGIN_T + ih}" '
                     f'x2="{px:.2f}" y2="{MARGIN_T + ih + 5}" stroke="#333"/>')
        lines.append(f'<text x="{px:.2f}" y="{MARGIN_T + ih + 20}" '
                     'text-anchor="middle" font-family="monospace" '
                     f'font-size="11">{_fmt(t)}</text>')
    for t in _nice_ticks(y_lo, y_hi):
        py = MARGIN_T + (y_hi - t) / (y_hi - y_lo) * ih
        label = f"1e{t:.3g}" if logy else _fmt(t)
        lines.append(f'<line x1="{MARGIN_L - 5}" y1="{py:.2f}" '
                     f'x2="{MARGIN_L}" y2="{py:.2f}" stroke="#333"/>')
        lines.append(f'<text x="{MARGIN_L - 8}" y="{py + 4:.2f}" '
                     'text-anchor="end" font-family="monospace" '
                     f'font-size="11">{label}</text>')
    if x_label:
        lines.append(f'<text x="{MARGIN_L + iw // 2}" y="{HEIGHT - 12}" '
                     'text-anchor="middle" font-family="monospace" '
                     f'font-size="12">{x_label}</text>')
    if y_label:
        lines.append(f'<text x="16" y="{MARGIN_T + ih // 2}" '
                     'text-anchor="middle" font-family="monospace" '
                     f'font-size="12" transform="rotate(-90 16 '
                     f'{MARGIN_T + ih // 2})">{y_label}</text>')
    for k, (label, xs, ys) in enumerate(series):
        color = PALETTE[k % len(PALETTE)]
        coords = [(sx(x), sy(y)) for x, y in zip(xs, ys)]
        path = " ".join(f"{px:.2f},{py:.2f}" for px, py in coords)
        lines.append(f'<polyline points="{path}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        for px, py in coords:
            lines.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="2.5" '
                         f'fill="{color}"/>')
        ly = MARGIN_T + 16 + 16 * k
        lines.append(f'<line x1="{MARGIN_L + iw - 150}" y1="{ly - 4}" '
                     f'x2="{MARGIN_L + iw - 125}" y2="{ly - 4}" '
                     f'stroke="{color}" stroke-width="2"/>')
        lines.append(f'<text x="{MARGIN_L + iw - 118}" y="{ly}" '
                     'font-family="monospace" font-size="11">'
                     f'{label}</text>')
    lines.append("</svg>")
    with open(out_path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(lines) + "\n")
