"""Minimal deterministic SVG line plots on a log y axis.

Plots are views of CSV data, never computations: callers pass the exact
numbers they wrote to disk. Output is plain SVG text with coordinates
rounded to fixed precision, so identical inputs give identical bytes.
"""

from __future__ import annotations

import math

WIDTH, HEIGHT = 640.0, 420.0
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64.0, 16.0, 36.0, 48.0
PALETTE = ("#1f6f8b", "#c0392b", "#6c7a33", "#7d3c98", "#b9770e", "#117a65")


def _fmt(x):
    return "%.2f" % x


def _nice_ticks(lo, hi, count=5):
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / count
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    start = math.ceil(lo / step) * step
    ticks = []
    t = start
    while t <= hi + 1e-12 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks


def _decade_ticks(lo, hi):
    ticks = []
    k = math.floor(math.log10(lo))
    while 10.0**k <= hi * (1 + 1e-12):
        if 10.0**k >= lo * (1 - 1e-12):
            ticks.append(10.0**k)
        k += 1
    return ticks or [lo, hi]


def _tick_label(v, logy):
    if logy:
        exp = round(math.log10(v))
        if abs(v - 10.0**exp) < 1e-9 * v:
            return "1e%d" % exp
    if v == int(v) and abs(v) < 1e6:
        return str(int(v))
    return "%.3g" % v


def line_plot_svg(title, xlabel, ylabel, series):
    """SVG text for line series [(label, xs, ys), ...] on a log y axis.

    Nonpositive y values are dropped: they have no place on the axis.
    """
    pts = []
    for _, xs, ys in series:
        for x, y in zip(xs, ys):
            if y <= 0:
                continue
            pts.append((float(x), float(y)))
    if not pts:
        pts = [(0.0, 1.0), (1.0, 1.0)]
    xlo = min(p[0] for p in pts)
    xhi = max(p[0] for p in pts)
    ylo = min(p[1] for p in pts)
    yhi = max(p[1] for p in pts)
    if xhi <= xlo:
        xhi = xlo + 1.0
    ylo = max(ylo, 1e-300)
    if yhi <= ylo:
        yhi = ylo * 10.0
    ylo_l, yhi_l = math.log10(ylo), math.log10(yhi)
    if yhi_l - ylo_l < 1e-9:
        yhi_l = ylo_l + 1.0

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def sx(x):
        return MARGIN_L + (x - xlo) / (xhi - xlo) * plot_w

    def sy(y):
        frac = (math.log10(y) - ylo_l) / (yhi_l - ylo_l)
        return MARGIN_T + (1.0 - frac) * plot_h

    out = []
    out.append('<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
               'viewBox="0 0 %d %d">' % (WIDTH, HEIGHT, WIDTH, HEIGHT))
    out.append('<rect width="%d" height="%d" fill="white"/>' % (WIDTH, HEIGHT))
    out.append('<text x="%s" y="20" font-family="monospace" font-size="14" '
               'text-anchor="middle">%s</text>' % (_fmt(WIDTH / 2), _escape(title)))
    # axes
    x0, y0 = MARGIN_L, HEIGHT - MARGIN_B
    out.append('<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="black"/>'
               % (_fmt(x0), _fmt(MARGIN_T), _fmt(x0), _fmt(y0)))
    out.append('<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="black"/>'
               % (_fmt(x0), _fmt(y0), _fmt(WIDTH - MARGIN_R), _fmt(y0)))
    for t in _nice_ticks(xlo, xhi):
        px = sx(t)
        out.append('<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="black"/>'
                   % (_fmt(px), _fmt(y0), _fmt(px), _fmt(y0 + 4)))
        out.append('<text x="%s" y="%s" font-family="monospace" font-size="11" '
                   'text-anchor="middle">%s</text>'
                   % (_fmt(px), _fmt(y0 + 18), _tick_label(t, False)))
    for t in _decade_ticks(10.0**ylo_l, 10.0**yhi_l):
        py = sy(t)
        out.append('<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="black"/>'
                   % (_fmt(x0 - 4), _fmt(py), _fmt(x0), _fmt(py)))
        out.append('<text x="%s" y="%s" font-family="monospace" font-size="11" '
                   'text-anchor="end">%s</text>'
                   % (_fmt(x0 - 8), _fmt(py + 4), _tick_label(t, True)))
    out.append('<text x="%s" y="%s" font-family="monospace" font-size="12" '
               'text-anchor="middle">%s</text>'
               % (_fmt(MARGIN_L + plot_w / 2), _fmt(HEIGHT - 12), _escape(xlabel)))
    out.append('<text x="16" y="%s" font-family="monospace" font-size="12" '
               'text-anchor="middle" transform="rotate(-90 16 %s)">%s</text>'
               % (_fmt(MARGIN_T + plot_h / 2), _fmt(MARGIN_T + plot_h / 2),
                  _escape(ylabel)))
    # series
    for i, (label, xs, ys) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        coords = [(sx(float(x)), sy(float(y))) for x, y in zip(xs, ys)
                  if not y <= 0]
        if coords:
            path = "M" + " L".join("%s %s" % (_fmt(px), _fmt(py)) for px, py in coords)
            out.append('<path d="%s" fill="none" stroke="%s" stroke-width="1.5"/>'
                       % (path, color))
            for px, py in coords:
                out.append('<circle cx="%s" cy="%s" r="2.5" fill="%s"/>'
                           % (_fmt(px), _fmt(py), color))
        ly = MARGIN_T + 14 + 16 * i
        lx = WIDTH - MARGIN_R - 170
        out.append('<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="%s" '
                   'stroke-width="1.5"/>' % (_fmt(lx), _fmt(ly - 4),
                                             _fmt(lx + 22), _fmt(ly - 4), color))
        out.append('<text x="%s" y="%s" font-family="monospace" font-size="11">%s'
                   '</text>' % (_fmt(lx + 28), _fmt(ly), _escape(label)))
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _escape(text):
    return (str(text).replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))


def write_plot(path, title, xlabel, ylabel, series):
    text = line_plot_svg(title, xlabel, ylabel, series)
    with open(path, "w", newline="\n") as fh:
        fh.write(text)
