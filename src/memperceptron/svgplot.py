"""Self-contained SVG emission for learning curves and ROC plots.

No plotting dependency: documents are assembled from a fixed template
with two-decimal coordinates, so identical inputs give identical bytes.
"""

from __future__ import annotations

import numpy as np

_WIDTH = 640.0
_HEIGHT = 480.0
_MARGIN = 60.0


def _escape(s: str) -> str:
    """xml.sax.saxutils.escape without its import, which loads urllib.request."""
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _x_px(frac: float) -> float:
    return _MARGIN + frac * (_WIDTH - 2.0 * _MARGIN)


def _y_px(frac: float) -> float:
    return _HEIGHT - _MARGIN - frac * (_HEIGHT - 2.0 * _MARGIN)


def _text(x: float, y: float, s: str, anchor: str = "middle", size: int = 12) -> str:
    return (
        f'<text x="{_fmt(x)}" y="{_fmt(y)}" text-anchor="{anchor}" '
        f'font-family="sans-serif" font-size="{size}">{_escape(s)}</text>'
    )


def _frame(title: str, x_label: str, y_label: str) -> list[str]:
    x0, x1 = _x_px(0.0), _x_px(1.0)
    y0, y1 = _y_px(0.0), _y_px(1.0)
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(_WIDTH)}" '
        f'height="{int(_HEIGHT)}" viewBox="0 0 {int(_WIDTH)} {int(_HEIGHT)}">',
        f'<rect width="{int(_WIDTH)}" height="{int(_HEIGHT)}" fill="white"/>',
        _text(_WIDTH / 2.0, 28.0, title, size=15),
        f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x1)}" y2="{_fmt(y0)}" stroke="black"/>',
        f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x0)}" y2="{_fmt(y1)}" stroke="black"/>',
        _text(_WIDTH / 2.0, _HEIGHT - 16.0, x_label),
        _text(18.0, _MARGIN - 12.0, y_label, anchor="start"),
    ]


def _polyline(fracs, stroke: str, dash: str = "") -> str:
    pts = " ".join(f"{_fmt(_x_px(fx))},{_fmt(_y_px(fy))}" for fx, fy in fracs)
    extra = f' stroke-dasharray="{dash}"' if dash else ""
    return f'<polyline fill="none" stroke="{stroke}"{extra} points="{pts}"/>'


def write_curve_svg(path, means: np.ndarray, stds: np.ndarray, title: str = "") -> None:
    """Mean total error per epoch as one polyline, linear axes from zero."""
    if not len(means):
        raise ValueError("need at least one epoch to plot")
    top = float((means + stds).max())
    if top <= 0.0:
        top = 1.0
    xs = (np.arange(len(means)) / float(max(len(means) - 1, 1))).tolist()
    body = _frame(title, "epoch", "E_total")
    body.append(_polyline(zip(xs, ((means + stds) / top).tolist()), "steelblue", dash="4 3"))
    body.append(_polyline(zip(xs, (means / top).tolist()), "black"))
    body.append(_text(_x_px(0.0), _y_px(0.0) + 16.0, "1"))
    body.append(_text(_x_px(1.0), _y_px(0.0) + 16.0, str(len(means))))
    body.append(_text(_x_px(0.0) - 8.0, _y_px(0.0) + 4.0, "0", anchor="end"))
    body.append(_text(_x_px(0.0) - 8.0, _y_px(1.0) + 4.0, _fmt(top), anchor="end"))
    body.append("</svg>")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(body) + "\n")


def write_roc_svg(path, thresholds, tprs: np.ndarray, fprs: np.ndarray, auc_value: float,
                  title: str = "") -> None:
    """One point per threshold in the unit square, chance diagonal for reference."""
    if not len(tprs):
        raise ValueError("need at least one ROC point to plot")
    body = _frame(title, "false positive rate", "true positive rate")
    body.append(_polyline([(0.0, 0.0), (1.0, 1.0)], "gray", dash="5 4"))
    for thr, tpr, fpr in zip(thresholds, tprs.tolist(), fprs.tolist()):
        cx, cy = _x_px(fpr), _y_px(tpr)
        body.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="4" fill="crimson"/>')
        body.append(_text(cx + 8.0, cy - 8.0, f"t={float(thr):g}", anchor="start"))
    body.append(_text(_x_px(1.0), _y_px(1.0) - 10.0, f"AUC = {auc_value:.3f}", anchor="end"))
    for frac, label in ((0.0, "0"), (1.0, "1")):
        body.append(_text(_x_px(frac), _y_px(0.0) + 16.0, label))
        body.append(_text(_x_px(0.0) - 8.0, _y_px(frac) + 4.0, label, anchor="end"))
    body.append("</svg>")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(body) + "\n")
