"""Plain-text charts for the evaluation reports.

The paper's figures are box plots over a flexibility sweep with
logarithmic y-axes.  Without a plotting dependency, this module renders
the same information as unicode bar charts: one row per x-value, one
bar per series, linear or log10 scale, with the numeric medians
printed alongside so nothing is lost to resolution.

Used by ``python -m repro evaluate --charts`` and directly importable
for notebooks/terminals.
"""

from __future__ import annotations

import math
from collections.abc import Mapping

from repro.evaluation.aggregate import DistributionSummary

__all__ = ["bar_chart", "series_chart"]

_BLOCKS = " ▏▎▍▌▋▊▉█"


def _bar(fraction: float, width: int) -> str:
    """A unicode bar filling ``fraction`` of ``width`` character cells."""
    fraction = min(max(fraction, 0.0), 1.0)
    cells = fraction * width
    full = int(cells)
    remainder = cells - full
    partial = _BLOCKS[int(remainder * (len(_BLOCKS) - 1))] if full < width else ""
    return "█" * full + partial


def _transform(value: float, log_scale: bool, floor: float) -> float:
    if log_scale:
        return math.log10(max(value, floor))
    return value


def bar_chart(
    values: Mapping[str, float],
    title: str = "",
    width: int = 40,
    log_scale: bool = False,
    fmt: str = "{:.3g}",
) -> str:
    """Horizontal bars for a ``label -> value`` mapping.

    Non-finite values render as textual markers (``inf`` / ``-``)
    instead of bars.
    """
    finite = [v for v in values.values() if isinstance(v, (int, float)) and math.isfinite(v) and v is not None]
    floor = min((v for v in finite if v > 0), default=1e-3)
    if log_scale and floor <= 0:
        floor = 1e-3
    transformed = {
        k: _transform(v, log_scale, floor)
        for k, v in values.items()
        if isinstance(v, (int, float)) and math.isfinite(v)
    }
    lo = min(transformed.values(), default=0.0)
    hi = max(transformed.values(), default=1.0)
    if log_scale:
        lo = min(lo, math.log10(floor))
    else:
        lo = min(lo, 0.0)
    span = hi - lo if hi > lo else 1.0

    label_width = max((len(str(k)) for k in values), default=0)
    lines = []
    if title:
        lines.append(title)
    for key, value in values.items():
        label = str(key).ljust(label_width)
        if value is None or (isinstance(value, float) and math.isnan(value)):
            lines.append(f"{label} │ -")
            continue
        if isinstance(value, float) and math.isinf(value):
            lines.append(f"{label} │ inf")
            continue
        fraction = (_transform(value, log_scale, floor) - lo) / span
        lines.append(f"{label} │{_bar(fraction, width)} {fmt.format(value)}")
    if log_scale:
        lines.append(f"{' ' * label_width} └ log scale")
    return "\n".join(lines)


def series_chart(
    series: Mapping[str, Mapping[float, DistributionSummary]],
    title: str = "",
    width: int = 30,
    log_scale: bool = False,
    fmt: str = "{:.3g}",
) -> str:
    """The paper-figure shape: x = flexibility rows, bars per series.

    Each cell draws the *median*; the text column appends
    ``median [q1, q3]`` and annotates infinite counts, mirroring
    :meth:`DistributionSummary.render`.
    """
    flexibilities = sorted(
        {flex for per_series in series.values() for flex in per_series}
    )
    medians = [
        summary.median
        for per_series in series.values()
        for summary in per_series.values()
        if not math.isnan(summary.median)
    ]
    if not medians:
        return (title + "\n" if title else "") + "(no finite data)"
    floor = min((m for m in medians if m > 0), default=1e-3)
    lo = min(_transform(m, log_scale, floor) for m in medians)
    hi = max(_transform(m, log_scale, floor) for m in medians)
    if not log_scale:
        lo = min(lo, 0.0)
    span = hi - lo if hi > lo else 1.0

    name_width = max(len(name) for name in series)
    lines = [title] if title else []
    for flex in flexibilities:
        lines.append(f"flex {flex:g}:")
        for name, per_series in series.items():
            summary = per_series.get(flex)
            label = f"  {name.ljust(name_width)}"
            if summary is None or math.isnan(summary.median):
                annotation = summary.render(fmt) if summary else "-"
                lines.append(f"{label} │ {annotation}")
                continue
            fraction = (
                _transform(summary.median, log_scale, floor) - lo
            ) / span
            lines.append(
                f"{label} │{_bar(fraction, width)} {summary.render(fmt)}"
            )
    if log_scale:
        lines.append("(bar lengths on log scale)")
    return "\n".join(lines)
