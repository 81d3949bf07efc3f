"""Plain-text tables: the aligned output every CLI surface prints.

Lives in :mod:`repro.util` because both the low-level telemetry rollups
(:mod:`repro.obs.summarize`) and the experiment harness render through
it — it must sit below both layers (ARCH001).
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np
import numpy.typing as npt

from repro.util.validation import require

__all__ = ["format_table", "format_series", "format_improvement"]


def format_table(rows: Sequence[Mapping[str, object]], *,
                 title: str | None = None) -> str:
    """Render dict-rows as an aligned text table (union of keys, in
    first-seen order)."""
    require(len(rows) >= 1, "need at least one row")
    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    cells = [[_fmt(row.get(col, "")) for col in columns] for row in rows]
    widths = [max(len(col), *(len(r[i]) for r in cells)) for i, col in enumerate(columns)]

    def line(values: Sequence[str]) -> str:
        return "  ".join(v.rjust(w) for v, w in zip(values, widths))

    out: list[str] = []
    if title:
        out.append(title)
    out.append(line(columns))
    out.append(line(["-" * w for w in widths]))
    out.extend(line(r) for r in cells)
    return "\n".join(out)


def format_series(x: npt.ArrayLike, series: Mapping[str, npt.ArrayLike], *,
                  x_label: str, title: str | None = None,
                  fmt: str = "{:.4g}") -> str:
    """Render one x-axis with named y-series as an aligned table."""
    xs = np.asarray(x)
    require(xs.ndim == 1 and xs.size >= 1, "x must be a non-empty 1-D array")
    for name, ys in series.items():
        require(np.asarray(ys).shape == xs.shape,
                f"series {name!r} must match the x axis shape")
    rows: list[dict[str, object]] = []
    for i, xv in enumerate(xs):
        row: dict[str, object] = {x_label: fmt.format(float(xv))}
        for name, ys in series.items():
            row[name] = fmt.format(float(np.asarray(ys)[i]))
        rows.append(row)
    return format_table(rows, title=title)


def format_improvement(base_name: str, base: npt.ArrayLike,
                       other_name: str, other: npt.ArrayLike) -> str:
    """One-line summary: mean / max percentage improvement of base vs other.

    Positive numbers mean ``base`` is lower (better, for AFR / energy /
    response time) than ``other`` — matching the paper's phrasing
    "READ ... improvement compared with MAID".
    """
    b = np.asarray(base, dtype=np.float64)
    o = np.asarray(other, dtype=np.float64)
    require(b.shape == o.shape and b.size >= 1, "series must align")
    require(bool(np.all(o > 0)), "reference series must be positive")
    rel = (o - b) / o * 100.0
    return (f"{base_name} vs {other_name}: mean {rel.mean():+.1f}%, "
            f"best {rel.max():+.1f}%, worst {rel.min():+.1f}%")


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)
