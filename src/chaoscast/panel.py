"""Seasonal panels: multivariate series indexed by (variable, site, season).

Both attractor estimates (model-world runs) and the ground record share
this container, so delay-map coordinates mean the same thing in either
world. Missing cells are NaN, never imputed. Only the ground record has
them: they fall out of the predictions and scores downstream, while an
attractor panel, the data every regression is fitted on, is complete.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

Coord = tuple[str, str]  # (variable_id, site_id)


@dataclass
class Panel:
    values: dict[Coord, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        n = None
        for key, arr in self.values.items():
            arr = np.asarray(arr, dtype=float)
            if arr.ndim != 1:
                raise ValueError(f"series {key} must be 1-D")
            if n is None:
                n = arr.size
            elif arr.size != n:
                raise ValueError(f"series {key} has length {arr.size}, expected {n}")
            clean[(str(key[0]), str(key[1]))] = arr
        self.values = clean

    @property
    def n_seasons(self) -> int:
        for arr in self.values.values():
            return arr.size
        return 0

    def catalog(self) -> list[Coord]:
        return sorted(self.values.keys())

    def series(self, variable: str, site: str) -> np.ndarray:
        key = (str(variable), str(site))
        if key not in self.values:
            raise KeyError(f"unknown panel series {key}")
        return self.values[key]

    def add(self, variable: str, site: str, series) -> None:
        series = np.asarray(series, dtype=float)
        if self.values and series.size != self.n_seasons:
            raise ValueError("series length does not match panel")
        self.values[(str(variable), str(site))] = series

    def window(self, start: int, stop: int) -> "Panel":
        """Sub-panel over the half-open season interval [start, stop)."""
        if not (0 <= start <= stop <= self.n_seasons):
            raise ValueError(f"window [{start}, {stop}) outside panel")
        return Panel({k: v[start:stop].copy() for k, v in self.values.items()})


def panel_to_text(panel: Panel, header_comments: dict | None = None) -> str:
    """Delimited-text form: one row per (variable_id, site_id, season_index)."""
    buf = io.StringIO()
    for key, val in (header_comments or {}).items():
        buf.write(f"# {key}={val}\n")
    buf.write("variable_id,site_id,season_index,value\n")
    for var, site in sorted(panel.values.keys()):
        arr = panel.values[(var, site)]
        for t in range(arr.size):
            buf.write(f"{var},{site},{t},{float(arr[t])!r}\n")
    return buf.getvalue()


def panel_from_text(text: str) -> Panel:
    """Inverse of :func:`panel_to_text`; its ``#`` comment lines are skipped."""
    rows = []
    header_seen = False
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if not header_seen:
            if line != "variable_id,site_id,season_index,value":
                raise ValueError(f"unexpected panel header: {line!r}")
            header_seen = True
            continue
        var, site, t, val = line.split(",")
        rows.append((var, site, int(t), float(val)))
    if not rows:
        raise ValueError("empty panel file")
    n = max(t for _, _, t, _ in rows) + 1
    series: dict[Coord, np.ndarray] = {}
    for var, site, t, val in rows:
        series.setdefault((var, site), np.full(n, np.nan))[t] = val
    return Panel(series)
