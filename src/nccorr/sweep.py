"""Parameter sweeps over the three example families, emitted as CSV."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import DensityMatrix, ParamOutOfRange
from . import measures as _measures
from . import states
from .search import SearchConfig

MEASURE_ORDER = tuple(_measures.MEASURES)
CSV_HEADER = ",".join(("param",) + MEASURE_ORDER)

FAMILIES: Dict[str, Tuple[Callable[[float], DensityMatrix], float, float]] = {
    "ps": (states.make_pseudo_entangled, 0.0, 1.0),
    "sigma": (states.make_sigma, 0.0, 0.5),
    "horodecki": (states.make_horodecki, 0.0, 1.0),
}


@dataclass(frozen=True)
class SweepSpec:
    family: str
    param_start: float
    param_end: float
    steps: int
    measures: Tuple[str, ...] = MEASURE_ORDER
    search: SearchConfig = field(default_factory=SearchConfig)
    partition_cap: int = _measures.DEFAULT_PARTITION_CAP

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ParamOutOfRange(f"unknown family {self.family!r}")
        _, lo, hi = FAMILIES[self.family]
        for v in (self.param_start, self.param_end):
            if not lo <= v <= hi:
                raise ParamOutOfRange(
                    f"parameter {v!r} outside [{lo}, {hi}] for family {self.family!r}"
                )
        if self.steps < 2:
            raise ParamOutOfRange(f"steps must be >= 2, got {self.steps}")
        if self.steps > np.iinfo(np.intp).max // 8:
            raise ParamOutOfRange(f"steps={self.steps} is too many for numpy to index")
        bad = [m for m in self.measures if m not in MEASURE_ORDER]
        if bad:
            raise ParamOutOfRange(f"unknown measures {bad}")


def evaluate_point(
    rho: DensityMatrix,
    which: Sequence[str],
    cfg: SearchConfig,
    partition_cap: int,
) -> Dict[str, float]:
    return {
        m: measure(rho, cfg, partition_cap).value
        for m, measure in _measures.MEASURES.items()
        if m in which
    }


def sweep_rows(spec: SweepSpec) -> List[Tuple[float, Dict[str, float]]]:
    ctor, _, _ = FAMILIES[spec.family]
    params = np.linspace(spec.param_start, spec.param_end, spec.steps)
    rows = []
    for p in params:
        rho = ctor(float(p))
        rows.append((float(p), evaluate_point(rho, spec.measures, spec.search, spec.partition_cap)))
    return rows


def _fmt(v: float) -> str:
    return format(v, ".12g")


def csv_text(rows: List[Tuple[float, Dict[str, float]]]) -> str:
    lines = [CSV_HEADER]
    for p, vals in rows:
        cells = [_fmt(p)]
        for m in MEASURE_ORDER:
            cells.append(_fmt(vals[m]) if m in vals else "")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def run_sweep(spec: SweepSpec) -> str:
    return csv_text(sweep_rows(spec))
