"""Wafer layout, yield statistics, and spatial defect analytics.

The wafer is stepped in 3x3-chip reticle shots; two of the nine cells are
process-control structures, the remaining seven are trap chips. Spatial
analytics separate reticle-periodic defects (a mask problem: one cell fails
everywhere) from edge-concentrated ones (a wafer-scale process problem) and
from uniform background.

The bundled layout is calibrated for a 200 mm wafer: chip pitch 6.9 mm and
edge exclusion 3.25 mm with the shot grid centered on the wafer give exactly
477 productive sites; the count is stable for exclusions in 3.20..3.35 mm.
"""

import numbers
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from ._io import nonnegative, positive
from .wafertest import FAILURE_CODES

# scipy is imported inside the two statistics that use it, so that loading
# the layout and the map renderers costs no scipy import.

__all__ = [
    "WaferLayout",
    "ChipSite",
    "YieldStats",
    "DefectEstimate",
    "CellStat",
    "EdgeStat",
    "DEFAULT_LAYOUT",
    "layout_wafer",
    "yield_stats",
    "infer_defects",
    "yield_from_defects",
    "reticle_periodicity",
    "edge_concentration",
    "synthesize_outcomes",
    "render_svg",
    "render_csv",
    "OUTCOME_COLORS",
]


@dataclass(frozen=True)
class WaferLayout:
    """Reticle stepping parameters. Lengths in meters.

    The shot grid is centered on the wafer: shot (i, j) covers the 3x3 cell
    block with lower-left corner at ``((3 i - 1.5) p, (3 j - 1.5) p)``. A
    chip is productive when its cell is not a test cell and its center lies
    within the usable radius (wafer radius minus edge exclusion).
    """

    wafer_diameter: float = 0.2
    chip_pitch: float = 6.9e-3
    edge_exclusion: float = 3.25e-3
    test_cells: tuple[tuple[int, int], ...] = ((0, 0), (2, 2))

    def __post_init__(self):
        positive("wafer_diameter", self.wafer_diameter)
        positive("chip_pitch", self.chip_pitch)
        if nonnegative("edge_exclusion", self.edge_exclusion) >= self.wafer_diameter / 2:
            raise ValueError("edge_exclusion out of range")
        for cx, cy in self.test_cells:
            if not (0 <= cx <= 2 and 0 <= cy <= 2):
                raise ValueError("test cells must be inside the 3x3 reticle")

    @property
    def usable_radius(self) -> float:
        return self.wafer_diameter / 2 - self.edge_exclusion


DEFAULT_LAYOUT = WaferLayout()

#: Outer fraction of the usable radius that ``edge_concentration`` tests.
_EDGE_ANNULUS = 0.2

#: Significance level of ``reticle_periodicity`` and ``edge_concentration``.
_ALPHA = 0.01


@dataclass(frozen=True)
class ChipSite:
    """One productive chip: center coordinates, shot index, reticle cell."""

    chip_id: str
    x: float
    y: float
    shot: tuple[int, int]
    cell: tuple[int, int]


def layout_wafer(layout: WaferLayout = DEFAULT_LAYOUT) -> tuple[ChipSite, ...]:
    """Enumerate productive chip sites, ids assigned in reading order.

    Reading order is top row first (descending y), then left to right, so
    ids are stable against set-iteration order.
    """
    p = layout.chip_pitch
    usable = layout.usable_radius
    n_shots = int(np.ceil(usable / (3 * p))) + 1
    raw = []
    for i in range(-n_shots, n_shots + 1):
        for j in range(-n_shots, n_shots + 1):
            x0 = (3 * i - 1.5) * p
            y0 = (3 * j - 1.5) * p
            for cx in range(3):
                for cy in range(3):
                    if (cx, cy) in layout.test_cells:
                        continue
                    xc = x0 + (cx + 0.5) * p
                    yc = y0 + (cy + 0.5) * p
                    if np.hypot(xc, yc) <= usable:
                        raw.append((xc, yc, (i, j), (cx, cy)))
    raw.sort(key=lambda s: (-round(s[1] / p), round(s[0] / p)))
    return tuple(
        ChipSite(chip_id=f"C{k + 1:03d}", x=x, y=y, shot=shot, cell=cell)
        for k, (x, y, shot, cell) in enumerate(raw)
    )


@dataclass(frozen=True)
class YieldStats:
    total: int
    passed: int
    yield_fraction: float
    code_counts: tuple[tuple[str, int], ...]


def yield_stats(outcomes: dict) -> YieldStats:
    """Summarize chip outcomes (id -> "PASS" or failure code)."""
    total = len(outcomes)
    if total == 0:
        raise ValueError("no outcomes")
    codes = Counter(outcomes.values())
    passed = codes.pop("PASS", 0)
    return YieldStats(
        total=total,
        passed=passed,
        yield_fraction=passed / total,
        code_counts=tuple(sorted(codes.items())),
    )


@dataclass(frozen=True)
class DefectEstimate:
    total_defects: float
    per_chip: float
    per_step: float


def infer_defects(yield_fraction: float, n_chips: int, n_steps: int = 104) -> DefectEstimate:
    """Poisson defect estimate from yield.

    With defects falling independently on chips and a chip passing only when
    it caught none, ``Y = exp(-N_d / n_chips)``; invert for the wafer total
    and divide by the process step count for a per-step figure.
    """
    if positive("yield_fraction", yield_fraction) > 1:
        raise ValueError("yield_fraction must be in (0, 1]")
    if not (1 <= n_chips < np.inf and 1 <= n_steps < np.inf):
        raise ValueError("n_chips and n_steps must be positive")
    total = -n_chips * np.log(yield_fraction)
    return DefectEstimate(
        total_defects=total, per_chip=total / n_chips, per_step=total / n_steps
    )


def yield_from_defects(total_defects: float, n_chips: int) -> float:
    """Inverse of :func:`infer_defects`: expected yield at a defect count."""
    nonnegative("total_defects", total_defects)
    if not 1 <= n_chips < np.inf:
        raise ValueError("n_chips must be positive")
    return float(np.exp(-total_defects / n_chips))


def _is_hit(outcome: str, code: str | None) -> bool:
    """Whether a chip outcome counts as a failure of ``code`` (of any code if None)."""
    return outcome == code if code is not None else outcome != "PASS"


@dataclass(frozen=True)
class CellStat:
    cell: tuple[int, int]
    n_sites: int
    n_fail: int
    expected: float
    p_value: float
    flagged: bool


def reticle_periodicity(sites, outcomes: dict, code: str | None = None) -> list[CellStat]:
    """Per-reticle-cell excess-failure test.

    Counts failures (of ``code``, or any non-PASS outcome when ``code`` is
    None) per reticle cell and asks, cell by cell, how likely at least the
    observed count is under a uniform failure rate: an exact binomial tail
    with the pooled rate, at level ``_ALPHA`` / 9 (Bonferroni over the cells).
    Flagged cells with a tiny p value indicate a mask or reticle-local
    process defect.
    """
    per_cell_sites, per_cell_fails = Counter(), Counter()
    for s in sites:
        per_cell_sites[s.cell] += 1
        per_cell_fails[s.cell] += _is_hit(outcomes[s.chip_id], code)
    n_total = per_cell_sites.total()
    rate = per_cell_fails.total() / n_total if n_total else 0.0
    threshold = _ALPHA / 9.0  # Bonferroni over the reticle
    from scipy import special

    out = []
    for cell in sorted(per_cell_sites):
        n = per_cell_sites[cell]
        k = per_cell_fails[cell]
        # P(X >= k), X ~ Binomial(n, rate): the regularized incomplete beta
        # I_rate(k, n - k + 1), bit for bit what scipy.stats.binom.sf gives
        p = float(special.betainc(k, n - k + 1, rate)) if k > 0 else 1.0
        out.append(
            CellStat(
                cell=cell,
                n_sites=n,
                n_fail=k,
                expected=n * rate,
                p_value=p,
                flagged=p < threshold,
            )
        )
    return out


@dataclass(frozen=True)
class EdgeStat:
    n_edge: int
    n_edge_fail: int
    n_inner: int
    n_inner_fail: int
    z: float
    p_value: float
    flagged: bool


def edge_concentration(
    sites,
    outcomes: dict,
    code: str | None = None,
    layout: WaferLayout = DEFAULT_LAYOUT,
) -> EdgeStat:
    """One-sided test for failures concentrating in the outer annulus.

    Sites in the outer ``_EDGE_ANNULUS`` (20%) of the usable radius form the
    edge group; a pooled two-proportion z test at level ``_ALPHA`` (1%) asks
    whether their failure rate exceeds the interior's.
    """
    r_split = (1.0 - _EDGE_ANNULUS) * layout.usable_radius
    ne = ni = fe = fi = 0
    for s in sites:
        hit = _is_hit(outcomes[s.chip_id], code)
        if np.hypot(s.x, s.y) > r_split:
            ne += 1
            fe += hit
        else:
            ni += 1
            fi += hit
    if ne == 0 or ni == 0:
        raise ValueError("annulus split left one group empty")
    pe, pi = fe / ne, fi / ni
    pooled = (fe + fi) / (ne + ni)
    var = pooled * (1.0 - pooled) * (1.0 / ne + 1.0 / ni)
    if var == 0.0:
        z, p = 0.0, 1.0
    else:
        from scipy import special

        z = (pe - pi) / np.sqrt(var)
        p = float(special.ndtr(-z))  # upper normal tail, as scipy.stats.norm.sf
    return EdgeStat(
        n_edge=ne,
        n_edge_fail=fe,
        n_inner=ni,
        n_inner_fail=fi,
        z=float(z),
        p_value=p,
        flagged=p < _ALPHA,
    )


def synthesize_outcomes(
    sites,
    rng: "np.random.Generator",
    base_rates: dict | None = None,
    cell_boost: tuple[tuple[int, int], str, float] | None = None,
    edge_boost: tuple[str, float, float] | None = None,
    layout: WaferLayout = DEFAULT_LAYOUT,
) -> dict:
    """Draw synthetic outcomes for each site.

    ``base_rates`` maps failure codes to uniform per-site probabilities.
    ``cell_boost = (cell, code, rate)`` raises one reticle cell's rate for
    one code; ``edge_boost = (code, rate, annulus_fraction)`` raises the
    outer annulus. Codes are evaluated in sorted order and the first failure
    drawn wins, so results are reproducible for a given generator state.
    Every code must be one of ``wafertest.FAILURE_CODES``, and every rate,
    and the annulus fraction, a number in [0, 1]; anything else raises
    ValueError naming the code, and so does a ``base_rates`` that is not a
    mapping. A boosted cell that holds none of the ``sites`` (a test cell,
    or one outside the 3x3 reticle) raises ValueError naming the cell.
    """
    if base_rates is not None and not isinstance(base_rates, Mapping):
        raise ValueError(f"base rates must map failure codes to rates, got {type(base_rates).__name__}")
    base_rates = dict(base_rates or {})
    codes = list(base_rates)
    checks = [(f"rate of {code}", rate) for code, rate in base_rates.items()]
    if cell_boost is not None:
        codes.append(cell_boost[1])
        checks.append((f"cell boost rate of {cell_boost[1]}", cell_boost[2]))
    if edge_boost is not None:
        codes.append(edge_boost[0])
        checks.append((f"edge boost rate of {edge_boost[0]}", edge_boost[1]))
        checks.append((f"edge annulus fraction of {edge_boost[0]}", edge_boost[2]))
    for code in codes:
        if code not in FAILURE_CODES:
            raise ValueError(f"unknown failure code {code!r}: not one of {', '.join(FAILURE_CODES)}")
    for name, value in checks:
        if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must be a number in [0, 1], got {value!r}")
    if cell_boost is not None and not any(s.cell == cell_boost[0] for s in sites):
        cx, cy = cell_boost[0]
        raise ValueError(f"boosted reticle cell ({cx}, {cy}) holds no chip")
    out = {}
    r_split = None
    if edge_boost is not None:
        r_split = (1.0 - edge_boost[2]) * layout.usable_radius
    for s in sites:
        rates = dict(base_rates)
        if cell_boost is not None and s.cell == cell_boost[0]:
            rates[cell_boost[1]] = max(rates.get(cell_boost[1], 0.0), cell_boost[2])
        if edge_boost is not None and np.hypot(s.x, s.y) > r_split:
            rates[edge_boost[0]] = max(rates.get(edge_boost[0], 0.0), edge_boost[1])
        outcome = "PASS"
        for code in sorted(rates):
            if rng.random() < rates[code]:
                outcome = code
                break
        out[s.chip_id] = outcome
    return out


#: Fill colors for the wafer map, one per outcome.
OUTCOME_COLORS = {
    "PASS": "#3f9d4e",
    "HW_FAIL": "#9e9e9e",
    "CONTINUITY_FAIL": "#f59f00",
    "LEAK_DC_DC": "#e8590c",
    "LEAK_DC_RF": "#d6336c",
    "LEAK_DC_GND": "#862e9c",
    "LEAK_RF": "#5f3dc4",
    "RES_FAIL_DC": "#1c7ed6",
    "RES_FAIL_RF": "#1098ad",
    "RES_FAIL_TS": "#0b7285",
}
_UNKNOWN_COLOR = "#212529"


def render_csv(sites, outcomes: dict) -> str:
    """Chip table as CSV text: id, center (mm), shot, cell, outcome."""
    lines = ["chip_id,x_mm,y_mm,shot_i,shot_j,cell_x,cell_y,outcome"]
    for s in sites:
        lines.append(
            f"{s.chip_id},{s.x * 1e3:.3f},{s.y * 1e3:.3f},"
            f"{s.shot[0]},{s.shot[1]},{s.cell[0]},{s.cell[1]},{outcomes[s.chip_id]}"
        )
    return "\n".join(lines) + "\n"


def render_svg(
    sites,
    outcomes: dict,
    layout: WaferLayout = DEFAULT_LAYOUT,
    flagged_cells=(),
) -> str:
    """Wafer map as a self-contained SVG string.

    Chips are squares colored by outcome and carry ``data-chip`` and
    ``data-outcome`` attributes for machine parsing; chips in flagged
    reticle cells get a heavy outline. Output is byte-stable for identical
    inputs.
    """
    rmm = layout.wafer_diameter / 2 * 1e3
    pmm = layout.chip_pitch * 1e3
    margin = 6.0
    size = 2 * (rmm + margin)
    flagged = set(tuple(c) for c in flagged_cells)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="640" height="640" '
        f'viewBox="{-rmm - margin:.2f} {-rmm - margin:.2f} {size:.2f} {size:.2f}">',
        "<title>wafer map</title>",
        f'<circle cx="0" cy="0" r="{rmm:.2f}" fill="#f8f9fa" stroke="#495057" '
        f'stroke-width="0.5"/>',
        f'<circle cx="0" cy="0" r="{layout.usable_radius * 1e3:.2f}" fill="none" '
        f'stroke="#adb5bd" stroke-width="0.25" stroke-dasharray="2 2"/>',
    ]
    for s in sites:
        o = outcomes[s.chip_id]
        color = OUTCOME_COLORS.get(o, _UNKNOWN_COLOR)
        x = s.x * 1e3 - pmm / 2
        y = -s.y * 1e3 - pmm / 2  # SVG y grows downward
        stroke = '#c92a2a" stroke-width="0.6' if s.cell in flagged else '#dee2e6" stroke-width="0.15'
        parts.append(
            f'<rect x="{x:.3f}" y="{y:.3f}" width="{pmm:.3f}" height="{pmm:.3f}" '
            f'fill="{color}" stroke="{stroke}" data-chip="{s.chip_id}" '
            f'data-outcome="{o}"/>'
        )
    # legend: only outcomes present, stable order
    present = sorted(set(outcomes.values()))
    for k, o in enumerate(present):
        ly = -rmm + 4.0 + 5.0 * k
        color = OUTCOME_COLORS.get(o, _UNKNOWN_COLOR)
        parts.append(
            f'<rect x="{-rmm - margin + 1.0:.2f}" y="{ly:.2f}" width="3" height="3" '
            f'fill="{color}"/>'
        )
        parts.append(
            f'<text x="{-rmm - margin + 5.0:.2f}" y="{ly + 2.6:.2f}" '
            f'font-family="sans-serif" font-size="3">{o}</text>'
        )
    if flagged:
        cells = ", ".join(f"({cx},{cy})" for cx, cy in sorted(flagged))
        parts.append(
            f'<text x="0" y="{rmm + margin - 1.5:.2f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="3.5">flagged reticle cells: {cells}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
