"""User-facing analyses over closed-loop models: Bode tables, stability
verdicts, analytic gain bounds, resonance-peak extraction, and gain sweeps.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .lti import (_STEP_OUTPUT_BYTES, NumericFailure, Pole, StateSpace,
                  check_real, freq_response, is_stable, poles)
from .system import ClosedLoopModel, SystemConfig, build


class NoInteriorPeak(NumericFailure):
    """Magnitude table is monotone; no interior resonance maximum exists."""


#: DC-link capacitance (p.u., PV base) implied by the published islanded
#: derivative-gain bound; recorded as the exact product form, not re-derived.
C_DC_PU_IMPLIED = 9.9040 * 3.4581 / 4.0


@dataclass(frozen=True)
class BodeTable:
    f_hz: np.ndarray
    mag_db: np.ndarray
    phase_deg: np.ndarray


@dataclass(frozen=True)
class StabilityResult:
    stable: bool
    nonstructural_poles: tuple[Pole, ...]


@dataclass(frozen=True)
class SweepPoint:
    value: object
    stable: bool | None
    peak: tuple[float, float]             # (f_hz, mag_db) or (nan, nan)
    error: str = ""


def _model_ss(model) -> StateSpace:
    if isinstance(model, ClosedLoopModel):
        return model.ss
    if isinstance(model, StateSpace):
        return model
    raise TypeError("expected a ClosedLoopModel or StateSpace")


def bode(model, input: str, output: str,
         f_min: float = 1e-2 / (2.0 * math.pi),
         f_max: float = 1e4 / (2.0 * math.pi),
         points: int = 400) -> BodeTable:
    """Log-spaced magnitude/phase table of one closed-loop channel, at
    `points` frequencies from `f_min` to `f_max` (Hz).  Raises ValueError
    when the table's three float columns would exceed the output budget
    of ``step_response``, ``lti._STEP_OUTPUT_BYTES``."""
    ss = _model_ss(model)
    f_min = check_real("f_min", f_min, "positive")
    f_max = check_real("f_max", f_max, "positive")
    if not f_min < f_max:
        raise ValueError(f"the band needs f_min < f_max, got "
                         f"f_min = {f_min}, f_max = {f_max}")
    if isinstance(points, bool) or not (isinstance(points, numbers.Integral)
                                        and points > 0):
        raise ValueError(f"points must be a positive int, got {points!r}")
    if 3 * 8 * points > _STEP_OUTPUT_BYTES:
        raise ValueError(f"points = {points}: a table of 3 x {points} "
                         f"floats exceeds {_STEP_OUTPUT_BYTES} bytes")
    f = np.logspace(math.log10(f_min), math.log10(f_max), points)
    h = freq_response(ss, input, output, 2.0 * math.pi * f).values
    mag_db = 20.0 * np.log10(np.abs(h))
    phase = np.degrees(np.unwrap(np.angle(h)))
    return BodeTable(f, mag_db, phase)


def stability(model) -> StabilityResult:
    """``lti.is_stable`` of the model's poles: stable iff every
    non-structural pole lies in the open left half-plane."""
    ps = poles(_model_ss(model))
    return StabilityResult(is_stable(ps),
                           tuple(p for p in ps if not p.structural))


def dominant_damping(result: StabilityResult) -> float | None:
    """Damping ratio of the least-damped non-structural pole pair."""
    best = None
    for p in result.nonstructural_poles:
        mag = abs(p.value)
        if mag == 0:
            return 0.0
        zeta = -p.value.real / mag
        if best is None or zeta < best:
            best = zeta
    return best


def bound_islanded_kd(k_p: float, C_dc_pu: float = C_DC_PU_IMPLIED,
                      k_pv: float = 3.4581) -> float:
    """Derivative-gain stability bound k_d < 4 C_dc k_p / k_pv for the
    islanded PV configuration; infinite when the PV is at its power maximum
    (k_pv -> 0)."""
    check_real("k_p", k_p, "positive")
    check_real("C_dc_pu", C_dc_pu, "positive")
    check_real("k_pv", k_pv, "nonnegative")
    if k_pv == 0:
        return math.inf
    return 4.0 * C_dc_pu * k_p / k_pv


def check_ratio_bounds(config: SystemConfig) -> dict:
    """Strict check k_d/k_p < bound for each VSC that ``config.ratio_bounds``
    bounds, by VSC name.  The bounds are published; not verified against
    the model: a pass does not imply stability, nor a fail instability."""
    return {n: config.vsc[n].control.k_d / config.vsc[n].control.k_p < b
            for n, b in config.ratio_bounds.items()}


def interior_peaks(x: np.ndarray, y: np.ndarray) -> list[tuple[float, float]]:
    """Every interior local maximum of y over x, in ascending x order: each
    sample that no neighbour exceeds and at least one lies below, refined
    to the vertex of the 3-point quadratic fit in log-x coordinates around
    it, or kept as the sample when the fit is not concave or its vertex
    leaves the three points."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    peaks = []
    for i in range(1, len(y) - 1):
        if not (y[i] >= y[i - 1] and y[i] >= y[i + 1]
                and (y[i] > y[i - 1] or y[i] > y[i + 1])):
            continue
        xs = np.log10(x[i - 1:i + 2])
        a, b, c = np.polyfit(xs, y[i - 1:i + 2], 2)
        xv = -b / (2.0 * a) if a < 0 else math.nan    # a vertex if concave
        peaks.append((float(10.0 ** xv), float(np.polyval([a, b, c], xv)))
                     if xs[0] <= xv <= xs[2] else (float(x[i]), float(y[i])))
    return peaks


def interior_peak(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """The largest of ``interior_peaks``, the first in x among equals."""
    peaks = interior_peaks(x, y)
    if not peaks:
        raise NoInteriorPeak("no interior local maximum")
    return max(peaks, key=lambda p: p[1])


def resonance_peak(table: BodeTable) -> tuple[float, float]:
    """(f_peak in Hz, magnitude peak in dB) of the largest interior
    resonance of a Bode table."""
    return interior_peak(table.f_hz, table.mag_db)


def sweep(builder, values, channel) -> tuple[SweepPoint, ...]:
    """Evaluate stability and the resonance peak of one (input, output)
    `channel`, over the band of ``bode``, at each of `values`.

    `builder` maps one value to a SystemConfig.  Points are independent: a
    NumericFailure or ValueError of one point is recorded in its `error`
    and the sweep continues; any other exception, such as a KeyError for
    an unknown parameter or channel, propagates.  A point without an
    interior peak has the peak (nan, nan).
    """
    if len(values) == 0:
        raise ValueError("values must be non-empty")
    out = []
    for value in values:
        try:
            model = build(builder(value))
            verdict = stability(model)
            try:
                peak = resonance_peak(bode(model, *channel))
            except NoInteriorPeak:
                peak = (math.nan, math.nan)
            out.append(SweepPoint(value, verdict.stable, peak))
        except (NumericFailure, ValueError) as exc:
            out.append(SweepPoint(value, None, (math.nan, math.nan),
                                  f"{type(exc).__name__}: {exc}"))
    return tuple(out)
