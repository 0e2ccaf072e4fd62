"""Load-profile and weather-driven PV feeders for the grid simulator.

CSV formats (UTF-8, header line, comma-separated, times in seconds since
scenario start at a uniform resolution starting at 0):

    load profile:  t_s,factor
    weather:       t_s,ghi_w_m2,t_air_c

Series lookups use step interpolation clamped to the last sample.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path


class FeederError(Exception):
    pass


@dataclass(frozen=True)
class LoadProfile:
    resolution_s: int
    factors: tuple[float, ...]

    def __post_init__(self):
        if self.resolution_s <= 0:
            raise FeederError("profile resolution must be positive")
        if not self.factors:
            raise FeederError("profile needs at least one value")


@dataclass(frozen=True)
class WeatherSample:
    t: float
    ghi_w_m2: float
    t_air_c: float

    def __post_init__(self):
        if self.ghi_w_m2 < 0:
            raise FeederError("ghi must be >= 0")


@dataclass(frozen=True)
class WeatherSeries:
    resolution_s: int
    samples: tuple[WeatherSample, ...]

    def at(self, t: float) -> WeatherSample:
        idx = min(int(t // self.resolution_s), len(self.samples) - 1)
        return self.samples[idx]


@dataclass(frozen=True)
class PvUnit:
    """p_peak_mw > 0 and a q range that holds 0, as the schema and cross_check hold a document."""

    bus: int
    p_peak_mw: float
    temp_coeff: float  # output derating per degC of cell temperature
    q_min_mvar: float
    q_max_mvar: float


def load_profile_value(profile: LoadProfile, t: float) -> float:
    """The step-interpolated load factor at time t."""
    if t < 0:
        raise FeederError("t must be >= 0")
    idx = min(int(t // profile.resolution_s), len(profile.factors) - 1)
    return profile.factors[idx]


CELL_TEMP_SLOPE = 0.03  # degC per W/m^2 of irradiance


def pv_output(unit: PvUnit, w: WeatherSample) -> float:
    """PV active power in MW for one weather sample.

    Linear cell-temperature model: t_cell = t_air + 0.03 * ghi; the output is
    p_peak * ghi/1000 derated by temp_coeff per degree above 25 C, clamped to
    [0, p_peak].
    """
    t_cell = w.t_air_c + CELL_TEMP_SLOPE * w.ghi_w_m2
    p = unit.p_peak_mw * (w.ghi_w_m2 / 1000.0) * (1.0 - unit.temp_coeff * (t_cell - 25.0))
    return min(max(p, 0.0), unit.p_peak_mw)


def _read_rows(path: Path, expected_fields: int) -> list[list[float]]:
    rows: list[list[float]] = []
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            next(reader)  # header
        except StopIteration:
            raise FeederError(f"{path}: empty file") from None
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != expected_fields:
                raise FeederError(f"{path}:{line_no}: expected {expected_fields} fields")
            try:
                rows.append([float(x) for x in row])
            except ValueError as exc:
                raise FeederError(f"{path}:{line_no}: {exc}") from None
    if not rows:
        raise FeederError(f"{path}: no data rows")
    return rows


def _resolution(path: Path, times: list[float]) -> int:
    if times[0] != 0:
        raise FeederError(f"{path}: series must start at t_s=0")
    if len(times) == 1:
        return 1
    res = times[1] - times[0]
    if res <= 0 or any(abs((times[i + 1] - times[i]) - res) > 1e-9 for i in range(len(times) - 1)):
        raise FeederError(f"{path}: time steps must be uniform and positive")
    return int(res)


def read_load_profile_csv(path: str | Path) -> LoadProfile:
    path = Path(path)
    rows = _read_rows(path, 2)
    res = _resolution(path, [r[0] for r in rows])
    return LoadProfile(resolution_s=res, factors=tuple(r[1] for r in rows))


def read_weather_csv(path: str | Path) -> WeatherSeries:
    path = Path(path)
    rows = _read_rows(path, 3)
    res = _resolution(path, [r[0] for r in rows])
    samples = tuple(WeatherSample(t=r[0], ghi_w_m2=r[1], t_air_c=r[2]) for r in rows)
    return WeatherSeries(resolution_s=res, samples=samples)
