"""Load-profile and weather-driven PV feeders for the grid simulator.

CSV formats (UTF-8, header line, comma-separated, finite numbers; times in
seconds since scenario start, from 0 in uniform steps of a whole number of
seconds):

    load profile:  t_s,factor
    weather:       t_s,ghi_w_m2,t_air_c   (ghi_w_m2 >= 0)

The readers are the one place these rules are checked: validation reads a
scenario's series through them, and the series types and lookups trust them.
Series lookups use step interpolation clamped to the last sample.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import NamedTuple


class FeederError(Exception):
    """A data series file that breaks its format. `field` is the document
    field that names the file, once scenario.load_data_series has set it."""

    field = ""

    def __init__(self, path: Path, problem: str, line: int | None = None):
        super().__init__(f"{path}:{line}: {problem}" if line else f"{path}: {problem}")


class LoadProfile(NamedTuple):
    resolution_s: int
    factors: tuple[float, ...]

    def at(self, t: float) -> float:
        """The step-interpolated load factor at time t >= 0."""
        idx = min(int(t // self.resolution_s), len(self.factors) - 1)
        return self.factors[idx]


class WeatherSample(NamedTuple):
    ghi_w_m2: float
    t_air_c: float


class WeatherSeries(NamedTuple):
    resolution_s: int
    samples: tuple[WeatherSample, ...]

    def at(self, t: float) -> WeatherSample:
        idx = min(int(t // self.resolution_s), len(self.samples) - 1)
        return self.samples[idx]


class PvUnit(NamedTuple):
    """A PV unit that drives the p and q of the sgen it names and takes its
    dispatch at the network node host; p_peak_mw > 0, and the sgen's q range
    holds 0, as the schema and validation.cross_check hold a document."""

    name: str
    sgen: str
    p_peak_mw: float
    temp_coeff: float  # output derating per degC of cell temperature
    host: str


CELL_TEMP_SLOPE = 0.03  # degC per W/m^2 of irradiance


def pv_output(unit: PvUnit, ghi_w_m2: float, t_air_c: float) -> float:
    """PV active power in MW at irradiance ghi_w_m2 >= 0 and air temperature
    t_air_c, as read_weather_csv holds a weather series.

    Linear cell-temperature model: t_cell = t_air + 0.03 * ghi; the output is
    p_peak * ghi/1000 derated by temp_coeff per degree above 25 C, clamped to
    [0, p_peak].
    """
    t_cell = t_air_c + CELL_TEMP_SLOPE * ghi_w_m2
    p = unit.p_peak_mw * (ghi_w_m2 / 1000.0) * (1.0 - unit.temp_coeff * (t_cell - 25.0))
    return min(max(p, 0.0), unit.p_peak_mw)


def _read_rows(path: Path, expected_fields: int) -> list[list[float]]:
    rows: list[list[float]] = []
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            next(reader)  # header
            for line_no, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != expected_fields:
                    raise FeederError(path, f"expected {expected_fields} fields", line_no)
                try:
                    values = [float(x) for x in row]
                except ValueError as exc:
                    raise FeederError(path, str(exc), line_no) from None
                if not all(map(math.isfinite, values)):
                    raise FeederError(path, "not a finite number", line_no)
                rows.append(values)
        except StopIteration:
            raise FeederError(path, "empty file") from None
        except (UnicodeDecodeError, csv.Error) as exc:
            raise FeederError(path, str(exc)) from None
    if not rows:
        raise FeederError(path, "no data rows")
    return rows


def _resolution(path: Path, times: list[float]) -> int:
    if times[0] != 0:
        raise FeederError(path, "series must start at t_s=0")
    if len(times) == 1:
        return 1
    res = times[1] - times[0]
    uniform = all(abs((times[i + 1] - times[i]) - res) <= 1e-9 for i in range(len(times) - 1))
    if not (uniform and res >= 1 and res.is_integer()):
        raise FeederError(path, "time steps must be uniform whole seconds > 0")
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
    for t, ghi, _ in rows:
        if ghi < 0:
            raise FeederError(path, f"ghi must be >= 0, found {ghi:g} at t_s={t:g}")
    samples = tuple(WeatherSample(ghi_w_m2=r[1], t_air_c=r[2]) for r in rows)
    return WeatherSeries(resolution_s=res, samples=samples)
