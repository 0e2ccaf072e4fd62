import random

import pytest

from analyse.feeders import (
    FeederError,
    LoadProfile,
    PvUnit,
    pv_output,
    read_load_profile_csv,
    read_weather_csv,
)


def test_profile_step_interpolation():
    profile = LoadProfile(resolution_s=900, factors=(1.0, 0.5))
    assert profile.at(0) == 1.0
    assert profile.at(899) == 1.0
    assert profile.at(900) == 0.5


def test_profile_clamps_past_series_end():
    profile = LoadProfile(resolution_s=900, factors=(1.0, 0.5))
    assert profile.at(10_000) == 0.5


def test_pv_standard_conditions_identity():
    # ghi=1000 with t_air=-5 puts the cell exactly at 25 C.
    unit = PvUnit("pv", "s", p_peak_mw=0.5, temp_coeff=0.004, host="h")
    assert pv_output(unit, ghi_w_m2=1000.0, t_air_c=-5.0) == pytest.approx(0.5)


def test_pv_zero_irradiance():
    unit = PvUnit("pv", "s", p_peak_mw=0.5, temp_coeff=0.004, host="h")
    assert pv_output(unit, 0.0, 30.0) == 0.0


def test_pv_frozen_regression_value():
    # Direct evaluation of the output formula: t_cell = 30 + 0.03*800 = 54,
    # p = 1 * 0.8 * (1 - 0.004 * 29) = 0.7072 MW.
    unit = PvUnit("pv", "s", p_peak_mw=1.0, temp_coeff=0.004, host="h")
    assert pv_output(unit, 800.0, 30.0) == pytest.approx(0.7072, abs=1e-12)


def test_pv_bounds_and_monotonicity():
    unit = PvUnit("pv", "s", p_peak_mw=0.8, temp_coeff=0.004, host="h")
    rng = random.Random(7)
    for _ in range(500):
        p = pv_output(unit, rng.uniform(0, 1400), rng.uniform(-20, 45))
        assert 0.0 <= p <= unit.p_peak_mw
    for t_air in (-10.0, 0.0, 15.0, 30.0):
        last = -1.0
        for ghi in range(0, 1001, 50):
            p = pv_output(unit, float(ghi), t_air)
            assert p >= last
            last = p


def test_csv_round_trip(tmp_path):
    profile_path = tmp_path / "p.csv"
    profile_path.write_text("t_s,factor\n0,1.0\n900,0.5\n1800,0.25\n", encoding="utf-8")
    profile = read_load_profile_csv(profile_path)
    assert profile.resolution_s == 900
    assert profile.factors == (1.0, 0.5, 0.25)
    assert profile.at(1000) == 0.5

    weather_path = tmp_path / "w.csv"
    weather_path.write_text("t_s,ghi_w_m2,t_air_c\n0,0,10\n900,500,12\n", encoding="utf-8")
    series = read_weather_csv(weather_path)
    assert series.at(0).ghi_w_m2 == 0.0
    assert series.at(950).ghi_w_m2 == 500.0
    assert series.at(1e9).t_air_c == 12.0


def test_csv_rejects_nonuniform_times(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("t_s,factor\n0,1.0\n900,0.5\n2000,0.2\n", encoding="utf-8")
    with pytest.raises(FeederError, match="uniform"):
        read_load_profile_csv(path)


def test_csv_rejects_bad_rows(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("t_s,factor\n0,abc\n", encoding="utf-8")
    with pytest.raises(FeederError, match=":2"):
        read_load_profile_csv(path)
    empty = tmp_path / "empty.csv"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(FeederError):
        read_load_profile_csv(empty)
