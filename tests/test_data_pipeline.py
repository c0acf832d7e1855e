import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcast.data_pipeline import (DataFormatError, Normalizer, StateSeries,
                                    SyntheticConfig, build_windows,
                                    chronological_split, fit_normalizer,
                                    generate_synthetic_series, load_series,
                                    save_series)


def make_series(t, n, seed=0):
    rng = np.random.default_rng(seed)
    return StateSeries(n, rng.normal(size=(t, 2 * n)))


# ---------------------------------------------------------------------------
# CSV ingest
# ---------------------------------------------------------------------------

def test_load_well_formed_file(tmp_path):
    path = tmp_path / "grid.csv"
    header = "t,vm_1,vm_2,vm_3,va_1,va_2,va_3"
    rows = [f"{i / 10},1.0,1.01,0.99,10.0,-5.0,2.5" for i in range(5)]  # uneven float steps
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    series = load_series(path)
    assert series.n_buses == 3
    assert len(series) == 5
    assert series.values.shape == (5, 6)


def test_load_ragged_row_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,vm_1,va_1\n0,1.0,2.0\n1,1.0\n")
    with pytest.raises(DataFormatError, match="line 3"):
        load_series(path)


def test_load_non_numeric_cell_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,vm_1,va_1\n0,1.0,2.0\n1,oops,2.0\n")
    with pytest.raises(DataFormatError, match="line 3"):
        load_series(path)


@pytest.mark.parametrize("row", ["1,1.0,nan", "1,inf,2.0", "nan,1.0,2.0"])
def test_load_non_finite_cell_names_line(tmp_path, row):
    path = tmp_path / "bad.csv"
    path.write_text(f"t,vm_1,va_1\n0,1.0,2.0\n\n{row}\n")
    with pytest.raises(DataFormatError, match="line 4: non-finite"):
        load_series(path)


@pytest.mark.parametrize("step", [0.1, 1 / 30])
def test_load_accepts_decimal_steps_at_epoch_offsets(tmp_path, step):
    path = tmp_path / "grid.csv"
    rows = "".join(f"{1.7e9 + k * step!r},1.0,2.0\n" for k in range(50))
    path.write_text("t,vm_1,va_1\n" + rows)
    assert len(load_series(path)) == 50


@pytest.mark.parametrize("ts, line", [("0,0,5", 3), ("0,1,3", 4), ("2,1,0", 3),
                                      ("1.7e9,1700000000.1,1700000000.3", 4)])
def test_load_rejects_irregular_time_column(tmp_path, ts, line):
    path = tmp_path / "bad.csv"
    rows = "".join(f"{t},1.0,2.0\n" for t in ts.split(","))
    path.write_text("t,vm_1,va_1\n" + rows)
    with pytest.raises(DataFormatError, match=f"line {line}: t must increase"):
        load_series(path)


def test_load_missing_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0,1.0,2.0\n1,1.0,2.0\n")
    with pytest.raises(DataFormatError, match="header"):
        load_series(path)


def test_save_load_round_trip(tmp_path):
    series = generate_synthetic_series(SyntheticConfig(n_buses=4, length=50, seed=3))
    path = tmp_path / "synth.csv"
    save_series(series, path)
    back = load_series(path)
    assert back.n_buses == series.n_buses
    npt.assert_array_equal(back.values, series.values)


# ---------------------------------------------------------------------------
# split
# ---------------------------------------------------------------------------

def test_split_reference_counts():
    series = make_series(18528, 1)
    train, test = chronological_split(series, 0.8)
    assert len(train) == 14822
    assert len(test) == 3706


def test_split_exact_small():
    train, test = chronological_split(make_series(10, 1), 0.8)
    assert (len(train), len(test)) == (8, 2)


def test_split_is_a_partition():
    series = make_series(25, 2)
    train, test = chronological_split(series, 0.8)
    npt.assert_array_equal(np.vstack([train.values, test.values]), series.values)


def test_split_rejects_short_partition():
    with pytest.raises(ValueError):
        chronological_split(make_series(12, 1), 0.8, min_len=11)


def test_split_rejects_bad_fraction():
    with pytest.raises(ValueError):
        chronological_split(make_series(10, 1), 1.0)


# ---------------------------------------------------------------------------
# windowing
# ---------------------------------------------------------------------------

def test_window_count_matches_test_partition():
    x, y = build_windows(make_series(3706, 2), 10)
    assert len(x) == 3696 and len(y) == 3696


def test_single_window_boundary():
    series = make_series(11, 2)
    x, y = build_windows(series, 10)
    assert x.shape == (1, 4, 10)
    npt.assert_array_equal(y[0], series.values[-1])
    npt.assert_array_equal(x[0], series.values[:10].T)


def test_window_columns_chronological():
    series = make_series(20, 3)
    x, y = build_windows(series, 5)
    for i in range(len(x)):
        npt.assert_array_equal(x[i], series.values[i:i + 5].T)
        npt.assert_array_equal(x[i][:, -1], series.values[i + 4])
        npt.assert_array_equal(y[i], series.values[i + 5])


@given(st.integers(2, 60), st.integers(1, 59))
@settings(max_examples=60)
def test_window_count_formula(t, r):
    series = make_series(t, 1, seed=t * 100 + r)
    if t <= r:
        with pytest.raises(ValueError):
            build_windows(series, r)
    else:
        x, _ = build_windows(series, r)
        assert len(x) == t - r


def test_rejects_too_short_series():
    with pytest.raises(ValueError):
        build_windows(make_series(5, 1), 5)


def test_no_leakage_between_partitions():
    series = make_series(40, 1)
    train, test = chronological_split(series, 0.8, min_len=6)
    x, y = build_windows(test, 5)
    # every test window and target lies inside the test partition
    for i in range(len(x)):
        npt.assert_array_equal(x[i], test.values[i:i + 5].T)
    npt.assert_array_equal(y, test.values[5:])


# ---------------------------------------------------------------------------
# normalizer
# ---------------------------------------------------------------------------

def test_constant_feature_maps_to_zero():
    values = np.column_stack([np.full(10, 3.0), np.arange(10.0)])
    series = StateSeries(1, values)
    stats = fit_normalizer(series)
    assert stats.std[0] == 1.0
    assert stats.constant_mask[0] and not stats.constant_mask[1]
    npt.assert_array_equal(stats.apply(values)[:, 0], np.zeros(10))


def test_normalizer_round_trip(rng):
    series = make_series(50, 3, seed=9)
    stats = fit_normalizer(series)
    x = rng.normal(size=(6, 10))
    back = stats.invert(stats.apply_window(x).T).T  # x is a (2n, r) window
    npt.assert_allclose(back, x, rtol=1e-12)
    v = rng.normal(size=6)
    npt.assert_allclose(stats.invert(stats.apply(v)), v, rtol=1e-12)


def test_normalized_train_moments():
    series = make_series(500, 2, seed=4)
    stats = fit_normalizer(series)
    z = stats.apply(series.values)
    npt.assert_allclose(z.mean(axis=0), 0.0, atol=1e-9)
    npt.assert_allclose(z.std(axis=0), 1.0, atol=1e-9)


def test_stats_depend_only_on_training_partition():
    series = make_series(50, 2, seed=5)
    train, _ = chronological_split(series, 0.8)
    stats1 = fit_normalizer(train)
    altered = StateSeries(2, np.vstack([train.values, np.ones((10, 4)) * 99]))
    train2, _ = chronological_split(altered, 0.8)
    stats2 = fit_normalizer(train2)
    npt.assert_array_equal(stats1.mean, stats2.mean)
    npt.assert_array_equal(stats1.std, stats2.std)


def test_fit_rejects_empty():
    with pytest.raises(ValueError):
        fit_normalizer(StateSeries(1, np.zeros((0, 2))))


def test_apply_on_square_state_batch_is_row_by_row(rng):
    # (2n, 2n) is a batch of 2n states, not a window
    stats = Normalizer(rng.normal(size=4), rng.uniform(0.5, 2.0, 4))
    states = rng.normal(size=(4, 4))
    npt.assert_array_equal(stats.apply(states), np.stack([stats.apply(s) for s in states]))
    npt.assert_array_equal(stats.invert(states), np.stack([stats.invert(s) for s in states]))


def test_layouts_are_explicit(rng):
    stats = Normalizer(rng.normal(size=4), rng.uniform(0.5, 2.0, 4))
    windows = rng.normal(size=(3, 4, 5))  # (B, 2n, r)
    for states_only in (stats.apply, stats.invert):
        with pytest.raises(ValueError):
            states_only(windows)
    with pytest.raises(ValueError):
        stats.apply_window(windows.transpose(0, 2, 1))


def test_identity_normalizer_is_a_noop(rng):
    stats = Normalizer.identity(4)
    x = rng.normal(size=(3, 4))
    npt.assert_array_equal(stats.apply(x), x)


# ---------------------------------------------------------------------------
# synthetic generator
# ---------------------------------------------------------------------------

def test_zero_dynamics_gives_constant_series():
    cfg = SyntheticConfig(n_buses=3, length=20, magnitude_amplitude=0.0,
                          angle_amplitude=0.0, noise_std_magnitude=0.0,
                          noise_std_angle=0.0, seed=1)
    series = generate_synthetic_series(cfg)
    npt.assert_array_equal(series.values, np.tile(series.values[0], (20, 1)))
    npt.assert_allclose(series.values[0, :3], 1.0)


def test_same_seed_identical_series():
    cfg = SyntheticConfig(n_buses=4, length=30, seed=11)
    a = generate_synthetic_series(cfg)
    b = generate_synthetic_series(cfg)
    npt.assert_array_equal(a.values, b.values)


def test_zero_noise_matches_closed_form():
    cfg = SyntheticConfig(n_buses=3, length=25, noise_std_magnitude=0.0,
                          noise_std_angle=0.0, seed=2)
    series = generate_synthetic_series(cfg)
    # independent recomputation of the documented formula, same draw order
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n_buses
    amp_vm = cfg.magnitude_amplitude * rng.uniform(0.5, 1.0, n)
    phi = rng.uniform(0.0, 2 * np.pi, n)
    offset = cfg.angle_offset_scale * rng.uniform(-1.0, 1.0, n)
    amp_va = cfg.angle_amplitude * rng.uniform(0.5, 1.0, n)
    psi = rng.uniform(0.0, 2 * np.pi, n)
    omega = 2 * np.pi / cfg.period
    for t in range(cfg.length):
        for i in range(n):
            vm = cfg.base_magnitude + amp_vm[i] * np.sin(omega * t + phi[i])
            core_i = amp_va[i] * np.sin(omega * t + psi[i])
            j = (i - 1) % n
            core_j = amp_va[j] * np.sin(omega * t + psi[j])
            va = offset[i] + core_i + cfg.coupling * core_j
            assert series.values[t, i] == pytest.approx(vm, abs=1e-12)
            assert series.values[t, n + i] == pytest.approx(va, abs=1e-12)


def test_zero_noise_is_exactly_periodic():
    cfg = SyntheticConfig(n_buses=2, length=50, period=10,
                          noise_std_magnitude=0.0, noise_std_angle=0.0, seed=3)
    series = generate_synthetic_series(cfg)
    npt.assert_allclose(series.values[:40], series.values[10:], atol=1e-9)


def test_config_validation():
    with pytest.raises(ValueError):
        SyntheticConfig(n_buses=0, length=10)
    with pytest.raises(ValueError):
        SyntheticConfig(n_buses=2, length=10, period=1)
    with pytest.raises(ValueError):
        SyntheticConfig(n_buses=2, length=10, noise_std_magnitude=-1.0)
