from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcast import data_pipeline
from gridcast.data_pipeline import (ANGLE_AMPLITUDE, ANGLE_OFFSET_SCALE, BASE_MAGNITUDE,
                                    MAGNITUDE_AMPLITUDE, DataFormatError, Normalizer,
                                    StateSeries, SyntheticConfig, atomic_write,
                                    build_windows, fit_normalizer, generate_synthetic_series,
                                    load_series, save_series, split_windows)

from gridcast.forecaster import ModelConfig, forecast_batch, init_model

from conftest import first_bad_line, identity_normalizer, oracle_build_windows

# numpy's floating-point errors as exceptions; underflow into a subnormal is no error
NO_FP_WARNINGS = dict(over="raise", divide="raise", invalid="raise", under="ignore")


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


@pytest.mark.parametrize("row", ["1,1_0,2.0", "1_0,1.0,2.0", "1,١٢,2.0", "1,１２,2.0"],
                         ids=["underscore-vm", "underscore-t", "arabic-indic", "fullwidth"])
def test_load_rejects_cells_that_are_not_ascii_decimals(tmp_path, row):
    """float() also reads PEP 515 underscores and non-ASCII digits, so a typo
    such as 1_05 would load as 105. Such a row is an error that names its
    line, and rows are checked in order, so the bad row after it does not win."""
    path = tmp_path / "bad.csv"
    path.write_text(f"t,vm_1,va_1\n0,1.0,2.0\n{row}\n2,oops,2.0\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="line 3: non-numeric cell"):
        load_series(path)


def test_load_accepts_ascii_whitespace_around_numbers(tmp_path):
    path = tmp_path / "grid.csv"
    path.write_text("t,vm_1,va_1\n0, 1.0 ,2.0\t\n1,1.5,\t-2.0\n")
    npt.assert_array_equal(load_series(path).values, [[1.0, 2.0], [1.5, -2.0]])


@pytest.mark.parametrize("row", ["1,1.0,nan", "1,inf,2.0", "nan,1.0,2.0"])
def test_load_non_finite_cell_names_line(tmp_path, row):
    path = tmp_path / "bad.csv"
    path.write_text(f"t,vm_1,va_1\n0,1.0,2.0\n\n{row}\n")
    with pytest.raises(DataFormatError, match="line 4: non-finite"):
        load_series(path)


@pytest.mark.parametrize("rows, message", [
    ("0,1.0,2.0\nnan,1.0,2.0\n2,oops,2.0\n", "line 3: non-finite cell"),
    ("0,1.0,2.0\n1,1.0,2.0\n1,1.0,2.0\n3,oops,2.0\n", "line 4: t must increase"),
    ("0,1.0,2.0\n1,inf,2.0\n2,1.0\n", "line 3: non-finite cell"),
    ("0,1.0,2.0\n1,1.0,2.0\n5,1.0,2.0\n6,1.0,2.0\n7,nan,2.0\n", "line 4: t must increase"),
    ("0,1.0,2.0\n1,1.0,2.0\n5,1.0,2.0\ninf,1.0,2.0\n", "line 4: t must increase"),
    ("\n0,1.0,2.0\n\n1,1.0,2.0\n\n3,1.0,2.0\n4,inf,2.0\n", "line 7: t must increase"),
    ("0,1.0,2.0\n1,1.0,2.0\n1,nan,2.0\n", "line 4: non-finite cell"),
], ids=["nan-then-non-numeric", "repeated-t-then-non-numeric", "inf-then-ragged",
        "step-then-non-finite", "step-then-inf-t", "blank-lines-then-step-then-inf",
        "repeated-t-with-nan-on-its-line"])
def test_load_names_the_first_bad_line_across_error_kinds(tmp_path, rows, message):
    """A ragged or non-numeric line stops the scan, but a non-finite cell or
    a broken t step on an earlier line is the error reported, whichever of
    the two comes first; on one line a non-finite cell wins over its step."""
    path = tmp_path / "bad.csv"
    path.write_text("t,vm_1,va_1\n" + rows)
    with pytest.raises(DataFormatError, match=message):
        load_series(path)


# one CSV line of each kind for a t,vm_1,va_1 file; {t} is the next uniform t
CSV_LINES = {
    "ok": "{t},1.0,2.0", "blank": "", "ragged": "{t},1.0", "oops": "{t},oops,2.0",
    "separator": "{t},1_0,2.0", "nan-cell": "{t},nan,2.0", "-inf-cell": "{t},1.0,-inf",
    "inf-t": "inf,1.0,2.0", "repeat": "{prev},1.0,2.0", "jump": "{jump},1.0,2.0",
    "huge-t": "1.7e308,1.0,2.0", "-huge-t": "-1.7e308,1.0,2.0",
    "max-t": "1.7976931348623157e308,1.0,2.0",
}


@given(st.lists(st.sampled_from(sorted(CSV_LINES)), min_size=1, max_size=10))
@settings(max_examples=300, deadline=None)
def test_load_names_the_oracles_first_bad_line(tmp_path_factory, kinds):
    """load_series returns the table when the line-by-line oracle finds no
    bad line, and otherwise names the oracle's line and kind; no line of
    any kind, an overflowing t step included, prints a warning."""
    rows, t = [], 0
    for kind in kinds:
        rows.append(CSV_LINES[kind].format(t=t, prev=t - 1, jump=t + 5))
        t += kind != "blank"
    path = tmp_path_factory.getbasetemp() / "property.csv"
    path.write_text("t,vm_1,va_1\n" + "\n".join(rows) + "\n")
    expected = first_bad_line(rows, n_cols=3)
    if expected is None:
        values = [[float(c) for c in row.split(",")[1:]] for row in rows if row]
        assert load_series(path).values.tolist() == values
    else:
        with pytest.raises(DataFormatError, match="^line {}: {}".format(*expected)):
            load_series(path)


@pytest.mark.parametrize("error", [KeyboardInterrupt, MemoryError])
def test_load_lets_an_exception_that_is_not_a_data_error_pass(tmp_path, error):
    """The scan catches nothing but a cell's ValueError: a Ctrl-C or a
    MemoryError while line 4 is parsed is not turned into line 3's
    non-finite cell (exit 1)."""
    path = tmp_path / "bad.csv"
    path.write_text("t,vm_1,va_1\n0,1.0,2.0\n1,nan,2.0\n2,1.0,2.0\n")

    def interrupted_float(cell):
        if cell == "2":  # line 4's t
            raise error
        return float(cell)

    with mock.patch.object(data_pipeline, "float", interrupted_float, create=True):
        with pytest.raises(error):
            load_series(path)


@pytest.mark.parametrize("step", [0.1, 1 / 30])
def test_load_accepts_decimal_steps_at_epoch_offsets(tmp_path, step):
    path = tmp_path / "grid.csv"
    rows = "".join(f"{1.7e9 + k * step!r},1.0,2.0\n" for k in range(50))
    path.write_text("t,vm_1,va_1\n" + rows)
    assert len(load_series(path)) == 50


@pytest.mark.parametrize("ts, line", [("0,0,5", 3), ("0,1,3", 4), ("2,1,0", 3),
                                      ("1.7e9,1700000000.1,1700000000.3", 4),
                                      ("0,1,1.7976931348623157e308", 4)])
def test_load_rejects_irregular_time_column(tmp_path, ts, line):
    """The last case steps to the largest float64, where np.spacing is inf:
    the t slack's ulp stays finite there, and no warning is printed (the
    suite turns warnings into errors)."""
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


@pytest.mark.parametrize("text, message", [
    ("", "line 1: empty file"),
    ("t,vm_1,va_1,vm_2\n0,1.0,2.0,1.0\n", "line 1: header has 4 columns"),
    ("t,va_1,vm_1\n0,1.0,2.0\n", r"line 1: header does not match t,vm_1..vm_1,va_1..va_1"),
    ("t,vm_1,va_1\n\n", "line 2: no data rows"),
], ids=["empty", "odd-column-count", "wrong-names", "no-data-rows"])
def test_load_rejects_malformed_file(tmp_path, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(DataFormatError, match=message):
        load_series(path)


def test_load_skips_blank_rows_between_and_after_data(tmp_path):
    path = tmp_path / "grid.csv"
    path.write_text("t,vm_1,va_1\n0,1.0,2.0\n\n1,1.5,-2.0\n  \n2,0.5,3.25\n\n\n")
    series = load_series(path)
    assert series.values.flags.c_contiguous
    npt.assert_array_equal(series.values, [[1.0, 2.0], [1.5, -2.0], [0.5, 3.25]])


def test_save_series_writes_each_value_as_repr_of_its_float(tmp_path):
    """The CSV's bytes: every cell is repr(float(v)), the shortest string
    that reads back as the same float64, subnormals and signed zeros too."""
    values = np.array([[0.1, -0.0, 1e308, 5e-324], [1 / 3, 1.0, -2.5e-7, 1e16]])
    path = tmp_path / "grid.csv"
    save_series(StateSeries(2, values), path)
    rows = "".join(f"{t}," + ",".join(repr(float(v)) for v in row) + "\n"
                   for t, row in enumerate(values))
    assert path.read_text() == "t,vm_1,vm_2,va_1,va_2\n" + rows
    assert load_series(path).values.tobytes() == values.tobytes()


def test_save_load_round_trip(tmp_path):
    series = generate_synthetic_series(SyntheticConfig(n_buses=4, length=50, seed=3))
    path = tmp_path / "synth.csv"
    save_series(series, path)
    back = load_series(path)
    assert back.n_buses == series.n_buses
    npt.assert_array_equal(back.values, series.values)


def test_load_skips_utf8_byte_order_mark(tmp_path):
    """Spreadsheet exports often begin with a UTF-8 BOM; it is not part of
    the header."""
    plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
    save_series(generate_synthetic_series(SyntheticConfig(n_buses=2, length=100)), plain)
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    expected, back = load_series(plain), load_series(bom)
    assert back.n_buses == expected.n_buses == 2
    assert back.values.tobytes() == expected.values.tobytes()


@pytest.mark.parametrize("mode", ["w", "wb"])
def test_atomic_write_error_leaves_target_and_no_temp_file(tmp_path, mode):
    target = tmp_path / "x.out"
    target.write_text("old\n")
    with pytest.raises(RuntimeError):
        with atomic_write(target, mode) as fh:
            fh.write("new\n" if mode == "w" else b"new\n")
            raise RuntimeError("body failed")
    assert target.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["x.out"]


# ---------------------------------------------------------------------------
# split
# ---------------------------------------------------------------------------

def test_split_reference_counts():
    train, (_, y) = split_windows(make_series(18528, 1), 10, 0.8)
    assert len(train) == 14822
    assert len(y) + 10 == 3706  # the test partition is the r-state prefix plus the targets


def test_split_exact_small():
    train, (_, y) = split_windows(make_series(10, 1), 1, 0.8)
    assert (len(train), len(y) + 1) == (8, 2)


def test_split_is_a_partition():
    series = make_series(25, 2)
    train, (x, y) = split_windows(series, 3, 0.8)
    # the first test window's states, then every target, are the test partition
    npt.assert_array_equal(np.vstack([train.values, x[0].T, y]), series.values)


def test_split_rejects_short_partition():
    # 9/3 leaves both partitions shorter than r + 1 = 11
    with pytest.raises(ValueError, match="shorter than 11"):
        split_windows(make_series(12, 1), 10, 0.8)


def test_split_rejects_bad_fraction():
    with pytest.raises(ValueError, match="train_fraction"):
        split_windows(make_series(10, 1), 1, 1.0)


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


def test_series_rejects_values_of_another_width():
    with pytest.raises(ValueError, match=r"expected \(T, 6\) values, got \(5, 5\)"):
        StateSeries(3, np.zeros((5, 5)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_series_rejects_non_finite_values(bad):
    values = np.ones((5, 2))
    values[3, 1] = bad
    with pytest.raises(ValueError, match="state series contains non-finite values"):
        StateSeries(1, values)


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
    if t < r:
        with pytest.raises(ValueError):
            build_windows(series, r)
    else:
        x, y = build_windows(series, r)
        assert len(x) == len(y) == t - r


@given(st.integers(1, 4), st.integers(1, 12), st.integers(1, 30))
@settings(max_examples=40)
def test_windows_are_read_only_views_equal_to_stacked_copies(n, r, extra):
    series = make_series(r + extra, n, seed=n * 1000 + r * 40 + extra)
    x, y = build_windows(series, r)
    want_x, want_y = oracle_build_windows(series, r)
    assert x.shape == want_x.shape and y.shape == want_y.shape
    assert x.tobytes() == want_x.tobytes() and y.tobytes() == want_y.tobytes()
    for a in (x, y):
        assert np.shares_memory(a, series.values)
        assert not a.flags.writeable
    assert series.values.flags.writeable


def test_rejects_too_short_series():
    """T == r leaves no window; T < r is numpy's ValueError. split_windows
    is the check that rejects a partition shorter than r + 1."""
    x, y = build_windows(make_series(5, 1), 5)
    assert x.shape == (0, 2, 5) and y.shape == (0, 2)
    with pytest.raises(ValueError):
        build_windows(make_series(4, 1), 5)


def test_no_leakage_between_partitions():
    series = make_series(40, 1)
    train, (x, y) = split_windows(series, 5, 0.8)
    test = series.values[len(train):]
    # every test window and target lies inside the test partition
    for i in range(len(x)):
        npt.assert_array_equal(x[i], test[i:i + 5].T)
    npt.assert_array_equal(y, test[5:])


# ---------------------------------------------------------------------------
# normalizer
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("value, t", [(3.0, 10), (1.06, 160), (1.045, 1600), (0.1, 160)])
def test_constant_feature_maps_to_zero(value, t):
    """A constant column z-scores to exactly 0, also where its computed
    mean rounds off the value; a state next to it stays on its scale."""
    values = np.column_stack([np.full(t, value), np.arange(float(t))])
    stats = fit_normalizer(StateSeries(1, values))
    assert stats.mean[0] == value and stats.std[0] == 1.0
    npt.assert_array_equal(stats.apply(values)[:, 0], np.zeros(t))
    assert stats.apply(np.array([value + 1e-3, 0.0]))[0] == pytest.approx(1e-3)


def test_normalizer_round_trip(rng):
    series = make_series(50, 3, seed=9)
    stats = fit_normalizer(series)
    for v in (rng.normal(size=6), rng.normal(size=(10, 6))):  # a state, a batch of states
        npt.assert_allclose(stats.invert(stats.apply(v)), v, rtol=1e-12)


def test_normalized_train_moments():
    series = make_series(500, 2, seed=4)
    stats = fit_normalizer(series)
    z = stats.apply(series.values)
    npt.assert_allclose(z.mean(axis=0), 0.0, atol=1e-9)
    npt.assert_allclose(z.std(axis=0), 1.0, atol=1e-9)


def test_stats_depend_only_on_training_partition():
    series = make_series(50, 2, seed=5)
    train, _ = split_windows(series, 1, 0.8)
    stats1 = fit_normalizer(train)
    altered = StateSeries(2, np.vstack([train.values, np.ones((10, 4)) * 99]))
    train2, _ = split_windows(altered, 1, 0.8)
    stats2 = fit_normalizer(train2)
    npt.assert_array_equal(stats1.mean, stats2.mean)
    npt.assert_array_equal(stats1.std, stats2.std)


@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([-600, 0, 600]))
@settings(max_examples=30, deadline=None)
def test_fit_normalizer_bit_identical_under_power_of_two_scaling(seed, j):
    """mean and std scale exactly with the data by 2**j, and at j = 0 both
    keep numpy's bits; at j = 600 the raw sums and squares would overflow."""
    values = np.random.default_rng(seed).normal(size=(20, 4)) * [1.0, 30.0, 1e-3, 5.0]
    base = fit_normalizer(StateSeries(2, values))
    npt.assert_array_equal(base.mean.view(np.uint64), values.mean(axis=0).view(np.uint64))
    npt.assert_array_equal(base.std.view(np.uint64), values.std(axis=0).view(np.uint64))
    scaled = fit_normalizer(StateSeries(2, np.ldexp(values, j)))
    for got, want in ((scaled.mean, base.mean), (scaled.std, base.std)):
        npt.assert_array_equal(got.view(np.uint64), np.ldexp(want, j).view(np.uint64))


def test_fit_normalizer_of_values_near_the_float64_limit():
    """The sum of ten 1e308 cells overflows float64; the power-of-two scale
    keeps it finite, so the mean is exact and no warning is raised."""
    with np.errstate(all="raise"):
        stats = fit_normalizer(StateSeries(3, np.full((10, 6), 1e308)))
    npt.assert_array_equal(stats.mean, np.full(6, 1e308))
    npt.assert_array_equal(stats.std, np.ones(6))


def test_fit_normalizer_of_a_subnormal_peak():
    """A column whose largest |value| is subnormal gets the finite scale
    2**1021, not 2**1029 = inf: its std is positive and nothing warns."""
    values = np.array([[0.0, 1.0], [1e-310, 2.0]])
    with np.errstate(**NO_FP_WARNINGS):
        stats = fit_normalizer(StateSeries(1, values))
        z = stats.apply(values)
    assert 0.0 < stats.std[0] < 1e-308
    npt.assert_allclose(z, [[-1.0, -1.0], [1.0, 1.0]], rtol=1e-12)  # 1e-310 has 45 bits


def test_fit_normalizer_of_a_constant_subnormal_column():
    with np.errstate(**NO_FP_WARNINGS):
        stats = fit_normalizer(StateSeries(1, [[1e-310, 1.0], [1e-310, 2.0]]))
    assert stats.mean[0] == 1e-310 and stats.std[0] == 1.0


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
    # windows enter the model through forecast_batch, which takes (B, 2n, r) only
    model = init_model(ModelConfig(n_buses=2, lag_r=5, conv_filters=2, rnn_hidden=4), 0, stats)
    assert forecast_batch(model, windows).shape == (3, 4)
    with pytest.raises(ValueError, match=r"expected windows of shape \(B, 4, 5\), got \(3, 5, 4\)"):
        forecast_batch(model, windows.transpose(0, 2, 1))


def test_identity_normalizer_is_a_noop(rng):
    stats = identity_normalizer(4)
    x = rng.normal(size=(3, 4))
    npt.assert_array_equal(stats.apply(x), x)


# ---------------------------------------------------------------------------
# synthetic generator
# ---------------------------------------------------------------------------

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
    amp_vm = MAGNITUDE_AMPLITUDE * rng.uniform(0.5, 1.0, n)
    phi = rng.uniform(0.0, 2 * np.pi, n)
    offset = ANGLE_OFFSET_SCALE * rng.uniform(-1.0, 1.0, n)
    amp_va = ANGLE_AMPLITUDE * rng.uniform(0.5, 1.0, n)
    psi = rng.uniform(0.0, 2 * np.pi, n)
    omega = 2 * np.pi / cfg.period
    for t in range(cfg.length):
        for i in range(n):
            vm = BASE_MAGNITUDE + amp_vm[i] * np.sin(omega * t + phi[i])
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
    SyntheticConfig(n_buses=1, length=12)
    with pytest.raises(ValueError, match="length must be >= 12"):
        SyntheticConfig(n_buses=1, length=11)
    with pytest.raises(ValueError):
        SyntheticConfig(n_buses=0, length=12)
    with pytest.raises(ValueError):
        SyntheticConfig(n_buses=2, length=12, period=1)
    with pytest.raises(ValueError):
        SyntheticConfig(n_buses=2, length=12, noise_std_magnitude=-1.0)
