import math
import re
import warnings
from datetime import date

import numpy as np
import pytest

from hstconformal import (
    CountPanel,
    DataValidationError,
    NetworkTopology,
    PreconditionError,
    SplitSpec,
    generate_synthetic,
    ingest_events,
    make_bin_grid,
    split,
    write_events,
)


def _topo2():
    return NetworkTopology.from_assignments(["ca", "cb"], ["s0", "s0"])


# -- bin grids and panel basics ------------------------------------------------

def test_bin_grid_six_month_steps():
    grid = make_bin_grid("2020-01-01", 4, "6M")
    assert grid == (
        date(2020, 1, 1),
        date(2020, 7, 1),
        date(2021, 1, 1),
        date(2021, 7, 1),
    )


def test_bin_grid_rejects_mid_month_start():
    with pytest.raises(DataValidationError):
        make_bin_grid("2020-01-15", 3, "6M")


def test_panel_rejects_negative_and_fractional_counts():
    grid = make_bin_grid("2020-01-01", 2, "6M")
    with pytest.raises(DataValidationError):
        CountPanel(Y=np.array([[1], [-1]]), bin_start_times=grid)
    with pytest.raises(DataValidationError):
        CountPanel(Y=np.array([[0.5], [1.0]]), bin_start_times=grid)


def test_panel_rejects_off_grid_times():
    with pytest.raises(DataValidationError):
        CountPanel(
            Y=np.zeros((2, 1), dtype=int),
            bin_start_times=("2020-01-01", "2020-04-01"),
            bin_length="6M",
        )


def test_panel_row_views_and_labels():
    grid = make_bin_grid("2020-01-01", 5, "3M")
    Y = np.arange(10).reshape(5, 2)
    panel = CountPanel(Y=Y, bin_start_times=grid, bin_length="3M",
                       circuit_ids=("a", "b"))
    mid = panel.rows(1, 4)
    assert mid.T == 3
    assert np.array_equal(mid.Y, Y[1:4])
    assert mid.bin_start_times == grid[1:4]
    assert mid.circuit_ids == ("a", "b")
    with pytest.raises(PreconditionError):
        panel.rows(2, 7)


def test_panel_json_round_trip(tmp_path):
    panel, _, _ = generate_synthetic(3, 2, 6, seed=1)
    path = tmp_path / "panel.json"
    panel.save(path)
    back = CountPanel.load(path)
    assert np.array_equal(back.Y, panel.Y)
    assert back.bin_start_times == panel.bin_start_times
    assert back.circuit_ids == panel.circuit_ids
    assert back.bin_length == panel.bin_length


# -- splitting -----------------------------------------------------------------

def test_split_hand_example():
    # T=10 with first calibration bin 6 and 2 held-out bins: 5/3/2
    grid = make_bin_grid("2020-01-01", 10, "6M")
    panel = CountPanel(Y=np.arange(10)[:, None], bin_start_times=grid)
    train, cal, test = split(panel, SplitSpec(t0=6, test=2))
    assert (train.T, cal.T, test.T) == (5, 3, 2)
    assert train.Y[:, 0].tolist() == [0, 1, 2, 3, 4]
    assert cal.Y[:, 0].tolist() == [5, 6, 7]
    assert test.Y[:, 0].tolist() == [8, 9]


def test_split_partition_restores_panel():
    rng = np.random.default_rng(6)
    for _ in range(20):
        T = int(rng.integers(4, 30))
        n = int(rng.integers(1, 5))
        grid = make_bin_grid("2019-01-01", T, "1M")
        panel = CountPanel(Y=rng.integers(0, 5, (T, n)), bin_start_times=grid,
                           bin_length="1M")
        test_len = int(rng.integers(0, T - 2))
        t0 = int(rng.integers(2, T - test_len + 1))
        tr, ca, te = split(panel, SplitSpec(t0=t0, test=test_len))
        assert tr.T == t0 - 1
        assert te.T == test_len
        stacked = np.vstack([tr.Y, ca.Y, te.Y])
        assert np.array_equal(stacked, panel.Y)
        assert tr.bin_start_times + ca.bin_start_times + te.bin_start_times \
            == panel.bin_start_times


def test_split_rejects_degenerate_cuts():
    grid = make_bin_grid("2020-01-01", 6, "6M")
    panel = CountPanel(Y=np.zeros((6, 1), dtype=int), bin_start_times=grid)
    with pytest.raises(PreconditionError):
        split(panel, SplitSpec(t0=1))  # no training bins
    with pytest.raises(PreconditionError):
        split(panel, SplitSpec(t0=6))  # no calibration bins
    with pytest.raises(PreconditionError):
        split(panel, SplitSpec(t0=4, test=3))  # test bites into calibration
    with pytest.raises(PreconditionError):
        split(panel, SplitSpec(t0=4, test=-1))


# -- event ingestion -------------------------------------------------------------

def test_ingest_header_only_file_gives_zero_panel(tmp_path):
    p = tmp_path / "events.csv"
    p.write_text("circuit_id,timestamp\n")
    panel = ingest_events(p, _topo2(), start="2020-01-01", end="2021-01-01")
    assert panel.T == 2
    assert panel.Y.sum() == 0


def test_ingest_accumulates_events_in_one_cell(tmp_path):
    p = tmp_path / "events.csv"
    p.write_text(
        "circuit_id,timestamp\n"
        "ca,2020-02-10\n"
        "ca,2020-03-01T12:30:00\n"
        "ca,2020-06-30\n"
    )
    panel = ingest_events(p, _topo2(), start="2020-01-01", end="2020-07-01")
    assert panel.T == 1
    assert panel.Y[0].tolist() == [3, 0]


def test_ingest_bin_boundary_goes_to_later_bin(tmp_path):
    p = tmp_path / "events.csv"
    p.write_text("circuit_id,timestamp\nca,2020-07-01T00:00:00\n")
    panel = ingest_events(p, _topo2(), start="2020-01-01", end="2021-01-01")
    assert panel.Y[:, 0].tolist() == [0, 1]


def test_ingest_drops_out_of_range_with_warning(tmp_path):
    p = tmp_path / "events.csv"
    p.write_text(
        "circuit_id,timestamp\n"
        "ca,2019-12-31\n"
        "cb,2020-03-03\n"
        "ca,2021-01-01\n"
    )
    with pytest.warns(UserWarning, match="dropped 2"):
        panel = ingest_events(p, _topo2(), start="2020-01-01", end="2021-01-01")
    assert panel.Y.sum() == 1


def test_ingest_conserves_in_range_totals(tmp_path):
    rng = np.random.default_rng(14)
    topo = _topo2()
    lines = ["circuit_id,timestamp"]
    in_range = 0
    for _ in range(300):
        cid = topo.circuit_ids[int(rng.integers(0, 2))]
        year = int(rng.integers(2019, 2023))
        month = int(rng.integers(1, 13))
        day = int(rng.integers(1, 28))
        stamp = f"{year:04d}-{month:02d}-{day:02d}"
        if date(2020, 1, 1) <= date(year, month, day) < date(2022, 1, 1):
            in_range += 1
        lines.append(f"{cid},{stamp}")
    p = tmp_path / "events.csv"
    p.write_text("\n".join(lines) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        panel = ingest_events(p, topo, start="2020-01-01", end="2022-01-01")
    assert int(panel.Y.sum()) == in_range


def test_ingest_unknown_circuit_is_an_error(tmp_path):
    p = tmp_path / "events.csv"
    p.write_text("circuit_id,timestamp\nzz,2020-02-02\n")
    with pytest.raises(DataValidationError, match="zz"):
        ingest_events(p, _topo2(), start="2020-01-01", end="2021-01-01")


def test_ingest_reports_line_of_bad_timestamp(tmp_path):
    p = tmp_path / "events.csv"
    p.write_text("circuit_id,timestamp\nca,2020-02-02\nca,not-a-date\n")
    with pytest.raises(DataValidationError, match=":3"):
        ingest_events(p, _topo2(), start="2020-01-01", end="2021-01-01")


def test_ingest_requires_whole_bins_and_explicit_range(tmp_path):
    p = tmp_path / "events.csv"
    p.write_text("circuit_id,timestamp\n")
    with pytest.raises(PreconditionError):
        ingest_events(p, _topo2())
    with pytest.raises(DataValidationError):
        ingest_events(p, _topo2(), start="2020-01-01", end="2020-06-01")


# the two CSV inputs: header, two good rows, reader, and what it reads from them
_CSV_INPUTS = {
    "topology": ("circuit_id,substation_id", ["ca,s0", "cb,s1"],
                 lambda p: NetworkTopology.from_csv(p).circuit_ids, ("ca", "cb")),
    "events": ("circuit_id,timestamp", ["ca,2020-02-02", "cb,2020-08-01"],
               lambda p: ingest_events(p, _topo2(), start="2020-01-01",
                                       end="2021-01-01").Y.tolist(), [[1, 0], [0, 1]]),
}


@pytest.mark.parametrize("what", sorted(_CSV_INPUTS))
def test_csv_inputs_share_one_reader(tmp_path, what):
    header, (row1, row2), read, expected = _CSV_INPUTS[what]
    p = tmp_path / f"{what}.csv"
    for text, message in (
        ("", f"{p}: empty {what} file"),
        (f"circuit,other\n{row1}\n", f"{p}: expected header {header}, got ['circuit', 'other']"),
        (f"{header}\n{row1}\n{row2}\nca,x,y\n", f"{p}:4: expected 2 columns"),
    ):
        p.write_text(text)
        with pytest.raises(DataValidationError, match=f"^{re.escape(message)}$"):
            read(p)
    # empty, whitespace-only and all-blank rows are skipped, and cells are stripped
    p.write_text(f" {header.replace(',', ' , ')} \n\n  \n{row1}\n , \n\t{row2} \n\n")
    assert read(p) == expected


def test_event_round_trip_is_exact(tmp_path):
    panel, _, _ = generate_synthetic(4, 2, 6, seed=9)
    topo = NetworkTopology.from_assignments(
        list(panel.circuit_ids), ["s0", "s0", "s1", "s1"]
    )
    path = tmp_path / "events.csv"
    write_events(panel, path)
    end = "2023-01-01"  # 6 bins of 6M from 2020-01-01
    back = ingest_events(path, topo, start="2020-01-01", end=end)
    assert np.array_equal(back.Y, panel.Y)
    assert back.bin_start_times == panel.bin_start_times


# -- covariates (the model has none) ---------------------------------------------

def test_panel_json_rejects_covariates():
    panel, _, _ = generate_synthetic(3, 1, 4, seed=1)
    doc = panel.to_dict()
    assert "covariates" not in doc
    back = CountPanel.from_dict(dict(doc, covariates=None))
    assert np.array_equal(back.Y, panel.Y)
    with pytest.raises(DataValidationError, match="covariates"):
        CountPanel.from_dict(dict(doc, covariates=[[[1.5]] * 3] * 4))


# -- synthetic generation ----------------------------------------------------------

def test_synthetic_is_deterministic_and_nontrivial():
    a_panel, a_topo, a_truth = generate_synthetic(6, 3, 30, seed=5)
    b_panel, b_topo, b_truth = generate_synthetic(6, 3, 30, seed=5)
    assert np.array_equal(a_panel.Y, b_panel.Y)
    assert a_topo.circuit_ids == b_topo.circuit_ids
    assert np.array_equal(a_topo.C, b_topo.C)
    assert np.array_equal(a_truth.mu, b_truth.mu)
    assert a_panel.Y.sum() > 0
    c_panel, _, _ = generate_synthetic(6, 3, 30, seed=6)
    assert not np.array_equal(a_panel.Y, c_panel.Y)


def test_synthetic_shapes_and_topology_cover_all_substations():
    panel, topo, truth = generate_synthetic(9, 4, 12, seed=0)
    assert panel.Y.shape == (12, 9)
    assert topo.C.shape == (9, 4)
    assert all(len(g) >= 1 for g in topo.members)
    assert truth.circuit_ids == topo.circuit_ids
    assert panel.circuit_ids == topo.circuit_ids


def test_synthetic_respects_cap():
    panel, _, truth = generate_synthetic(5, 2, 40, seed=3, cap=50.0)
    per_bin = panel.Y.sum(axis=1)
    cum = per_bin.cumsum()
    over = np.nonzero(cum >= 50)[0]
    assert math.isclose(truth.sat.cap, 50.0)
    if over.size:
        first = over[0]
        assert cum[-1] <= 50 + per_bin[first]
        assert np.all(per_bin[first + 1:] == 0)


def test_synthetic_with_supplied_truth():
    from hstconformal import HawkesModel

    truth = HawkesModel(mu=np.full(3, 0.7), A=np.zeros((3, 3)), beta=1.0)
    panel, topo, used = generate_synthetic(3, 2, 50, model=truth, seed=7)
    assert np.array_equal(used.mu, truth.mu)
    assert used.circuit_ids == topo.circuit_ids
    assert abs(panel.Y.mean() - 0.7) < 0.15
    with pytest.raises(PreconditionError):
        generate_synthetic(4, 2, 10, model=truth)
    # the supplied model's own cap applies, so a finite cap would do nothing
    with pytest.raises(PreconditionError, match="cap=50.0"):
        generate_synthetic(3, 2, 50, model=truth, cap=50.0)


def test_synthetic_argument_validation():
    with pytest.raises(PreconditionError):
        generate_synthetic(2, 3, 10)
    with pytest.raises(PreconditionError):
        generate_synthetic(3, 0, 10)
    with pytest.raises(PreconditionError):
        generate_synthetic(3, 2, 1)
