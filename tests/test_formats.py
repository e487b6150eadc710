"""Round-trip guarantees of the table and record formats."""

import math

import numpy as np
import pytest

from nedmsim.comagnetometer import CampaignConfig, run_campaign
from nedmsim.formats import (
    CYCLES_HEADER,
    FLIPS_HEADER,
    atomic_write_text,
    atomic_write_texts,
    column_rows,
    cycles_to_rows,
    format_number,
    parse_csv,
    parse_number,
    render_csv,
    render_json,
    rows_to_cycles,
)
from nedmsim.inference import FlipDataset


def assert_same_table(a, b) -> None:
    """Column by column: the same values (nan equal to nan) and dtypes."""
    for x, y in zip(a, b, strict=True):
        np.testing.assert_array_equal(x, y, strict=True)


def test_format_number_round_trip():
    values = [0, 1, -3, 10**12, 0.0, 1.5, 1e-26, 1e13, math.pi, -2.5e-300, float("nan")]
    for v in values:
        text = format_number(v)
        back = parse_number(text)
        if isinstance(v, float) and math.isnan(v):
            assert isinstance(back, float) and math.isnan(back)
        else:
            assert back == v
            assert type(back) is type(v)
        # idempotent text
        assert format_number(back) == text


def test_format_number_rejects_bool():
    with pytest.raises(TypeError):
        format_number(True)


def test_csv_byte_round_trip():
    header = ("a", "b", "c")
    rows = [[1, 2.5, "tag"], [0, 1e-26, "x"], [7, 123.0, "y"]]
    text = render_csv(header, rows)
    parsed = parse_csv(text, header)
    assert render_csv(header, parsed) == text


def test_render_csv_cell_types():
    header = ("a", "b", "c")
    with pytest.raises(TypeError):
        render_csv(header, [[1, True, "tag"]])
    numpy_cells = [np.float64(0.1), np.int64(-7), np.float64(1e-26), np.int64(2**62)]
    assert render_csv(("a", "b", "c", "d"), [numpy_cells]) == (
        "a,b,c,d\n" + ",".join(format_number(c) for c in numpy_cells) + "\n"
    )
    assert render_csv(header, [["quantum", "1.5", ""]]) == "a,b,c\nquantum,1.5,\n"
    assert render_csv(header, []) == "a,b,c\n"


def test_csv_header_mismatch_rejected():
    with pytest.raises(ValueError, match="header"):
        parse_csv("a,b\n1,2\n", ("a", "c"))


@pytest.mark.parametrize(
    "text, header",
    [
        ("xi,trials,flips\n1e21,100,3\n1e20,100\n", FLIPS_HEADER),
        (",".join(CYCLES_HEADER) + "\n0,1,5,5,1.0,2.0,0.5,9\n", CYCLES_HEADER),
    ],
)
def test_csv_row_length_mismatch_rejected(text, header):
    bad_line = text.count("\n")
    with pytest.raises(ValueError, match=f"CSV line {bad_line} has"):
        parse_csv(text, header)


def test_cycles_round_trip_bytes():
    config = CampaignConfig(true_dn=5e-21, cycles=4, seed=9)
    table = run_campaign(config)
    text = render_csv(CYCLES_HEADER, cycles_to_rows(table))
    parsed = rows_to_cycles(parse_csv(text, CYCLES_HEADER))
    assert_same_table(parsed, table)
    assert render_csv(CYCLES_HEADER, cycles_to_rows(parsed)) == text


def test_expected_mode_counts_round_trip_as_floats():
    config = CampaignConfig(true_dn=5e-21, cycles=2, seed=9, counting_mode="expected")
    table = run_campaign(config)
    text = render_csv(CYCLES_HEADER, cycles_to_rows(table))
    assert_same_table(rows_to_cycles(parse_csv(text, CYCLES_HEADER)), table)
    assert table.n_up.dtype == table.n_down.dtype == np.float64


@pytest.mark.parametrize("column", ["n_up", "n_down", "f_n", "f_hg", "R"])
def test_rows_to_cycles_refuses_an_integer_beyond_the_double_range(column):
    # a float64 column (expected-mode counts, frequencies, ratios) refuses
    # it with a ValueError naming the column, never an OverflowError
    config = CampaignConfig(true_dn=5e-21, cycles=2, seed=9, counting_mode="expected")
    rows = [list(row) for row in cycles_to_rows(run_campaign(config))]
    rows[1][CYCLES_HEADER.index(column)] = 10**400
    with pytest.raises(ValueError, match=f"^{column} must lie in the double range$"):
        rows_to_cycles(rows)


def test_flip_dataset_round_trip():
    ds = FlipDataset([1e20, 1e21], [1000, 2000], [3, 0])
    text = render_csv(FLIPS_HEADER, column_rows((ds.xi, ds.trials, ds.flips)))
    back = FlipDataset(*zip(*parse_csv(text, FLIPS_HEADER)))
    assert np.array_equal(back.xi, ds.xi)
    assert np.array_equal(back.trials, ds.trials)
    assert np.array_equal(back.flips, ds.flips)
    assert render_csv(FLIPS_HEADER, column_rows((back.xi, back.trials, back.flips))) == text


def test_render_json_deterministic():
    obj = {"b": 1.5, "a": [1, 2], "c": {"y": 1e-26, "x": None}}
    assert render_json(obj) == render_json(dict(reversed(obj.items())))
    assert render_json(obj).endswith("\n")


def test_atomic_write(tmp_path):
    path = tmp_path / "out.csv"
    atomic_write_text(str(path), "hello\n")
    assert path.read_text() == "hello\n"
    # no temporary droppings left behind
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_atomic_write_that_fails_leaves_no_file(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr("nedmsim.formats.os.replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        atomic_write_text(str(tmp_path / "out.csv"), "hello\n")
    # neither the target nor the .nedmsim-*.tmp sibling it was written to
    assert list(tmp_path.iterdir()) == []

    def pieces():
        yield "hello\n"
        raise ValueError("second piece refused")

    monkeypatch.undo()
    with pytest.raises(ValueError, match="second piece refused"):
        atomic_write_text(str(tmp_path / "out.csv"), pieces())
    assert list(tmp_path.iterdir()) == []


def test_atomic_writes_rename_nothing_until_all_are_written(tmp_path, monkeypatch):
    # the second file's directory is missing: the first is never renamed
    texts = {str(tmp_path / "a.csv"): "a\n", str(tmp_path / "nope" / "b.json"): "b\n"}
    with pytest.raises(FileNotFoundError):
        atomic_write_texts(texts)
    assert list(tmp_path.iterdir()) == []

    # the second rename fails: the first file, already in place, is removed
    (tmp_path / "b.json").mkdir()
    texts = {str(tmp_path / "a.csv"): "a\n", str(tmp_path / "b.json"): "b\n"}
    with pytest.raises(IsADirectoryError):
        atomic_write_texts(texts)
    assert [p.name for p in tmp_path.iterdir()] == ["b.json"]
    assert list((tmp_path / "b.json").iterdir()) == []

    atomic_write_texts({str(tmp_path / "a.csv"): "a\n", str(tmp_path / "c.csv"): ["c", "\n"]})
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "b.json", "c.csv"]
    assert (tmp_path / "c.csv").read_text() == "c\n"
