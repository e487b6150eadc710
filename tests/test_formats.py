"""Round-trip guarantees of the table and record formats."""

import math
import sys

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


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="Python converts integral text of any length before 3.10.7")
def test_parse_number_refuses_integer_text_beyond_the_digit_limit():
    # int() refuses such text and float() would read it as inf, a value the
    # text does not hold
    limit = sys.get_int_max_str_digits()
    assert parse_number("9" * limit) == 10**limit - 1
    for text in ("1" + "0" * limit, "-" + "7" * (limit + 1), " 1_" + "0" * limit + " "):
        with pytest.raises(OverflowError, match=f"^an integer of {limit + 1} digits, more "):
            parse_number(text)
    # float text of as many digits reads as before, within the double range
    assert parse_number("1" + "0" * limit + ".5e-4400") == 1e-100
    assert parse_number("0." + "0" * limit + "1") == 0.0
    # the least limit Python can be set to
    sys.set_int_max_str_digits(640)
    try:
        assert parse_number("1" * 640) == int("1" * 640)
        with pytest.raises(OverflowError, match="^an integer of 641 digits, more "):
            parse_number("1" * 641)
    finally:
        sys.set_int_max_str_digits(limit)


def test_parse_number_reads_floats_where_python_has_no_digit_limit(monkeypatch):
    # interpreters before 3.10.7 lack sys.get_int_max_str_digits
    monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
    assert parse_number("1e+21") == 1e21
    assert parse_number("-0.5") == -0.5
    assert parse_csv("xi,trials,flips\n1e+21,100,3\n", FLIPS_HEADER) == [[1e21, 100, 3]]


def test_parse_number_refuses_float_text_beyond_the_double_range():
    # float() reads such text as inf; the message quotes it as written
    for text in ("1e400", "-1e400", " 2.5e308", "1" + "0" * 400 + ".5"):
        with pytest.raises(OverflowError, match="a number beyond the double range$") as error:
            parse_number(text)
        assert str(error.value).startswith(repr(text))
    # the spellings of inf and nan, and underflow, read as float() reads them
    for text in ("inf", "-inf", "+Infinity", " INF "):
        assert parse_number(text) == float(text)
    assert math.isnan(parse_number("nan"))
    assert parse_number("1e-400") == 0.0


def test_parse_csv_refuses_text_only_where_every_cell_is_a_number():
    with pytest.raises(ValueError, match="^CSV line 3: flips holds ' x', not a number$"):
        parse_csv("xi,trials,flips\n1e21,100,3\n1e20,100, x\n", FLIPS_HEADER)
    with pytest.raises(ValueError, match="^CSV line 2: R holds 'abc', not a number$"):
        parse_csv(",".join(CYCLES_HEADER) + "\n0,1,5,5,1.0,2.0,abc\n", CYCLES_HEADER)
    with pytest.raises(ValueError, match="^CSV line 2: a holds '1e999', a number beyond "):
        parse_csv("a,b\n1e999,tag\n", ("a", "b"))
    assert parse_csv("a,b\n1,tag\n", ("a", "b")) == [[1, "tag"]]


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
