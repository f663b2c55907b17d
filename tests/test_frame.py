"""Ingestion, design probabilities, and empirical rates."""

import csv
import importlib.util
import io
import itertools
import pathlib
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pibgen.frame
from pibgen.errors import (
    BadIndicator,
    ConfigError,
    DataError,
    DuplicateColumn,
    DuplicateId,
    EmptyArm,
    EmptySample,
    MissingColumn,
    MissingCovariate,
    MissingOutcome,
    NonFiniteValue,
    NotUtf8,
    OutcomeOutOfSupport,
)
from pibgen.frame import (
    BINARY,
    ColumnMap,
    DesignProbs,
    OutcomeSupport,
    StudyFrame,
    convert,
    design_probs,
    empirical_rates,
    load_frame,
    load_two_frames,
    tallies,
)

from conftest import CONTINUOUS, make_frame

CSV3 = """id,in_sample,treatment,outcome
a,1,1,1
b,1,0,0
c,0,,
"""


class TestLoadFrame:
    def test_minimal_three_row_frame(self):
        frame = load_frame(io.StringIO(CSV3), BINARY)
        assert frame.n_units == 3
        assert frame.n_sample == 2
        assert frame.w[0] == 1 and frame.y[0] == 1.0
        assert frame.z[2] == 0 and np.isnan(frame.y[2])

    def test_row_order_preserved(self):
        frame = load_frame(io.StringIO(CSV3), BINARY)
        assert frame.ids.tolist() == ["a", "b", "c"]

    def test_outcome_out_of_support(self):
        bad = CSV3.replace("a,1,1,1", "a,1,1,1.5")
        with pytest.raises(OutcomeOutOfSupport) as err:
            load_frame(io.StringIO(bad), BINARY)
        assert err.value.row == 1

    def test_bad_indicator(self):
        bad = CSV3.replace("b,1,0,0", "b,2,0,0")
        with pytest.raises(BadIndicator):
            load_frame(io.StringIO(bad), BINARY)

    def test_sampled_row_missing_treatment(self):
        bad = CSV3.replace("b,1,0,0", "b,1,,0")
        with pytest.raises(BadIndicator):
            load_frame(io.StringIO(bad), BINARY)

    def test_sampled_row_missing_outcome(self):
        bad = CSV3.replace("b,1,0,0", "b,1,0,")
        with pytest.raises(MissingOutcome):
            load_frame(io.StringIO(bad), BINARY)

    def test_missing_sample_column(self):
        with pytest.raises(MissingColumn):
            load_frame(io.StringIO("id,treatment,outcome\na,1,1\n"), BINARY)

    def test_missing_covariate_value(self):
        text = "id,in_sample,treatment,outcome,x1\na,1,1,1,0.5\nb,1,0,0,\n"
        with pytest.raises(MissingCovariate) as err:
            load_frame(io.StringIO(text), BINARY)
        assert err.value.row == 2

    def test_unmapped_columns_become_covariates(self):
        text = "id,in_sample,treatment,outcome,x1,x2\na,1,1,1,0.5,2\nb,1,0,0,1.5,3\n"
        frame = load_frame(io.StringIO(text), BINARY)
        assert frame.covariate_names == ("x1", "x2")
        assert frame.X[0].tolist() == [0.5, 2.0]

    def test_a_declared_covariate_may_be_a_role_column(self):
        text = "id,in_sample,treatment,outcome,x1\na,1,1,1,0.5\nb,1,0,0,1.5\nc,0,,0,2\n"
        frame = load_frame(io.StringIO(text), BINARY, ColumnMap(covariates=("x1", "in_sample")))
        assert frame.X.tolist() == [[0.5, 1.0], [1.5, 1.0], [2.0, 0.0]]
        assert frame.z.tolist() == [1, 1, 0]

    def test_column_remapping(self):
        text = "school,selected,arm,passed\na,1,1,1\nb,1,0,0\n"
        columns = ColumnMap(id="school", in_sample="selected", treatment="arm",
                            outcome="passed")
        frame = load_frame(io.StringIO(text), BINARY, columns)
        assert frame.n_sample == 2

    def test_auto_ids_without_id_column(self):
        text = "in_sample,treatment,outcome\n1,1,1\n1,0,0\n"
        frame = load_frame(io.StringIO(text), BINARY)
        assert frame.ids.tolist() == ["row1", "row2"]

    def test_duplicate_ids_rejected(self):
        text = "id,in_sample,treatment,outcome\na,1,1,1\na,1,0,0\n"
        with pytest.raises(DuplicateId):
            load_frame(io.StringIO(text), BINARY)

    def test_stream_source(self):
        frame = load_frame(io.StringIO(CSV3), BINARY)
        assert frame.n_units == 3

    def test_a_path_object_loads_the_frame_its_str_loads(self, statewide_path):
        by_str = load_frame(statewide_path, BINARY)
        assert_same_frame(load_frame(pathlib.Path(statewide_path), BINARY), by_str)

    def test_a_str_is_a_path_whatever_it_holds(self, tmp_path):
        path = tmp_path / "odd\nname.csv"
        path.write_text(CSV3)
        assert load_frame(str(path), BINARY).ids.tolist() == ["a", "b", "c"]
        with pytest.raises(FileNotFoundError):  # CSV text is read through io.StringIO
            load_frame(CSV3, BINARY)

    def test_leading_bom_of_a_file_is_stripped(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_text("\ufeff" + CSV3, encoding="utf-8")
        frame = load_frame(path, BINARY)
        assert frame.ids.tolist() == ["a", "b", "c"]
        assert frame.covariate_names == ()
        with open(path, encoding="utf-8", newline="") as stream:
            assert_same_frame(load_frame(stream, BINARY), frame)

    def test_a_source_that_is_not_text_is_a_config_error(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(CSV3)
        message = "^a data source is a path or an open text stream, got bytes$"
        with pytest.raises(ConfigError, match=message):
            load_frame(CSV3.encode(), BINARY)
        with open(path, "rb") as stream, pytest.raises(ConfigError, match=message):
            load_frame(stream, BINARY)

    def test_a_file_that_is_not_utf8_is_a_data_error(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(CSV3.replace("a,1,1,1", "caf\xe9,1,1,1").encode("latin-1"))
        message = f"data file {str(path)!r} is not UTF-8 text: invalid continuation byte"
        for source in (str(path), path):
            with pytest.raises(NotUtf8, match=f"^{re.escape(message)}$"):
                load_frame(source, BINARY)
        stream = io.TextIOWrapper(io.BytesIO(path.read_bytes()), encoding="utf-8")
        with pytest.raises(NotUtf8, match="^CSV data is not UTF-8 text: invalid continuation"):
            load_frame(stream, BINARY)  # a stream without a file name

    def test_statewide_shaped_file(self, statewide_path):
        frame = load_frame(statewide_path, BINARY)
        assert frame.n_units == 1029
        assert frame.n_sample == 56
        probs = design_probs(frame, 0.5)
        assert probs.p_z1 == 56 / 1029

    def test_two_file_mode(self):
        sample = "id,treatment,outcome\ns1,1,1\ns2,0,0\n"
        population = "id,outcome\np1,1\np2,\n"
        frame = load_two_frames(io.StringIO(sample), io.StringIO(population), BINARY)
        assert frame.n_units == 4
        assert frame.n_sample == 2
        assert frame.z.tolist() == [1, 1, 0, 0]
        assert frame.y[2] == 1.0 and np.isnan(frame.y[3])

    def test_two_file_mode_covariates_must_match(self):
        sample = "id,treatment,outcome,x1\ns1,1,1,0.2\ns2,0,0,0.4\n"
        population = "id,outcome\np1,1\n"
        with pytest.raises(MissingColumn):
            load_two_frames(io.StringIO(sample), io.StringIO(population), BINARY)

    def test_categorical_one_hot_with_reference_level(self):
        text = (
            "id,in_sample,treatment,outcome,region,size\n"
            "a,1,1,1,north,10\n"
            "b,1,0,0,south,20\n"
            "c,0,,,west,30\n"
            "d,0,,,north,40\n"
        )
        columns = ColumnMap(categorical=(("region", "north"),))
        frame = load_frame(io.StringIO(text), BINARY, columns)
        assert frame.covariate_names == ("region=south", "region=west", "size")
        assert frame.X[0].tolist() == [0.0, 0.0, 10.0]
        assert frame.X[1].tolist() == [1.0, 0.0, 20.0]
        assert frame.X[2].tolist() == [0.0, 1.0, 30.0]

    def test_categorical_levels_shared_across_two_files(self):
        sample = "id,treatment,outcome,region\ns1,1,1,north\ns2,0,0,south\n"
        population = "id,region\np1,west\np2,north\n"
        columns = ColumnMap(categorical=(("region", "north"),))
        frame = load_two_frames(io.StringIO(sample), io.StringIO(population), BINARY, columns)
        assert frame.covariate_names == ("region=south", "region=west")
        assert frame.X[3].tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("two_files", [False, True], ids=["one-file", "two-files"])
    def test_categorical_column_missing_from_the_header_is_an_error(self, two_files):
        columns = ColumnMap(categorical=(("regoin", "north"),))
        with pytest.raises(MissingColumn, match="'regoin'"):
            if two_files:
                load_two_frames(
                    io.StringIO("id,treatment,outcome,region\ns1,1,1,north\ns2,0,0,south\n"),
                    io.StringIO("id,region\np1,west\n"), BINARY, columns)
            else:
                load_frame(io.StringIO("id,in_sample,treatment,outcome,region\na,1,1,1,north\n"
                                       "b,1,0,0,south\nc,0,,,west\n"), BINARY, columns)

    def test_categorical_column_that_is_no_covariate_is_ignored(self):
        text = "id,in_sample,treatment,outcome,region,size\na,1,1,1,north,10\nb,1,0,0,south,20\n"
        columns = ColumnMap(covariates=("size",), categorical=(("region", "north"),))
        assert load_frame(io.StringIO(text), BINARY, columns).covariate_names == ("size",)

    def test_missing_categorical_value_is_error(self):
        text = "id,in_sample,treatment,outcome,region\na,1,1,1,north\nb,1,0,0,\n"
        columns = ColumnMap(categorical=(("region", "north"),))
        with pytest.raises(MissingCovariate):
            load_frame(io.StringIO(text), BINARY, columns)


PLAIN = "id,in_sample,x1,treatment,outcome\na,1,0.5,1,1\nb,1,1.5,0,0\nc,0,2,,\n"


def assert_same_frame(a, b):
    for column in ("ids", "z", "w", "y", "X"):
        np.testing.assert_array_equal(getattr(a, column), getattr(b, column))
    assert a.covariate_names == b.covariate_names


def load_text(tmp_path, text, source):
    """Load CSV text from a file holding it byte for byte, or from a stream
    that splits lines as an opened file does."""
    if source == "stream":
        return load_frame(io.StringIO(text, newline=""), BINARY)
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    return load_frame(path, BINARY)


@pytest.mark.parametrize("source", ["path", "stream"])
class TestCsvText:
    @pytest.mark.parametrize("text", [
        PLAIN.replace("\n", "\r\n"),
        PLAIN.replace("\n", "\r"),
        PLAIN.rstrip("\n"),
        PLAIN.replace("\n", "\n\n"),
        '"id","in_sample",x1,"treatment",outcome' + PLAIN[PLAIN.index("\n"):],
        PLAIN.replace("a,1,0.5,1,1", '"a",1,"0.5","1",1'),
        PLAIN.replace("c,0,2,,", "c,0,2"),
        PLAIN.replace("b,1,1.5,0,0", "b,1,1.5,0,0,extra,cells"),
    ], ids=["crlf", "cr", "no-final-line-end", "blank-lines", "quoted-header", "quoted-cells",
            "short-row", "long-row"])
    def test_a_csv_form_loads_the_plain_frame(self, tmp_path, source, text):
        assert_same_frame(load_text(tmp_path, text, source), load_frame(io.StringIO(PLAIN), BINARY))

    @pytest.mark.parametrize("line_end", ["\n", "\r\n"])
    def test_a_quoted_cell_holds_commas_line_ends_and_quotes(self, tmp_path, source, line_end):
        text = PLAIN.replace("\na,", '\n"x,\ny ""q""",').replace("\n", line_end)
        frame = load_text(tmp_path, text, source)
        assert frame.ids.tolist() == [f'x,{line_end}y "q"', "b", "c"]
        plain = load_frame(io.StringIO(PLAIN), BINARY)
        for column in ("z", "w", "y", "X"):
            np.testing.assert_array_equal(getattr(frame, column), getattr(plain, column))

    @pytest.mark.parametrize("text", ["", "\n" + PLAIN, "\r\n" + PLAIN],
                             ids=["empty", "leading-blank-line", "leading-crlf"])
    def test_a_blank_first_line_is_an_empty_header(self, tmp_path, source, text):
        with pytest.raises(MissingColumn) as err:
            load_text(tmp_path, text, source)
        assert str(err.value) == "required column 'in_sample' not found in header"

    def test_a_whitespace_only_line_is_a_row(self, tmp_path, source):
        with pytest.raises(BadIndicator) as err:
            load_text(tmp_path, PLAIN.replace("\nb,", "\n \nb,"), source)
        assert str(err.value) == "row 2: column 'in_sample' must be 0 or 1, got ''"

    @pytest.mark.parametrize("cell, outcome_error, covariate_error", [
        ("", "sampled unit has no outcome", "covariate 'x1' is missing"),
        ("  ", "sampled unit has no outcome", "covariate 'x1' is missing"),
        ("abc", "outcome 'abc' outside support [0.0, 1.0]", "covariate 'x1' is missing"),
        ("1e400", "outcome inf outside support [0.0, 1.0]",
         "column 'x1' must be a finite number, got '1e400'"),
    ], ids=["blank", "whitespace", "unparseable", "overflow"])
    def test_a_bad_number_cell_gives_its_first_error(self, tmp_path, source, cell,
                                                     outcome_error, covariate_error):
        for text, message in ((PLAIN.replace("b,1,1.5,0,0", f"b,1,1.5,0,{cell}"), outcome_error),
                              (PLAIN.replace("b,1,1.5,", f"b,1,{cell},"), covariate_error)):
            with pytest.raises(DataError) as err:
                load_text(tmp_path, text, source)
            assert str(err.value) == f"row 2: {message}"


CSV_ALPHABET = ["a", "0", "1", ",", '"', "\r", "\n", " ", "\ufeff", "\x00"]


@st.composite
def csv_texts(draw):
    """Any text over a CSV alphabet, or rows of unquoted cells, mostly as wide
    as the first, joined by LF or CRLF."""
    if draw(st.booleans()):
        return draw(st.text(st.sampled_from(CSV_ALPHABET), max_size=60))
    width = draw(st.integers(1, 4))
    cell = st.text(st.sampled_from(["a", "0", " ", "\ufeff", "\x00"]), max_size=3)
    lengths = st.one_of(st.just(width), st.integers(0, width + 1))
    rows = draw(st.lists(lengths.flatmap(lambda k: st.lists(cell, min_size=k, max_size=k)),
                         max_size=6))
    line_end = draw(st.sampled_from(["\n", "\r\n"]))
    return line_end.join(map(",".join, rows)) + draw(st.sampled_from(["", line_end]))


def csv_reference(text):
    """The header, columns and row count ``csv.reader`` gives, blank rows
    dropped and short rows padded."""
    records = list(csv.reader(io.StringIO(text.removeprefix("\ufeff"), newline="")))
    header = records[0] if records else []
    rows = [row + [""] * (len(header) - len(row)) for row in records[1:] if row]
    return header, [[row[j] for row in rows] for j in range(len(header))], len(rows)


def table_columns(table):
    """A table's header, the cells of each header column, and its row count."""
    return table.header, [list(table.cells(name)) for name in table.header], table.n_rows


@settings(max_examples=500, deadline=None)
@given(text=csv_texts())
def test_read_table_reads_what_the_csv_module_reads(tmp_path_factory, text):
    header, columns, n_rows = csv_reference(text)
    repeated = [name for j, name in enumerate(header) if name in header[:j]]
    path = tmp_path_factory.getbasetemp() / "hypothesis.csv"
    path.write_bytes(text.encode("utf-8"))
    for source in (lambda: io.StringIO(text, newline=""), lambda: path):
        if repeated:
            with pytest.raises(DuplicateColumn) as err:
                pibgen.frame._read_table(source())
            assert err.value.name == repeated[0]
            continue
        for csv_only in (True, False):  # every column from csv, or from numpy's reader where it can
            with pytest.MonkeyPatch.context() as patch:
                if csv_only:
                    patch.setattr(np, "loadtxt", refuse)
                table = pibgen.frame._read_table(source())
                table.read(set(header), numeric=())
                patch.setattr(np, "loadtxt", refuse)  # nothing reads the text again
                patch.setattr(pibgen.frame, "_split_csv", refuse)
                assert table_columns(table) == (header, columns, n_rows)


@settings(max_examples=300, deadline=None)
@given(text=st.text(st.sampled_from(["a", ",", "\r", "\n"]), max_size=40), size=st.integers(0, 12))
def test_text_blocks_give_the_lines_of_the_whole_text(text, size):
    blocks = pibgen.frame._blocks(text, size)
    assert list(itertools.chain.from_iterable(blocks)) == list(io.StringIO(text, newline=""))


def test_read_table_reads_a_long_quoted_file_as_the_csv_module_does(tmp_path):
    rows = [f'"u{i}",{i % 2}' + ("" if i == 17_000 else f",{i}") for i in range(20_000)]
    text = "id,z,x\n" + "\n".join(rows) + "\n"
    path = tmp_path / "long.csv"
    path.write_text(text)
    for source in (path, io.StringIO(text, newline="")):
        table = pibgen.frame._read_table(source)
        table.read({"id", "z", "x"}, numeric=())
        assert table_columns(table) == csv_reference(text)


def refuse(*args, **kwargs):
    raise ValueError("refused")


def loaded(load):
    """A frame's columns as bytes, or the class and message of its data error."""
    try:
        frame = load()
    except DataError as exc:
        return type(exc), str(exc)
    return (frame.ids.tolist(), frame.covariate_names, frame.X.shape,
            *(getattr(frame, c).tobytes(order="A") for c in ("z", "w", "y", "X")))


NUMBERS = (["0.5", "2", "-3e2", " 1 ", "1e-320"],
           ["", " ", "nan", "inf", "1e400", "1_0", "\u0663", "0x10", "\x00", "1\x1c"])
FRAME_CELLS = {  # a column's good cells, and its odd ones
    "id": ([None], ["", "a", " a"]),  # None: an id no other row has
    "in_sample": (["0", "1"], ["", " 1", "2", "x"]), "treatment": (["0", "1"], ["", " 1", "2"]),
    "outcome": (["0", "1"], ["", " 0 ", "0.5", "7", "nan"]), "x1": NUMBERS, "x2": NUMBERS,
    "region": (["n", "s"], [" s", ""]), "note": (["a", "", "0x10"], [""]),
}


@st.composite
def frame_texts(draw, required, optional):
    """CSV text whose header holds the ``required`` columns and some
    ``optional`` ones, in any order, and whose rows hold good cells for their
    columns, but for up to three odd ones; some rows are short or long, some
    lines blank or white space, and lines end in LF, CRLF or a lone CR."""
    header = draw(st.permutations(required + draw(st.lists(st.sampled_from(optional),
                                                            unique=True))))
    rows = []
    for k in range(draw(st.integers(0, 5))):
        cells = [draw(st.sampled_from(FRAME_CELLS[name][0])) for name in header]
        rows.append([f"u{k}" if cell is None else cell for cell in cells])
    for _ in range(draw(st.integers(0, 3)) if rows and header else 0):
        row, j = draw(st.sampled_from(rows)), draw(st.integers(0, len(header) - 1))
        row[j] = draw(st.sampled_from(FRAME_CELLS[header[j]][1]))
    lines = [",".join(header)]
    for row in rows:
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", "", " "])))
        if draw(st.integers(0, 5)) == 0:  # a short or long row
            row = (row + ["9"])[:draw(st.integers(0, len(header) + 1))]
        lines.append(",".join(row))
    ends = [draw(st.sampled_from(["\n", "\n", "\r\n", "\r"])) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    return text[:-1] if draw(st.booleans()) else text  # no last line end, or half a CRLF


@settings(max_examples=500, deadline=None)
@given(data=st.data(), two_files=st.booleans(), categorical=st.booleans())
def test_numpy_reader_loads_what_the_csv_module_loads(data, two_files, categorical):
    covariates = data.draw(st.lists(st.sampled_from(["x1", "x2", "region"]), unique=True))
    if two_files:
        texts = (data.draw(frame_texts(["treatment", "outcome", *covariates], ["id", "note"])),
                 data.draw(frame_texts(covariates, ["id", "outcome", "note"])))
    else:
        texts = (data.draw(frame_texts(["in_sample", "treatment", "outcome", *covariates],
                                       ["id", "note"])),)
    # an excluded column must be in the (sample) file's header
    drawn = "note" in texts[0].splitlines()[0].split(",")
    columns = ColumnMap(exclude=("note",) if drawn else (),
                        categorical=(("region", "n"),) if categorical else ())
    load = load_two_frames if two_files else load_frame

    def frame():
        return load(*(io.StringIO(text, newline="") for text in texts), BINARY, columns)

    read = loaded(frame)
    with pytest.MonkeyPatch.context() as patch:  # every file goes to csv
        patch.setattr(np, "loadtxt", refuse)
        assert loaded(frame) == read


@pytest.mark.parametrize("cell", [*NUMBERS[0], *NUMBERS[1], "-nan", "Infinity", "1e-400", "0.1e1",
                                  ".5", "5.", "+1", "1\u2003", "\t1", "1\x0b", "1\x1f", "1\ufeff"])
def test_numpy_reader_reads_a_number_as_float_does(monkeypatch, cell):
    text = PLAIN.replace("b,1,1.5,", f"b,1,{cell},")

    def frame():
        return load_frame(io.StringIO(text), BINARY)

    read = loaded(frame)
    monkeypatch.setattr(np, "loadtxt", refuse)
    assert loaded(frame) == read


def count_calls(monkeypatch, owner, name):
    """The keyword arguments of each call of ``owner.name`` from here on."""
    calls, function = [], getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return function(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_numpy_reader_reads_each_plain_file_once(monkeypatch):
    plain = load_frame(io.StringIO(PLAIN), BINARY)
    calls = count_calls(monkeypatch, np, "loadtxt")
    text = PLAIN.replace("\n", ",note\n", 1)  # rows short of an unused column
    assert_same_frame(load_frame(io.StringIO(text), BINARY, ColumnMap(exclude=("note",))), plain)
    sample = "id,treatment,outcome,x1\ns1,1,1,0.5\ns2,0,0,1.5\n"
    load_two_frames(io.StringIO(sample), io.StringIO("note,x1,id\n,2,p1\n"), BINARY)
    assert [call["usecols"] for call in calls] == [[0, 1, 2, 3, 4], [0, 1, 2, 3], [1, 2]]


@pytest.mark.parametrize("text, reads, error", [
    (PLAIN, (1, 0), None),
    (PLAIN.replace("\nb,1,", "\nb,2,"), (1, 0),
     (BadIndicator, "row 2: column 'in_sample' must be 0 or 1, got '2'")),
    (PLAIN.replace("b,1,1.5,", "b,1,inf,"), (1, 1),
     (NonFiniteValue, "row 2: column 'x1' must be a finite number, got 'inf'")),
    (PLAIN.replace("\na,", '\n"a",'), (0, 1), None),
], ids=["plain", "bad-indicator", "non-finite", "quoted"])
def test_a_file_is_parsed_once(monkeypatch, text, reads, error):
    """``reads``: the calls of numpy's reader and of ``csv``.  A file with a
    number that is not finite goes to ``csv`` too, as its error quotes the cell."""
    plain = loaded(lambda: load_frame(io.StringIO(PLAIN), BINARY))
    calls = count_calls(monkeypatch, np, "loadtxt"), count_calls(monkeypatch, pibgen.frame,
                                                                 "_split_csv")
    assert loaded(lambda: load_frame(io.StringIO(text), BINARY)) == (error or plain)
    assert tuple(map(len, calls)) == reads


@pytest.mark.parametrize("csv_only", [False, True])
def test_a_cell_float_refuses_is_missing_whatever_it_strips_to(monkeypatch, csv_only):
    if csv_only:
        monkeypatch.setattr(np, "loadtxt", refuse)
    for text, message in ((PLAIN.replace("a,1,0.5,", "a,1,0.5\x1c,"), "covariate 'x1' is missing"),
                          (PLAIN.replace("a,1,0.5,1,1", "a,1,0.5,1,0.5\x1c"),
                           "outcome '0.5' outside support [0.0, 1.0]")):
        with pytest.raises(DataError) as err:
            load_frame(io.StringIO(text), BINARY)
        assert str(err.value) == f"row 1: {message}"


LONG_ID = "u" * 140_000  # over csv.field_size_limit(), 131,072 by default


@pytest.mark.parametrize("rows", [[f"{LONG_ID},1,,1,1", "b,1,1.5,0,0"],
                                  ["a,1,,1,1", f"{LONG_ID},1,1.5,0,0"]],
                         ids=["same-row", "next-row"])
def test_a_long_unquoted_cell_does_not_hide_a_row_error(rows):
    text = "id,in_sample,x,treatment,outcome\n" + "\n".join(rows) + "\n"
    with pytest.raises(MissingCovariate) as err:
        load_frame(io.StringIO(text), BINARY)
    assert str(err.value) == "row 1: covariate 'x' is missing"


@pytest.mark.parametrize("limit", [None, 1_000, 1 << 20], ids=["default", "lower", "higher"])
def test_a_load_leaves_the_csv_field_size_limit_as_it_was(limit):
    default = csv.field_size_limit()
    try:
        if limit is not None:
            csv.field_size_limit(limit)
        before = csv.field_size_limit()
        for row, error in (("", None), ("\nd,2,3,1,1", BadIndicator)):  # loads, or a row error
            text = PLAIN.replace("\na,", f'\n"{LONG_ID}",') + row
            if error is None:
                assert load_frame(io.StringIO(text), BINARY).ids[0] == LONG_ID
            else:
                with pytest.raises(error):
                    load_frame(io.StringIO(text), BINARY)
            assert csv.field_size_limit() == before
    finally:
        csv.field_size_limit(default)


@pytest.mark.parametrize("text", [
    PLAIN.replace("a,1,0.5", '"a",1,0.5'),
    PLAIN.replace("\na,", "\na\x1c,"),  # numpy's reader takes \x1c round a number for white space
], ids=["quoted", "file-separator"])
def test_numpy_reader_does_not_read_text_csv_must(monkeypatch, text):
    calls = count_calls(monkeypatch, np, "loadtxt")
    frame = load_frame(io.StringIO(text), BINARY)
    assert frame.ids.tolist() == ["a", "b", "c"] and calls == []


@pytest.mark.parametrize("text", ["", "id,in_sample\n", "id,in_sample", "id,in_sample\n\n\r\n\r"],
                         ids=["empty", "header", "header-no-line-end", "blank-lines"])
def test_a_file_without_rows_does_not_reach_numpy_reader(monkeypatch, text):
    def unexpected(*args, **kwargs):  # numpy's reader warns "input contained no data"
        raise AssertionError("numpy's reader was called")

    monkeypatch.setattr(np, "loadtxt", unexpected)
    table = pibgen.frame._read_table(io.StringIO(text, newline=""))
    table.read({"id", "in_sample"}, numeric=())
    assert (table.n_rows, table.cells("id")) == (0, [])
    if text:  # an empty file has no header, so no in_sample column
        assert load_frame(io.StringIO(text, newline=""), BINARY).n_units == 0


def test_loading_a_population_frame_peaks_below_ten_times_its_file_size(tmp_path):
    spec = importlib.util.spec_from_file_location(
        "synth", pathlib.Path(__file__).parents[1] / "perfbench" / "synth.py")
    synth = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(synth)
    path = tmp_path / "population.csv"
    synth.write_csv(synth.generate(n=20_000, n_sample=400, n_treated=200, seed=7), path)
    load_frame(path, BINARY)  # the first load's one-off imports and caches are not measured
    tracemalloc.start()
    try:
        frame = load_frame(path, BINARY)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert frame.n_units == 20_000
    assert peak < 10 * path.stat().st_size


class TestDesignProbs:
    def test_statewide_treated_share(self, statewide_path):
        frame = load_frame(statewide_path, BINARY)
        probs = design_probs(frame, 0.5)
        assert probs.p_w1_given_z1 == 34 / 56
        assert round(probs.p_w1_given_z1, 2) == 0.61

    def test_census(self):
        frame = make_frame([(1, 1, 1.0), (1, 0, 0.0)])
        assert design_probs(frame, 0.5).p_z1 == 1.0

    def test_two_of_eight(self):
        frame = make_frame([(1, 1, 1.0), (1, 0, 0.0)] + [(0, None, None)] * 6)
        probs = design_probs(frame, 0.5)
        assert probs.p_z1 == 0.25
        assert probs.p_w0_given_z0 == 0.5

    def test_exact_integer_count(self):
        frame = make_frame([(1, 1, 1.0), (1, 0, 0.0), (0, None, None)])
        probs = design_probs(frame, 0.5)
        assert probs.p_z1 * frame.n_units == 2

    def test_empty_sample(self):
        frame = make_frame([(0, None, None), (0, None, None)])
        with pytest.raises(EmptySample):
            design_probs(frame, 0.5)

    @staticmethod
    def _assert_masses_follow_the_fields(probs):
        for _ in range(2):  # the second read returns the stored masses
            p_z0 = 1 - probs.p_z1
            assert probs.p_z0 == p_z0
            assert probs.p_w1_z1 == probs.p_w1_given_z1 * probs.p_z1
            assert probs.p_w0_z1 == (1 - probs.p_w1_given_z1) * probs.p_z1
            assert probs.p_w0_z0 == probs.p_w0_given_z0 * p_z0
            assert probs.p_w1_z0 == 1 - probs.p_z1 - probs.p_w0_given_z0 * p_z0

    @settings(max_examples=200, deadline=None)
    @given(st.fractions(0, 1, max_denominator=10**6).filter(bool),
           st.fractions(0, 1, max_denominator=10**6), st.fractions(0, 1, max_denominator=10**6))
    def test_derived_masses_equal_their_formulas(self, p_z1, p_w1_given_z1, p_w0_given_z0):
        exact = DesignProbs(p_z1, p_w1_given_z1, p_w0_given_z0)
        self._assert_masses_follow_the_fields(exact)
        # a copy made after the masses were read computes its own
        for probs in (convert(exact), replace(exact, p_w0_given_z0=1 - p_w0_given_z0),
                      replace(convert(exact), p_z1=1.0), replace(exact, p_w1_given_z1=0)):
            self._assert_masses_follow_the_fields(probs)


class TestEmpiricalRates:
    def test_hand_means(self):
        frame = make_frame(
            [(1, 1, 1.0), (1, 1, 1.0), (1, 1, 0.0), (1, 0, 0.0), (1, 0, 1.0)]
        )
        rates = empirical_rates(frame)
        assert rates.e_y1_w1z1 == pytest.approx(2 / 3)
        assert rates.e_y0_w0z1 == pytest.approx(1 / 2)
        assert rates.e_y0_w0z0 is None

    def test_constant_outcome(self):
        frame = make_frame([(1, 1, 1.0), (1, 0, 1.0), (0, None, 1.0)])
        rates = empirical_rates(frame)
        assert (rates.e_y1_w1z1, rates.e_y0_w0z1, rates.e_y0_w0z0) == (1.0, 1.0, 1.0)

    def test_population_mean_excludes_sample(self):
        # 91 passing and 9 failing z=0 units -> 0.91 regardless of sample outcomes
        spec = [(1, 1, 0.0), (1, 0, 0.0)]
        spec += [(0, None, 1.0)] * 91 + [(0, None, 0.0)] * 9
        rates = empirical_rates(make_frame(spec))
        assert rates.e_y0_w0z0 == pytest.approx(0.91)

    def test_reduced_lower_bound_identity(self):
        # the reduced-framework lower bound equals d*P(Z=1) - q0*p - r
        from pibgen.bounds import worst_case_bounds

        spec = [(1, 1, 1.0), (1, 0, 0.0)] + [(0, None, 1.0)] * 6 + [(0, None, None)] * 2
        frame = make_frame(spec)
        rates = empirical_rates(frame)
        probs = design_probs(frame, 0.75)  # p = 0.75 * 0.8 = 0.6 = bearing mass
        interval = worst_case_bounds(rates, probs, "reduced", frame.support)
        d = rates.sate
        p = probs.p_w0_z0
        r = probs.p_w1_z0
        assert interval.pre_clamp_lo == pytest.approx(d * probs.p_z1 - rates.e_y0_w0z0 * p - r)

    def test_binary_rate_fields(self):
        frame = make_frame([(1, 1, 1.0), (1, 1, 0.0), (1, 0, 0.0), (0, None, 1.0)])
        rates = empirical_rates(frame)
        assert rates.binary is True
        assert rates.e_y0_w0z0 == 1.0

    def test_continuous_frame_has_no_binary_rates(self):
        frame = make_frame([(1, 1, 2.5), (1, 0, -1.0)], support=CONTINUOUS)
        rates = empirical_rates(frame)
        assert rates.binary is False

    def test_permutation_invariance(self, rng):
        spec = [(1, 1, 1.0), (1, 1, 0.0), (1, 0, 1.0), (1, 0, 0.0),
                (0, None, 1.0), (0, None, None)]
        base = empirical_rates(make_frame(spec))
        for _ in range(10):
            perm = [spec[i] for i in rng.permutation(len(spec))]
            shuffled = empirical_rates(make_frame(perm))
            assert shuffled == base

    def test_binary_rates_are_count_ratios(self, rng):
        from fractions import Fraction

        from conftest import random_binary_frame

        for _ in range(20):
            frame = random_binary_frame(rng, labeled=False)
            rates = empirical_rates(frame)
            treated = frame.y[frame.treated].tolist()
            assert rates.e_y1_w1z1 == pytest.approx(
                float(Fraction(int(sum(treated)), len(treated)))
            )

    def test_empty_arm(self):
        frame = make_frame([(1, 1, 1.0), (0, None, None)])
        with pytest.raises(EmptyArm):
            empirical_rates(frame)

    def test_means_whose_sums_overflow_stay_finite(self):
        # -1e308 + -1e308 is past float range, but their mean is not
        frame = make_frame([(1, 1, 0.0), (1, 0, -1.0), (0, None, -1e308), (0, None, -1e308)],
                           support=OutcomeSupport(-1e308, 0.0))
        rates = empirical_rates(frame)
        assert (rates.e_y1_w1z1, rates.e_y0_w0z1, rates.e_y0_w0z0) == (0.0, -1.0, -1e308)
        assert tallies(frame).scale == 2.0 ** 1023


class TestSupport:
    def test_inverted_support_rejected(self):
        from pibgen.errors import ConfigError

        with pytest.raises(ConfigError):
            OutcomeSupport(1.0, 0.0)

    def test_binary_detection(self):
        assert tallies(make_frame([(1, 1, 1.0), (1, 0, 0.0)])).is_binary(0)
        fractional = make_frame([(1, 1, 0.5), (1, 0, 0.0)])
        assert not tallies(fractional).is_binary(0)


class TestColumns:
    def test_columns_and_missing_markers(self):
        frame = load_frame(io.StringIO(CSV3), BINARY)
        assert frame.ids.tolist() == ["a", "b", "c"]
        assert frame.z.dtype == np.int8 and frame.z.tolist() == [1, 1, 0]
        assert frame.w.dtype == np.int8 and frame.w.tolist() == [1, 0, -1]
        assert frame.y[:2].tolist() == [1.0, 0.0] and np.isnan(frame.y[2])
        assert frame.X.shape == (3, 0)

    def test_covariate_columns_are_contiguous(self):
        text = "id,in_sample,treatment,outcome,x1,x2\na,1,1,1,0.5,2\nb,1,0,0,1.5,3\n"
        frame = load_frame(io.StringIO(text), BINARY)
        assert frame.covariate_column("x2").tolist() == [2.0, 3.0]
        assert frame.covariate_column("x2").flags["C_CONTIGUOUS"]

    def test_columns_refuse_writes_and_leave_the_given_arrays_writable(self, statewide_path):
        frame = load_frame(statewide_path, BINARY)
        rate = empirical_rates(frame).e_y1_w1z1
        for column in (frame.ids, frame.z, frame.w, frame.y, frame.X):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = column[1]
        with pytest.raises(ValueError, match="read-only"):
            frame.y[frame.treated] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            frame.covariate_column(frame.covariate_names[0])[:] = 0.0
        assert empirical_rates(frame).e_y1_w1z1 == rate
        given = (np.array(["a", "b"], dtype=object), np.array([1, 1], dtype=np.int8),
                 np.array([1, 0], dtype=np.int8), np.array([1.0, 0.0]),
                 np.zeros((2, 1), order="F"))
        frame = StudyFrame(*given, BINARY, ("x1",))
        assert all(array.flags.writeable for array in given)
        assert all(np.shares_memory(column, array) for column, array in
                   zip((frame.ids, frame.z, frame.w, frame.y, frame.X), given))

    def test_covariate_moments_are_taken_once_per_frame(self):
        text = "id,in_sample,treatment,outcome,x1,x2\na,1,1,1,0.5,2\nb,1,0,0,1.5,3\nc,0,,,1,7\n"
        frame = load_frame(io.StringIO(text), BINARY)
        col = frame.covariate_column("x2")
        moments = frame.covariate_moments("x2")
        assert moments == (col.mean(), col.std())
        assert frame.covariate_moments("x2") is moments
        rows = np.array([0, 1])
        sub = StudyFrame(frame.ids[rows], frame.z[rows], frame.w[rows], frame.y[rows],
                         frame.X[rows], frame.support, frame.covariate_names)
        assert sub.covariate_moments("x2") == (2.5, 0.5)

    def test_a_sub_frame_that_repeats_a_row_is_rejected(self, statewide_path):
        frame = load_frame(statewide_path, BINARY)
        rows = np.array([0, 0, 1])
        with pytest.raises(DuplicateId, match="^duplicate unit id 'sch0001'$"):
            StudyFrame(frame.ids[rows], frame.z[rows], frame.w[rows], frame.y[rows],
                       frame.X[rows], frame.support, frame.covariate_names)

    @pytest.mark.parametrize("bad, error, row", [
        ((2, 1, 1.0), BadIndicator, "u1"),
        ((1, None, 1.0), BadIndicator, "u1"),
        ((1, 1, None), MissingOutcome, "u1"),
        ((0, None, 1.5), OutcomeOutOfSupport, "u1"),
    ])
    def test_constructor_errors_name_the_unit(self, bad, error, row):
        with pytest.raises(error) as err:
            make_frame([(1, 1, 1.0), bad, (3, 1, 1.0)])
        assert err.value.row == row

    def test_duplicate_id_comes_after_the_checks_of_earlier_units(self):
        columns = [["a", "a", "b"], [1, 1, 2], [1, 0, 0], [1.0, 0.0, 0.0]]
        with pytest.raises(DuplicateId):
            StudyFrame(*columns, (), BINARY)
        with pytest.raises(BadIndicator):
            StudyFrame(*(column[::-1] for column in columns), (), BINARY)

    def test_a_repeated_id_before_a_bad_cell_wins(self):
        text = "id,in_sample,treatment,outcome\na,1,1,1\na,1,0,0\nb,1,x,1\n"
        with pytest.raises(DuplicateId, match="^duplicate unit id 'a'$"):
            load_frame(io.StringIO(text), BINARY)
        with pytest.raises(DuplicateId):  # a row's id is checked before its cells
            load_frame(io.StringIO(text.replace("a,1,0,0", "a,1,x,0")), BINARY)
        with pytest.raises(BadIndicator) as err:  # an earlier bad row still wins
            load_frame(io.StringIO(text.replace("a,1,1,1", "a,1,x,1")), BINARY)
        assert err.value.row == 1

    def test_a_clean_file_has_its_ids_checked_once(self, monkeypatch, statewide_path):
        calls = []

        def counted(ids):
            calls.append(len(ids))
            return repeats(ids)

        repeats = pibgen.frame._repeats
        monkeypatch.setattr(pibgen.frame, "_repeats", counted)
        load_frame(statewide_path, BINARY)
        assert calls == [1029]  # by the constructor only
        calls.clear()
        load_two_frames(io.StringIO("id,treatment,outcome\ns1,1,1\ns2,0,0\n"),
                        io.StringIO("id,outcome\np1,1\n"), BINARY)
        assert calls == [2, 3]  # the sample file's, before the population file's rows

    def test_an_id_shared_by_the_two_files_is_reported_after_their_rows(self):
        sample = "id,treatment,outcome\ns1,1,1\ns2,0,0\n"
        with pytest.raises(DuplicateId, match="^duplicate unit id 's1'$"):
            load_two_frames(io.StringIO(sample), io.StringIO("id,outcome\ns1,1\np2,\n"), BINARY)
        with pytest.raises(OutcomeOutOfSupport) as err:
            load_two_frames(io.StringIO(sample), io.StringIO("id,outcome\ns1,1\np2,x\n"), BINARY)
        assert (err.value.row, err.value.file) == (2, "population")

    def test_a_repeated_id_of_the_sample_file_comes_before_the_population_rows(self):
        sample = "id,treatment,outcome\ns1,1,1\ns1,0,0\n"
        population = "id,outcome\np1,1\np2,x\n"
        with pytest.raises(DuplicateId, match="^duplicate unit id 's1'$"):
            load_two_frames(io.StringIO(sample), io.StringIO(population), BINARY)
        with pytest.raises(BadIndicator) as err:  # an earlier bad row still wins
            load_two_frames(io.StringIO(sample.replace("s1,1,1", "s1,x,1")),
                            io.StringIO(population), BINARY)
        assert (err.value.row, err.value.file) == (1, "sample")

    @pytest.mark.parametrize("file, row, message", [
        ("sample", "s2,x,0,0.5", "column 'treatment' must be 0 or 1, got 'x'"),
        ("sample", "s2,0,,0.5", "sampled unit has no outcome"),
        ("population", "p2,x,1", "outcome 'x' outside support [0.0, 1.0]"),
        ("population", "p2,0,", "covariate 'x1' is missing"),
        ("population", "p2,0,inf", "column 'x1' must be a finite number, got 'inf'"),
    ], ids=["sample-indicator", "sample-outcome", "population-outcome", "population-covariate",
            "population-non-finite"])
    def test_a_two_file_row_error_names_its_file(self, file, row, message):
        texts = {"sample": "id,treatment,outcome,x1\ns1,1,1,0.5\n",
                 "population": "id,outcome,x1\np1,1,0.5\n"}
        texts[file] += row + "\n"
        with pytest.raises(DataError) as err:
            load_two_frames(io.StringIO(texts["sample"]), io.StringIO(texts["population"]), BINARY)
        assert str(err.value) == f"row 2 of the {file} file: {message}"
        assert (err.value.row, err.value.file) == (2, file)

    def test_a_combined_file_row_error_names_no_file(self):
        with pytest.raises(OutcomeOutOfSupport) as err:
            load_frame(io.StringIO(CSV3.replace("b,1,0,0", "b,1,0,x")), BINARY)
        assert str(err.value) == "row 2: outcome 'x' outside support [0.0, 1.0]"
        assert (err.value.row, err.value.file) == (2, None)

    def test_first_bad_row_wins_across_kinds_of_check(self):
        header = "id,in_sample,treatment,outcome,x1\n"
        with pytest.raises(MissingOutcome) as err:
            load_frame(io.StringIO(header + "a,1,1,,0.5\nb,1,0,0,oops\n"), BINARY)
        assert err.value.row == 1
        with pytest.raises(MissingCovariate) as err:
            load_frame(io.StringIO(header + "a,1,1,1,oops\nb,1,0,,0.5\n"), BINARY)
        assert err.value.row == 1

    def test_blank_lines_hold_no_row(self):
        text = "id,in_sample,treatment,outcome\na,1,1,1\n\nb,1,0,0\n"
        frame = load_frame(io.StringIO(text), BINARY)
        assert frame.ids.tolist() == ["a", "b"]
        with pytest.raises(MissingOutcome) as err:
            load_frame(io.StringIO(text.replace("b,1,0,0", "b,1,0,")), BINARY)
        assert err.value.row == 2

    def test_short_row_reads_as_blank_cells(self):
        with pytest.raises(MissingCovariate) as err:
            load_frame(io.StringIO("id,in_sample,treatment,outcome,x1\na,1,1,1,0.5\nb,0\n"),
                       BINARY)
        assert err.value.row == 2 and err.value.name == "x1"

    def test_duplicate_header_name(self):
        with pytest.raises(DuplicateColumn) as err:
            load_frame(io.StringIO("id,in_sample,treatment,outcome,x1,x1\na,1,1,1,0.2,0.3\n"),
                       BINARY)
        assert err.value.name == "x1"
        with pytest.raises(DuplicateColumn):
            load_two_frames(io.StringIO("id,treatment,outcome\ns1,1,1\n"),
                            io.StringIO("id,id\np1,p1\n"), BINARY)

    def test_continuous_rates_sum_left_to_right(self):
        # the means add the outcomes in row order, one at a time, bit for bit
        # (a plain loop: Python 3.12's sum is compensated and rounds otherwise)
        def sum(values):
            total = 0.0
            for value in values:
                total += value
            return total

        rng = np.random.default_rng(2016)
        rows = ["id,in_sample,treatment,outcome"]
        for i in range(1000):
            z = int(rng.random() < 0.3)
            w = int(rng.random() < 0.5) if z else ""
            rows.append(f"u{i},{z},{w},{rng.uniform(0, 100):.6f}")
        frame = load_frame(io.StringIO("\n".join(rows) + "\n"), OutcomeSupport(0.0, 100.0))
        rates = empirical_rates(frame)
        for w, mean in ((1, rates.e_y1_w1z1), (0, rates.e_y0_w0z1)):
            values = frame.y[(frame.z == 1) & (frame.w == w)].tolist()
            assert mean == sum(values) / len(values)
        values = frame.y[frame.z == 0].tolist()
        assert rates.e_y0_w0z0 == sum(values) / len(values)
