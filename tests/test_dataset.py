"""Recording ingestion, round-trips, splits and augmentation."""

import csv
import io
import re
import tempfile
import warnings
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kinemotion import dataset
from kinemotion.dataset import (
    Annotation,
    KEY_MOVEMENTS,
    WRITE_BLOCK,
    Recording,
    SplitConfig,
    _read_signal,
    annotation_fault,
    augment_offsets,
    extract_epochs,
    load_dataset_dir,
    metadata_fault,
    parse_recording,
    shifted_rows,
    split_train_test,
    write_recording,
)
from kinemotion.errors import ContractError, InvalidDataError, ParseError
from kinemotion.kinematics import ACCELERATION, TimeSeries3D, differentiate


def make_recording(n=200, fs=50.0, annotations=(), seed=0, group="healthy", session=1):
    rng = np.random.default_rng(seed)
    return Recording(
        subject_id="S01",
        group=group,
        session=session,
        hand="dominant",
        scenario="L1",
        series=TimeSeries3D(fs=fs, samples=rng.normal(size=(n, 3))),
        annotations=tuple(annotations),
    )


def write_fixture(tmp_path, rec, stem="rec"):
    path = tmp_path / f"{stem}.csv"
    write_recording(rec, path)
    return path


class TestRecordingModel:
    def test_overlapping_annotations_rejected(self):
        with pytest.raises(ContractError):
            make_recording(
                annotations=[Annotation(0, 60, "M1"), Annotation(50, 100, "M2")]
            )

    def test_out_of_range_annotation_rejected(self):
        with pytest.raises(ContractError):
            make_recording(n=100, annotations=[Annotation(50, 150, "M1")])

    def test_healthy_must_be_session_one(self):
        with pytest.raises(ContractError):
            make_recording(group="healthy", session=2)

    def test_patient_sessions_allowed(self):
        rec = make_recording(group="patient", session=3)
        assert rec.session == 3

    def test_unknown_label_rejected(self):
        for label in ("M5", "R20"):
            with pytest.raises(ContractError, match=f"unknown movement label '{label}'"):
                make_recording(annotations=[Annotation(0, 10, label)])

    def test_checked_skips_the_checks_but_not_the_normalisation(self):
        samples = np.zeros((20, 3))
        samples[3, 1] = np.nan
        with pytest.raises(InvalidDataError):
            TimeSeries3D(fs=50.0, samples=samples)
        series = TimeSeries3D(fs=50.0, samples=samples, checked=True)
        assert series.samples is not samples and not series.samples.flags.writeable
        anns = (Annotation(12, 18, "M2"), Annotation(0, 30, "M9"))
        with pytest.raises(ContractError, match="unknown movement label 'M9'"):
            Recording("S", "healthy", 1, "dominant", "L1", series, anns)
        rec = Recording("S", "healthy", 1, "dominant", "L1", series, anns, checked=True)
        assert [a.start for a in rec.annotations] == [0, 12]
        # replace builds anew, checks included
        with pytest.raises(ContractError, match="unknown movement label 'M9'"):
            replace(rec, annotations=anns[1:])


class TestRulesStatedOnce:
    """The data model and the file parser reject the same values, with the
    same message, because both take it from one fault function."""

    @pytest.mark.parametrize(
        "meta, field",
        [
            ({"group": "clinic"}, "group"),
            ({"hand": "left"}, "hand"),
            ({"scenario": "L3"}, "scenario"),
            ({"session": 0}, "session"),
            ({"group": "patient", "session": 0}, "session"),
            ({"session": 2}, "session"),  # healthy subjects have session 1 only
        ],
    )
    def test_metadata(self, tmp_path, meta, field):
        rec = make_recording(n=50)
        keys = ("group", "session", "hand", "scenario")
        values = {key: getattr(rec, key) for key in keys}
        values.update(meta)
        assert metadata_fault(**values)[0] == field
        with pytest.raises(ContractError) as model_err:
            replace(rec, **values)
        sig = write_fixture(tmp_path, rec)
        meta_path = tmp_path / "rec.meta"
        text = meta_path.read_text()
        for key, value in values.items():
            text = text.replace(f"{key}={getattr(rec, key)}\n", f"{key}={value}\n")
        meta_path.write_text(text)
        with pytest.raises(ParseError) as parse_err:
            parse_recording(sig)
        line = {"group": 2, "session": 3, "hand": 4, "scenario": 5}[field]
        assert parse_err.value.path == meta_path
        assert parse_err.value.line == line and parse_err.value.field == field
        assert str(model_err.value) in str(parse_err.value)

    @pytest.mark.parametrize(
        "rows, line, field",
        [
            (["1,3,R1", "4,30,M9"], 3, "label"),
            (["1,3,R1", "30,4,M1"], 3, "start_index"),
            (["1,3,R1", "-1,4,M1"], 3, "start_index"),
            (["1,3,R1", "4,60,M1"], 3, "end_index"),
            (["1,30,R1", "20,40,M2"], 3, "start_index"),
            # first in start order but last in file order
            (["20,30,R1", "35,40,M2", "2,8,M9"], 4, "label"),
        ],
        ids=["4,30,M9-label", "30,4,M1-start_index", "-1,4,M1-start_index",
             "4,60,M1-end_index", "20,40,M2-overlap", "2,8,M9-label-in-start-order"],
    )
    def test_annotation(self, tmp_path, rows, line, field):
        annotations = [
            Annotation(int(start), int(end), label)
            for start, end, label in (row.split(",") for row in rows)
        ]
        i, fault_field, message = annotation_fault(annotations, 50)
        assert (i + 2, fault_field) == (line, field)  # file line of row i
        with pytest.raises(ContractError) as model_err:
            make_recording(n=50, annotations=annotations)
        assert str(model_err.value) == message
        sig = write_fixture(tmp_path, make_recording(n=50))
        ann = tmp_path / "rec.annotations.csv"
        ann.write_text("start_index,end_index,label\n" + "".join(f"{r}\n" for r in rows))
        with pytest.raises(ParseError) as parse_err:
            parse_recording(sig)
        assert parse_err.value.line == line and parse_err.value.field == field
        assert message in str(parse_err.value)


class TestParseWriteRoundTrip:
    def test_fixture_round_trip(self, tmp_path):
        rec = make_recording(
            n=200,
            annotations=[Annotation(10, 80, "M1"), Annotation(100, 190, "M1")],
        )
        path = write_fixture(tmp_path, rec)
        parsed = parse_recording(path)
        assert len(parsed.series) == 200
        assert len(parsed.annotations) == 2
        assert parsed.subject_id == rec.subject_id
        np.testing.assert_array_equal(parsed.series.samples, rec.series.samples)

    def test_write_parse_write_is_byte_identical(self, tmp_path):
        rec = make_recording(
            n=150, annotations=[Annotation(5, 40, "M2"), Annotation(60, 120, "R3")]
        )
        first = write_fixture(tmp_path, rec, "a")
        parsed = parse_recording(first)
        second = tmp_path / "b.csv"
        write_recording(parsed, second)
        assert first.read_bytes() == second.read_bytes()
        assert (tmp_path / "a.annotations.csv").read_bytes() == (
            tmp_path / "b.annotations.csv"
        ).read_bytes()
        assert (tmp_path / "a.meta").read_bytes() == (tmp_path / "b.meta").read_bytes()


def reference_signal_text(rec):
    """The per-row signal writer write_recording replaced: one f-string of
    four ``repr``s per row.  The reference that its signal files are checked
    against, byte for byte."""
    buf = io.StringIO()
    buf.write("t,ax,ay,az\n")
    fs = rec.series.fs
    for i, (x, y, z) in enumerate(rec.series.samples):
        buf.write(f"{i / fs!r},{float(x)!r},{float(y)!r},{float(z)!r}\n")
    return buf.getvalue()


_WRITTEN_VALUES = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e-5, -1e-5, 1e16, -1e16, 1e300, -1e300, 0.1]
) | st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def written_recordings(draw):
    """Recordings of 2 rows to past two blocks, their samples a drawn list of
    values (signed zeros, subnormals, huge and tiny) repeated over the rows."""
    n = draw(st.integers(2, 40) | st.integers(WRITE_BLOCK - 2, 2 * WRITE_BLOCK + 3))
    values = draw(st.lists(_WRITTEN_VALUES, min_size=1, max_size=40))
    fs = draw(st.sampled_from([3.0, 7.0, 0.1, 1000.0, 50.0]) | st.floats(1e-3, 1e5))
    return Recording(
        subject_id="S01", group="healthy", session=1, hand="dominant",
        scenario="L1",
        series=TimeSeries3D(fs=fs, samples=np.resize(values, (n, 3))),
        annotations=(),
    )


class TestBlockWriter:
    """write_recording against the per-row reference, and what it refuses."""

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(rec=written_recordings())
    def test_signal_equals_per_row_reference_byte_for_byte(self, tmp_path, rec):
        path = tmp_path / "rec.csv"
        write_recording(rec, path)
        assert path.read_bytes() == reference_signal_text(rec).encode("utf-8")
        # and it reads back bit for bit, so the sign of zero counts
        parsed = parse_recording(path).series
        assert parsed.fs == rec.series.fs
        assert np.array_equal(parsed.samples.view(np.int64),
                              rec.series.samples.view(np.int64))

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_samples_refused_before_any_file(self, tmp_path, n):
        # parse_recording refuses such a file: "signal needs at least 2 rows"
        rec = make_recording(n=n)
        with pytest.raises(ContractError, match="at least 2 rows"):
            write_recording(rec, tmp_path / "out" / "rec.csv")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("series", [
        differentiate(make_recording().series),  # jerk, order 3 in m/s^3
        replace(make_recording().series, unit="g"),
    ], ids=["jerk", "unit_g"])
    def test_non_acceleration_refused_before_any_file(self, tmp_path, series):
        # parse_recording would read it back as acceleration in m/s^2
        rec = replace(make_recording(), series=series)
        with pytest.raises(ContractError, match="acceleration in m/s\\^2"):
            write_recording(rec, tmp_path / "out" / "rec.csv")
        assert list(tmp_path.iterdir()) == []


class TestMalformedCorpus:
    """Every defective file is rejected with a line-accurate error."""

    def _paths(self, tmp_path):
        rec = make_recording(n=50, annotations=[Annotation(4, 30, "M1")])
        sig = write_fixture(tmp_path, rec)
        return sig, tmp_path / "rec.annotations.csv", tmp_path / "rec.meta"

    def test_missing_column_in_header(self, tmp_path):
        sig, _, _ = self._paths(tmp_path)
        lines = sig.read_text().splitlines()
        lines[0] = "t,ax,ay"
        body = [",".join(row.split(",")[:3]) for row in lines[1:]]
        sig.write_text("\n".join([lines[0]] + body) + "\n")
        with pytest.raises(ParseError) as err:
            parse_recording(sig)
        assert err.value.line == 1
        assert "az" in str(err.value) or "header" in str(err.value)

    def test_non_numeric_value_names_line_and_field(self, tmp_path):
        sig, _, _ = self._paths(tmp_path)
        lines = sig.read_text().splitlines()
        parts = lines[7].split(",")
        parts[2] = "abc"
        lines[7] = ",".join(parts)
        sig.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            parse_recording(sig)
        assert err.value.line == 8
        assert err.value.field == "ay"

    def test_non_monotonic_time_rejected(self, tmp_path):
        sig, _, _ = self._paths(tmp_path)
        lines = sig.read_text().splitlines()
        lines[5], lines[6] = lines[6], lines[5]
        sig.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            parse_recording(sig)
        assert err.value.field == "t"

    def test_annotation_out_of_range_rejected(self, tmp_path):
        sig, ann, _ = self._paths(tmp_path)
        ann.write_text("start_index,end_index,label\n4,999,M1\n")
        with pytest.raises(ParseError) as err:
            parse_recording(sig)
        assert err.value.line == 2
        assert err.value.field == "end_index"

    def test_overlapping_annotations_rejected(self, tmp_path):
        sig, ann, _ = self._paths(tmp_path)
        ann.write_text("start_index,end_index,label\n4,30,M1\n20,40,M2\n")
        with pytest.raises(ParseError) as err:
            parse_recording(sig)
        assert err.value.line == 3

    def test_bad_label_rejected(self, tmp_path):
        sig, ann, _ = self._paths(tmp_path)
        ann.write_text("start_index,end_index,label\n4,30,M9\n")
        with pytest.raises(ParseError) as err:
            parse_recording(sig)
        assert err.value.line == 2
        assert err.value.field == "label"

    def test_annotation_rules_checked_after_every_row_parses(self, tmp_path):
        # the bad label on line 2 is found in the start-order pass, which
        # runs only once the integers of line 3 have parsed
        sig, ann, _ = self._paths(tmp_path)
        ann.write_text("start_index,end_index,label\n4,30,M9\nx,40,M2\n")
        with pytest.raises(ParseError, match="not an integer") as err:
            parse_recording(sig)
        assert err.value.line == 3 and err.value.field == "start_index"

    def test_unknown_metadata_key_rejected(self, tmp_path):
        sig, _, meta = self._paths(tmp_path)
        meta.write_text(meta.read_text() + "unexpected=1\n")
        with pytest.raises(ParseError) as err:
            parse_recording(sig)
        assert err.value.line == 7

    @pytest.mark.parametrize("fs", ["0", "-50.0"])
    def test_non_positive_fs_names_meta_line(self, tmp_path, fs):
        sig, _, meta = self._paths(tmp_path)
        meta.write_text(meta.read_text().replace("fs_hz=50.0", f"fs_hz={fs}"))
        with pytest.raises(ParseError, match="fs_hz must be positive") as err:
            parse_recording(sig)
        assert err.value.line == 6 and err.value.field == "fs_hz"

    def test_duplicate_metadata_key_rejected(self, tmp_path):
        sig, _, meta = self._paths(tmp_path)
        meta.write_text(meta.read_text() + "hand=both\n")
        with pytest.raises(ParseError, match="duplicate metadata key") as err:
            parse_recording(sig)
        assert err.value.line == 7 and err.value.field == "hand"

    def test_missing_metadata_key_rejected(self, tmp_path):
        sig, _, meta = self._paths(tmp_path)
        lines = [l for l in meta.read_text().splitlines() if not l.startswith("fs_hz")]
        meta.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            parse_recording(sig)
        assert err.value.field == "fs_hz"


def reference_parse_float(text, path, line, fieldname):
    try:
        value = float(text)
    except ValueError:
        raise ParseError(
            f"not a number: {text!r}", path=path, line=line, field=fieldname
        ) from None
    if not np.isfinite(value):
        raise ParseError(
            f"non-finite value: {text!r}", path=path, line=line, field=fieldname
        )
    return value


def reference_read_signal(path):
    """The row-by-row signal reader that the bulk reader replaced."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty signal file", path=path, line=1) from None
        if header != ["t", "ax", "ay", "az"]:
            raise ParseError(
                f"expected header t,ax,ay,az, got {','.join(header)}",
                path=path,
                line=1,
                field="header",
            )
        times, rows = [], []
        for line_no, row in enumerate(reader, start=2):
            if len(row) != 4:
                raise ParseError(
                    f"expected 4 columns, got {len(row)}", path=path, line=line_no
                )
            times.append(reference_parse_float(row[0], path, line_no, "t"))
            rows.append(
                [
                    reference_parse_float(row[1], path, line_no, "ax"),
                    reference_parse_float(row[2], path, line_no, "ay"),
                    reference_parse_float(row[3], path, line_no, "az"),
                ]
            )
    if len(rows) < 2:
        raise ParseError("signal needs at least 2 rows", path=path, line=2)
    return np.asarray(times), np.asarray(rows)


def outcome(read, path):
    """What a reader makes of a file: array bytes, or the ParseError's details."""
    try:
        times, samples = read(path)
    except ParseError as exc:
        return ("error", str(exc), exc.line, exc.field)
    return ("ok", times.shape, samples.shape, times.tobytes(), samples.tobytes())


_finite = st.floats(allow_nan=False, allow_infinity=False).map(repr)
_good = st.one_of(
    _finite, _finite.map(lambda v: f'"{v}"'), _finite.map(lambda v: f" {v}\t")
)
_odd_text = st.sampled_from(["1_0", "nan", "-inf", "inf", "1e999", "abc", "", "1,0"])
_odd = st.one_of(_odd_text, _odd_text.map(lambda v: f'"{v}"'))
_value = st.one_of(_good, _odd)
_good_row = st.lists(_good, min_size=4, max_size=4).map(",".join)
_odd_line = st.one_of(
    st.builds(
        lambda row, i, odd: ",".join(row[:i] + [odd] + row[i + 1 :]),
        st.lists(_good, min_size=4, max_size=4),
        st.integers(0, 3),
        _odd,
    ),
    st.lists(_good, min_size=3, max_size=5).map(",".join),
    st.lists(_value, min_size=3, max_size=5).map(",".join),
    st.sampled_from(["", "t,ax,ay", '"t",ax,ay,az']),
)


@st.composite
def signal_texts(draw):
    """A signal file: well-formed rows with up to two odd lines put anywhere."""
    lines = ["t,ax,ay,az"] + draw(st.lists(_good_row, max_size=8))
    for odd in draw(st.lists(_odd_line, max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), odd)
    endings = draw(
        st.lists(
            st.sampled_from(["\n", "\r\n", "\r"]),
            min_size=len(lines),
            max_size=len(lines),
        )
    )
    return "".join(line + end for line, end in zip(lines, endings))


# Where the readers part ways: bytes np.loadtxt strips around a field and
# float does not (\x1c-\x1f), numbers float reads and np.loadtxt does not
# (1_0, Arabic-Indic digits), a NUL, and any short string over the
# one-pass reader's alphabet, on which both must agree.
_pad = st.sampled_from(["", "\x1c", "\x1d", "\x1e", "\x1f", "\x0b", " "])
_edge_value = st.sampled_from(
    [
        st.builds(lambda left, v, right: left + v + right, _pad, _finite, _pad),
        st.sampled_from(["1_0", "\u0661", "\u0663.5", "\x00", "1\x000", "1e999"]),
        st.text(alphabet="0123456789+-.eE", max_size=6),
    ]
).flatmap(lambda values: values)


@st.composite
def plain_edge_texts(draw):
    """A signal file as write_recording writes it, with up to two edits that
    take it off (or to the edge of) the one-pass reader's path: an odd
    field, a blank or NUL line, \r\n or lone \r line ends, no final line
    end, no rows at all, and (now and then) a header with a fifth column
    or rows all three or all five columns wide, which np.loadtxt reads."""
    header = draw(st.sampled_from(["t,ax,ay,az"] * 8 + ["t,ax,ay,az,", "t,ax,ay,az,0"]))
    width = draw(st.sampled_from([4] * 8 + [3, 5]))
    rows = draw(
        st.lists(st.lists(_finite, min_size=width, max_size=width), max_size=6)
    )
    lines = [header] + [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        if rows and draw(st.booleans()):
            at = draw(st.integers(1, len(rows)))
            fields = lines[at].split(",")
            fields[draw(st.integers(0, len(fields) - 1))] = draw(_edge_value)
            lines[at] = ",".join(fields)
        else:
            at = draw(st.integers(1, len(lines)))
            lines.insert(at, draw(st.sampled_from(["", "\x00"])))
    style = draw(st.sampled_from(["\n", "\r\n", "mixed"]))
    if style == "mixed":
        ends = draw(
            st.lists(
                st.sampled_from(["\n", "\r\n", "\r"]),
                min_size=len(lines),
                max_size=len(lines),
            )
        )
    else:
        ends = [style] * len(lines)
    ends[-1] = draw(st.sampled_from([ends[-1], ""]))
    return "".join(line + end for line, end in zip(lines, ends))


class TestBulkSignalReader:
    """The bulk signal reader agrees with the row-by-row reference."""

    @settings(
        max_examples=500,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(text=signal_texts())
    def test_matches_reference_reader(self, tmp_path, text):
        path = tmp_path / "sig.csv"
        path.write_bytes(text.encode("utf-8"))
        assert outcome(_read_signal, path) == outcome(reference_read_signal, path)

    @settings(
        max_examples=500,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(text=plain_edge_texts())
    def test_matches_reference_where_readers_differ(self, tmp_path, text):
        path = tmp_path / "sig.csv"
        path.write_bytes(text.encode("utf-8"))
        assert outcome(_read_signal, path) == outcome(reference_read_signal, path)

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_written_recording_takes_one_pass_path(
        self, tmp_path, monkeypatch, newline
    ):
        path = write_fixture(tmp_path, make_recording(n=300, seed=3))
        path.write_bytes(path.read_bytes().replace(b"\n", newline.encode()))
        expected = outcome(reference_read_signal, path)

        def no_csv(*args):
            raise AssertionError("csv path taken")

        monkeypatch.setattr(dataset, "_csv_rows", no_csv)
        assert outcome(_read_signal, path) == expected
        assert expected[0] == "ok"

    @pytest.mark.parametrize(
        "body, message",
        [
            ("", "at least 2 rows"),
            ("0.0,1.0,2.0,3.0\n", "at least 2 rows"),
            ("\n", "expected 4 columns, got 0"),
            ("\n\n\n", "expected 4 columns, got 0"),
        ],
    )
    def test_short_or_blank_body_raises_without_warning(
        self, tmp_path, body, message
    ):
        path = tmp_path / "sig.csv"
        path.write_text("t,ax,ay,az\n" + body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParseError, match=message) as err:
                _read_signal(path)
        assert err.value.line == 2

    def test_matches_reference_on_written_recording(self, tmp_path):
        path = write_fixture(tmp_path, make_recording(n=300, seed=3))
        assert outcome(_read_signal, path) == outcome(reference_read_signal, path)

    def test_parsed_samples_are_one_read_only_copy_on_both_paths(self, tmp_path):
        rec = make_recording(n=300, seed=3)
        plain = write_fixture(tmp_path, rec)
        spaced = write_fixture(tmp_path, rec, stem="spaced")
        header, body = spaced.read_bytes().split(b"\n", 1)
        spaced.write_bytes(header + b"\n" + body.replace(b",", b", "))
        # the csv path reads it
        assert dataset._read_plain_signal(spaced.read_bytes()) is None
        for path in (plain, spaced):
            samples = parse_recording(path).series.samples
            assert samples.flags.c_contiguous and not samples.flags.writeable
            assert samples.tobytes() == rec.series.samples.tobytes()

    @staticmethod
    def signal(tmp_path, *rows):
        path = tmp_path / "sig.csv"
        path.write_text("t,ax,ay,az\n" + "".join(r + "\n" for r in rows))
        return path

    def test_wrong_column_count_names_line(self, tmp_path):
        path = self.signal(tmp_path, "0.0,1,2,3", "0.1,1,2", "0.2,1,2,3")
        with pytest.raises(ParseError, match="expected 4 columns, got 3") as err:
            _read_signal(path)
        assert err.value.line == 3 and err.value.field is None

    def test_wide_row_of_numbers_names_line(self, tmp_path):
        path = self.signal(tmp_path, "0.0,1,2,3", "0.1,1,2,3,4", "0.2,1,2,3")
        with pytest.raises(ParseError, match="expected 4 columns, got 5") as err:
            _read_signal(path)
        assert err.value.line == 3

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_value_names_line_and_field(self, tmp_path, value):
        path = self.signal(tmp_path, "0.0,1,2,3", f"0.1,1,{value},3")
        with pytest.raises(ParseError, match="non-finite") as err:
            _read_signal(path)
        assert err.value.line == 3 and err.value.field == "ay"

    @pytest.mark.parametrize("rows", [(), ("0.0,1,2,3",)])
    def test_fewer_than_two_rows_rejected(self, tmp_path, rows):
        path = self.signal(tmp_path, *rows)
        with pytest.raises(ParseError, match="at least 2 rows") as err:
            _read_signal(path)
        assert err.value.line == 2

    def test_bad_value_after_wrong_width_row(self, tmp_path):
        path = self.signal(tmp_path, "0.0,1,2,3", "0.1,1,2,3,4", "0.2,x,2,3")
        with pytest.raises(ParseError, match="got 5") as err:
            _read_signal(path)
        assert err.value.line == 3

    def test_bad_value_before_wrong_width_row(self, tmp_path):
        path = self.signal(tmp_path, "0.0,1,2,3", "0.1,x,2,3", "0.2,1,2")
        with pytest.raises(ParseError, match="not a number") as err:
            _read_signal(path)
        assert err.value.line == 3 and err.value.field == "ax"


class TestMalformedBytes:
    """Undecodable bytes and over-long CSV fields end as ParseError."""

    def _paths(self, tmp_path):
        rec = make_recording(n=50, annotations=[Annotation(4, 30, "M1")])
        sig = write_fixture(tmp_path, rec)
        return sig, tmp_path / "rec.annotations.csv", tmp_path / "rec.meta"

    @staticmethod
    def corrupt_line(path, index, junk):
        """Append ``junk`` (bytes) to the 0-based line ``index`` of a file."""
        lines = path.read_bytes().split(b"\n")
        lines[index] += junk
        path.write_bytes(b"\n".join(lines))

    @pytest.mark.parametrize("which", [0, 1, 2])
    def test_non_utf8_byte_names_file_and_line(self, tmp_path, which):
        target = self._paths(tmp_path)[which]
        self.corrupt_line(target, 2, b"\xff")
        with pytest.raises(ParseError, match="not UTF-8") as err:
            parse_recording(tmp_path / "rec.csv")
        assert err.value.path == target and err.value.line == 3

    @pytest.mark.parametrize("which", [0, 1])
    def test_over_long_field_names_file_and_line(self, tmp_path, which):
        target = self._paths(tmp_path)[which]
        self.corrupt_line(target, 1, b"9" * 140_000)
        with pytest.raises(ParseError, match="field larger than field limit") as err:
            parse_recording(tmp_path / "rec.csv")
        assert err.value.path == target and err.value.line == 2

    def test_bad_byte_line_counts_every_line_ending(self, tmp_path):
        sig = tmp_path / "sig.csv"
        sig.write_bytes(b"t,ax,ay,az\r\n0.0,1,2,3\r0.1,1,2,3\n0.2,1,\xff2,3\n")
        with pytest.raises(ParseError) as err:
            _read_signal(sig)
        assert err.value.line == 4


# ---------------------------------------------------------------------------
# The ingest that load_dataset_dir replaced, kept as its reference
# ---------------------------------------------------------------------------


def reference_sidecar_paths(path):
    path = Path(path)
    stem = path.with_suffix("")
    return path, stem.with_suffix(".annotations.csv"), stem.with_suffix(".meta")


def reference_not_utf8(path):
    raw = Path(path).read_bytes()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = raw[: exc.start].decode("utf-8")
        line = head.count("\n") + head.count("\r") - head.count("\r\n") + 1
        return ParseError(f"not UTF-8 text: {exc.reason}", path=path, line=line)
    return ParseError("not UTF-8 text", path=path)


def reference_read_csv_body(path, header, what):
    """The CSV reader over a text-mode file, decoded as it is read."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            rows = list(reader)
    except UnicodeDecodeError:
        raise reference_not_utf8(path) from None
    except csv.Error as exc:
        raise ParseError(
            f"malformed CSV: {exc}", path=path, line=reader.line_num
        ) from None
    if not rows:
        raise ParseError(f"empty {what} file", path=path, line=1)
    if rows[0] != header:
        raise ParseError(
            f"expected header {','.join(header)}, got {','.join(rows[0])}",
            path=path,
            line=1,
            field="header",
        )
    return rows[1:]


def reference_read_key_values(path, keys, what):
    """The key=value reader over a text-mode file's readlines."""
    found = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError:
        raise reference_not_utf8(path) from None
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError("expected key=value", path=path, line=line_no)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in keys:
            raise ParseError(
                f"unknown {what} key {key!r}", path=path, line=line_no, field=key
            )
        if key in found:
            raise ParseError(
                f"duplicate {what} key {key!r}", path=path, line=line_no, field=key
            )
        found[key] = (line_no, value)
    return found


def reference_signal(path):
    """The csv path of the signal reader, every file through it: the plain
    path gives the same values where it reads a file (TestBulkSignalReader)."""
    body = reference_read_csv_body(path, ["t", "ax", "ay", "az"], "signal")
    rows = []
    for line_no, row in enumerate(body, start=2):
        if len(row) != 4:
            raise ParseError(
                f"expected 4 columns, got {len(row)}", path=path, line=line_no
            )
        rows.append([reference_parse_float(text, path, line_no, name)
                     for text, name in zip(row, ["t", "ax", "ay", "az"])])
    if len(rows) < 2:
        raise ParseError("signal needs at least 2 rows", path=path, line=2)
    values = np.array(rows)
    return values[:, 0], values[:, 1:]


def reference_parse_recording(path):
    """parse_recording as it was: three text-mode reads, then the series and
    recording constructors run their own checks once more."""
    sig_path, ann_path, meta_path = reference_sidecar_paths(path)
    times, samples = reference_signal(sig_path)
    keys = ("subject_id", "group", "session", "hand", "scenario", "fs_hz")
    meta = reference_read_key_values(meta_path, keys, "metadata")
    for key in keys:
        if key not in meta:
            raise ParseError(f"missing metadata key {key!r}", path=meta_path, field=key)

    fs_line, fs_text = meta["fs_hz"]
    fs = reference_parse_float(fs_text, meta_path, fs_line, "fs_hz")
    if fs <= 0:
        raise ParseError("fs_hz must be positive", meta_path, fs_line, "fs_hz")
    values = {key: meta[key][1] for key in ("group", "hand", "scenario")}
    session_line, session_text = meta["session"]
    try:
        values["session"] = int(session_text)
    except ValueError:
        raise ParseError(f"not an integer: {session_text!r}", path=meta_path,
                         line=session_line, field="session") from None
    fault = metadata_fault(**values)
    if fault is not None:
        key, message = fault
        raise ParseError(message, path=meta_path, line=meta[key][0], field=key)

    dt = np.diff(times)
    if np.any(dt <= 0):
        bad = int(np.argmax(dt <= 0))
        raise ParseError("time column must be strictly increasing",
                         path=sig_path, line=bad + 3, field="t")
    if np.any(np.abs(dt - 1.0 / fs) > 1e-6 / fs):
        bad = int(np.argmax(np.abs(dt - 1.0 / fs) > 1e-6 / fs))
        raise ParseError(f"time column is not uniform at 1/fs_hz = {1.0 / fs}",
                         path=sig_path, line=bad + 3, field="t")

    lines, annotations = [], []
    body = reference_read_csv_body(
        ann_path, ["start_index", "end_index", "label"], "annotation"
    )
    for line_no, row in enumerate(body, start=2):
        if len(row) != 3:
            raise ParseError(
                f"expected 3 columns, got {len(row)}", path=ann_path, line=line_no
            )
        ints = []
        for text, name in zip(row, ["start_index", "end_index"]):
            try:
                ints.append(int(text))
            except ValueError:
                raise ParseError(f"not an integer: {text!r}", path=ann_path,
                                 line=line_no, field=name) from None
        lines.append(line_no)
        annotations.append(Annotation(*ints, row[2]))
    fault = annotation_fault(annotations, len(samples))
    if fault is not None:
        i, field, message = fault
        raise ParseError(message, path=ann_path, line=lines[i], field=field)

    series = TimeSeries3D(fs=fs, samples=samples, order=ACCELERATION)
    return Recording(subject_id=meta["subject_id"][1], series=series, **values,
                     annotations=tuple(annotations))


def reference_load_dataset_dir(directory):
    """load_dataset_dir as it was: a sorted glob, one reference parse per file;
    since two signal files with one pair of sidecars are refused, it first
    refuses them too, naming the first such pair in name order."""
    signals = [sig for sig in sorted(Path(directory).glob("*.csv"))
               if not sig.name.endswith(".annotations.csv")]
    owners = {}
    for sig in signals:
        _, ann, meta = reference_sidecar_paths(sig)
        owner = owners.setdefault(ann, sig)
        if owner is not sig:
            raise ParseError(f"signal files {owner.name} and {sig.name} share the "
                             f"sidecars {ann.name} and {meta.name}", path=Path(directory))
    return [reference_parse_recording(sig) for sig in signals]


def field_values(obj):
    """Every dataclass field of ``obj``, nested, with arrays as their shape,
    dtype, flags and int64 bits (so -0.0 differs from 0.0)."""
    if isinstance(obj, np.ndarray):
        return (obj.shape, obj.dtype.str, obj.flags.c_contiguous, obj.flags.writeable,
                obj.view(np.int64).tobytes())
    if is_dataclass(obj):
        return (type(obj).__name__,
                tuple((f.name, field_values(getattr(obj, f.name))) for f in fields(obj)))
    if isinstance(obj, tuple):
        return tuple(field_values(item) for item in obj)
    return (type(obj).__name__, obj)


def load_outcome(load, directory):
    """The recordings a loader makes of a directory, or its error's details."""
    try:
        return ("ok", [field_values(rec) for rec in load(directory)])
    except ParseError as exc:
        return ("ParseError", str(exc), exc.path, exc.line, exc.field)
    except OSError as exc:
        return (type(exc).__name__, str(exc))


def _drop_fs(text):
    return "".join(l for l in text.splitlines(True) if not l.startswith("fs_hz"))


def _append_to_line(raw, index, junk):
    lines = raw.split(b"\n")
    lines[min(index, len(lines) - 1)] += junk
    return b"\n".join(lines)


def _edit_line(raw, index, edit):
    lines = raw.decode().split("\n")
    lines[index] = edit(lines[index])
    return "\n".join(lines).encode()


def _scale_time(line):
    t, rest = line.split(",", 1)
    return f"{float(t) * 1.01!r},{rest}"


# One defect each, as TestMalformedCorpus and TestMalformedBytes make them,
# plus edits that leave a file valid but off the one-pass reader's path.
# Each maps a file's bytes to new bytes; "annotations", "meta" or "signal"
# says which of a recording's three files it edits.
CORRUPTIONS = {
    "meta": {
        "unknown key": lambda raw: raw + b"unexpected=1\n",
        "duplicate key": lambda raw: raw + b"hand=both\n",
        "missing key": lambda raw: _drop_fs(raw.decode()).encode(),
        "bad group": lambda raw: raw.replace(b"group=healthy", b"group=clinic")
                                    .replace(b"group=patient", b"group=clinic"),
        "zero fs": lambda raw: re.sub(rb"fs_hz=.*", b"fs_hz=0", raw),
        "text fs": lambda raw: raw.replace(b"fs_hz=", b"fs_hz=x"),
        "session text": lambda raw: raw.replace(b"session=", b"session=s"),
        "no equals": lambda raw: raw + b"just words\n",
        "non-UTF-8": lambda raw: _append_to_line(raw, 2, b"\xff"),
        "crlf (valid)": lambda raw: raw.replace(b"\n", b"\r\n"),
        "cr (valid)": lambda raw: raw.replace(b"\n", b"\r"),
    },
    "annotations": {
        "out of range": lambda raw: raw + b"4,99999,M1\n",
        "bad label": lambda raw: raw + b"9999,10000,M9\n",
        "not an integer": lambda raw: raw + b"x,40,M2\n",
        "two columns": lambda raw: raw + b"4,30\n",
        "overlap": lambda raw: raw + raw.split(b"\n")[1] + b"\n",
        "bad header": lambda raw: b"start,end,label" + raw[raw.index(b"\n"):],
        "empty": lambda raw: b"",
        "reversed rows (valid)": lambda raw: b"\n".join(
            (lambda ls: ls[:1] + ls[-2:0:-1] + [b""])(raw.split(b"\n"))),
        "non-UTF-8": lambda raw: _append_to_line(raw, 1, b"\xff"),
        "over-long field": lambda raw: _append_to_line(raw, 1, b"9" * 140_000),
    },
    "signal": {
        "non-uniform time": lambda raw: _edit_line(raw, 3, _scale_time),
        "swapped rows": lambda raw: b"\n".join(
            (lambda ls: ls[:2] + [ls[3], ls[2]] + ls[4:])(raw.split(b"\n"))),
        "repeated time": lambda raw: b"\n".join(
            (lambda ls: ls[:3] + [ls[2][:ls[2].index(b",")] + ls[3][ls[3].index(b","):]]
             + ls[4:])(raw.split(b"\n"))),
        "one row": lambda raw: b"\n".join(raw.split(b"\n")[:2]) + b"\n",
        "text value": lambda raw: _edit_line(raw, 2, lambda l: l + "x"),
        "nan value": lambda raw: _edit_line(raw, 2, lambda l: l.rsplit(",", 1)[0] + ",nan"),
        "blank line": lambda raw: raw.replace(b"\n", b"\n\n", 2),
        "spaces (valid)": lambda raw: raw.replace(b",", b", ").replace(b", ", b",", 3),
        "crlf (valid)": lambda raw: raw.replace(b"\n", b"\r\n"),
        "quoted (valid)": lambda raw: _edit_line(raw, 2, lambda l: '"' + l.replace(",", '",', 1)),
        "non-UTF-8": lambda raw: _append_to_line(raw, 2, b"\xff"),
        "over-long field": lambda raw: _append_to_line(raw, 1, b"9" * 140_000),
    },
}
_SUFFIX = {"signal": ".csv", "annotations": ".annotations.csv", "meta": ".meta"}


@st.composite
def recording_dirs(draw):
    """1-4 written recordings, each with at most one defect; stems drawn with
    dots now and then, so a sidecar is named past two suffixes, and two
    stems (c and c.v2, d.x.y and d.x.z) now and then share their sidecars."""
    stems = draw(st.lists(st.sampled_from(["a", "b", "c", "c.v2", "d.x.y", "d.x.z", "e."]),
                          min_size=1, max_size=4, unique=True))
    recs = []
    for k, stem in enumerate(stems):
        n = draw(st.integers(6, 60))
        cuts = sorted(draw(st.sets(st.integers(0, n), max_size=6)))
        spans = [(cuts[i], cuts[i + 1]) for i in range(0, len(cuts) - 1, 2)]
        labels = draw(st.lists(st.sampled_from(["M1", "M2", "M3", "M4", "R7"]),
                               min_size=len(spans), max_size=len(spans)))
        patient = draw(st.booleans())
        rec = make_recording(
            n=n, fs=draw(st.sampled_from([50.0, 100.0, 7.0, 0.1])), seed=k,
            annotations=[Annotation(s, e, lab) for (s, e), lab in zip(spans, labels)],
            group="patient" if patient else "healthy",
            session=draw(st.integers(1, 4)) if patient else 1,
        )
        which = draw(st.sampled_from([None, None, "signal", "annotations", "meta"]))
        edit = None if which is None else draw(st.sampled_from(sorted(CORRUPTIONS[which])))
        recs.append((stem, rec, which, edit))
    return recs


def write_recording_dir(directory, recs):
    for stem, rec, _, _ in recs:
        write_recording(rec, directory / f"{stem}.csv")
    for stem, rec, which, edit in recs:
        if which is not None:
            target = reference_sidecar_paths(directory / f"{stem}.csv")[
                ["signal", "annotations", "meta"].index(which)]
            target.write_bytes(CORRUPTIONS[which][edit](target.read_bytes()))


class TestIngestReference:
    """load_dataset_dir and parse_recording against the ingest they replaced:
    the same recordings, bit for bit, or the same ParseError (message, path,
    line, field), the first bad file in name order being the one named."""

    @settings(max_examples=300, deadline=None)
    @given(recs=recording_dirs())
    def test_matches_reference_loader(self, recs):
        with tempfile.TemporaryDirectory() as tmp:
            directory = Path(tmp)
            write_recording_dir(directory, recs)
            assert load_outcome(load_dataset_dir, directory) == load_outcome(
                reference_load_dataset_dir, directory)
            for sig in directory.glob("*.csv"):
                if not sig.name.endswith(".annotations.csv"):
                    assert load_outcome(lambda p: [parse_recording(p)], sig) == \
                        load_outcome(lambda p: [reference_parse_recording(p)], sig)

    @pytest.mark.parametrize("first, second", [
        (("signal", "one row"), ("meta", "unknown key")),
        (("signal", "swapped rows"), ("signal", "non-uniform time")),
        (("annotations", "bad label"), ("signal", "non-UTF-8")),
        (("meta", "non-UTF-8"), ("annotations", "over-long field")),
    ])
    def test_first_bad_file_in_name_order_is_named(self, tmp_path, first, second):
        recs = [(stem, make_recording(n=50, annotations=[Annotation(4, 30, "M1")]), *bad)
                for stem, bad in (("b", second), ("a", first), ("c", (None, None)))]
        write_recording_dir(tmp_path, recs)
        outcome = load_outcome(load_dataset_dir, tmp_path)
        assert outcome == load_outcome(reference_load_dataset_dir, tmp_path)
        assert outcome[0] == "ParseError"
        assert outcome[2].name == "a" + _SUFFIX[first[0]]

    @pytest.mark.parametrize("gap, message", [
        (0, "not UTF-8"), (2000, "field larger than field limit")])
    def test_a_csv_error_before_a_later_bad_byte_is_the_one_named(
        self, tmp_path, gap, message
    ):
        # a text-mode file is decoded 8 KiB at a time, so the over-long field
        # of line 2 is met first when the bad byte lies chunks further on
        sig = write_fixture(tmp_path, make_recording(n=50))
        ann = tmp_path / "rec.annotations.csv"
        ann.write_bytes(b"start_index,end_index,label\n" + b"9" * 140_000 + b",1,M1\n"
                        + b"1,2,R1\n" * gap + b"\xff\n")
        outcome = load_outcome(lambda p: [parse_recording(p)], sig)
        assert outcome == load_outcome(lambda p: [reference_parse_recording(p)], sig)
        assert message in outcome[1]

    def test_signals_sharing_their_sidecars_are_refused(self, tmp_path):
        # a.v1.csv and a.v2.csv both read a.annotations.csv and a.meta, which
        # the second write overwrote: loading them would give S2 twice
        for stem, subject in (("a.v1", "S1"), ("a.v2", "S2")):
            write_recording(replace(make_recording(n=50), subject_id=subject),
                            tmp_path / f"{stem}.csv")
        outcome = load_outcome(load_dataset_dir, tmp_path)
        assert outcome == load_outcome(reference_load_dataset_dir, tmp_path)
        assert outcome[:3] == (
            "ParseError", "signal files a.v1.csv and a.v2.csv share the sidecars "
            f"a.annotations.csv and a.meta ({tmp_path})", tmp_path)

    @settings(max_examples=300, deadline=None)
    @given(name=st.text(st.sampled_from("ab.-_ \u00e9"), max_size=8))
    def test_sidecar_stem_follows_the_sidecar_names(self, name):
        # the collision check keys each signal by the start of its sidecar
        # names, which must be what _sidecar_paths makes of them
        path = Path("/data") / f"{name}.csv"
        _, ann, meta = dataset._sidecar_paths(path)
        stem = dataset._sidecar_stem(path)
        assert (ann.name, meta.name) == (f"{stem}.annotations.csv", f"{stem}.meta")

    @pytest.mark.parametrize("kind", ["missing", "file"])
    def test_a_path_that_is_not_a_directory_is_named(self, tmp_path, kind):
        path = tmp_path / "nope"
        if kind == "file":
            path.write_text("")
        with pytest.raises(NotADirectoryError,
                           match=re.escape(f"{path} is not a directory")):
            load_dataset_dir(path)

    def test_parsed_recording_passes_its_constructors_checks(self, tmp_path):
        rec = make_recording(n=120, annotations=[Annotation(5, 40, "M1")])
        sig = write_fixture(tmp_path, rec)
        (tmp_path / "rec.annotations.csv").write_text(
            "start_index,end_index,label\n60,90,M2\n5,40,M1\n")
        parsed = parse_recording(sig)
        rebuilt = replace(parsed, series=replace(parsed.series))
        assert field_values(rebuilt) == field_values(parsed)
        assert [a.start for a in parsed.annotations] == [5, 60]


def resample(series: TimeSeries3D, target_len: int) -> TimeSeries3D:
    """Linearly resample onto ``target_len`` points spanning the same duration:
    the per-segment reference that extract_epochs is checked against.

    First and last samples are preserved exactly; the sampling rate is
    rescaled so the duration is unchanged.  Resampling to the source
    length is the identity.
    """
    n = len(series)
    if n < 2 or target_len < 2:
        raise ContractError(
            f"resample needs source and target lengths >= 2, got {n} -> {target_len}"
        )
    if target_len == n:
        return series
    src_t = np.arange(n, dtype=np.float64)
    dst_t = np.linspace(0.0, n - 1, target_len)
    out = np.column_stack(
        [np.interp(dst_t, src_t, series.samples[:, i]) for i in range(3)]
    )
    # preserve endpoints exactly even if interp rounds at the edges
    out[0] = series.samples[0]
    out[-1] = series.samples[-1]
    new_fs = series.fs * (target_len - 1) / (n - 1)
    return TimeSeries3D(fs=new_fs, samples=out, order=series.order, unit=series.unit)


def series_from_axis(values, fs=50.0):
    values = np.asarray(values, dtype=float)
    return TimeSeries3D(fs=fs, samples=np.column_stack([values] * 3))


class TestResample:
    def test_identity_at_same_length(self):
        rng = np.random.default_rng(9)
        ts = TimeSeries3D(fs=50.0, samples=rng.normal(size=(17, 3)))
        out = resample(ts, 17)
        np.testing.assert_array_equal(out.samples, ts.samples)
        assert out.fs == ts.fs

    def test_linear_ramp_gets_half_steps(self):
        ts = series_from_axis(np.arange(5.0))
        out = resample(ts, 9)
        np.testing.assert_allclose(out.axis("x"), np.arange(0.0, 4.5, 0.5))

    def test_endpoints_preserved_exactly(self):
        rng = np.random.default_rng(13)
        ts = TimeSeries3D(fs=50.0, samples=rng.normal(size=(40, 3)))
        out = resample(ts, 101)
        np.testing.assert_array_equal(out.samples[0], ts.samples[0])
        np.testing.assert_array_equal(out.samples[-1], ts.samples[-1])

    def test_duration_preserved(self):
        ts = series_from_axis(np.arange(50.0), fs=50.0)
        out = resample(ts, 128)
        assert (len(out) - 1) / out.fs == pytest.approx((len(ts) - 1) / ts.fs)

    def test_sine_against_analytic_values(self):
        # 1 Hz sine at 50 Hz, upsampled to 128 points: linear
        # interpolation error stays below 1% of the unit amplitude
        fs = 50.0
        t = np.arange(0.0, 1.0, 1.0 / fs)
        ts = series_from_axis(np.sin(2 * np.pi * t), fs=fs)
        out = resample(ts, 128)
        t_new = np.linspace(0.0, t[-1], 128)
        np.testing.assert_allclose(
            out.axis("x"), np.sin(2 * np.pi * t_new), atol=0.01
        )

    def test_degenerate_lengths_rejected(self):
        ts = series_from_axis(np.arange(5.0))
        with pytest.raises(ContractError):
            resample(ts, 1)
        short = TimeSeries3D(fs=50.0, samples=np.zeros((1, 3)))
        with pytest.raises(ContractError):
            resample(short, 10)


class TestExtractEpochs:
    def test_counts_shapes_and_labels(self):
        rec = make_recording(
            n=400,
            annotations=[
                Annotation(0, 90, "M2"),
                Annotation(100, 210, "M2"),
                Annotation(220, 360, "M2"),
            ],
        )
        result = extract_epochs([rec], w=128)
        assert len(result.x) == len(result.labels) == 3
        assert list(result.starts) == [0, 100, 220]
        assert result.x.shape == (3, 3, 128) and result.x.flags.c_contiguous
        assert all(KEY_MOVEMENTS[k] == "M2" for k in result.labels)

    def test_distractors_only_gives_empty(self):
        rec = make_recording(n=100, annotations=[Annotation(0, 50, "R5")])
        result = extract_epochs([rec], w=64)
        assert len(result.x) == 0
        assert result.x.shape == (0, 3, 64)

    def test_short_segment_skipped_and_counted(self):
        rec = make_recording(
            n=100, annotations=[Annotation(0, 1, "M1"), Annotation(10, 60, "M1")]
        )
        result = extract_epochs([rec], w=32)
        assert len(result.x) == len(result.labels) == 1
        assert list(result.starts) == [10]

    def test_content_equals_resampled_slice(self):
        rec = make_recording(n=300, annotations=[Annotation(17, 140, "M3")])
        result = extract_epochs([rec], w=128)
        expected = resample(rec.series.slice(17, 140), 128)
        np.testing.assert_array_equal(result.x[0], expected.samples.T)
        assert result.starts[0] == 17 and result.ends[0] == 140

    def test_rows_follow_recordings_then_annotations(self):
        first = make_recording(
            n=200, annotations=[Annotation(5, 50, "M4"), Annotation(60, 61, "M1"),
                                Annotation(70, 120, "R2"), Annotation(130, 190, "M1")]
        )
        second = replace(
            make_recording(n=150, seed=1, annotations=[Annotation(0, 150, "M2")]),
            subject_id="S02",
        )
        result = extract_epochs([first, second], w=40)
        assert [KEY_MOVEMENTS[k] for k in result.labels] == ["M4", "M1", "M2"]
        assert len(result.x) == 3  # the 1-sample M1 segment gives no row
        assert list(result.starts) == [5, 130, 0]
        assert list(result.ends) == [50, 190, 150]
        np.testing.assert_array_equal(
            result.x[2], resample(second.series, 40).samples.T
        )


# finite values anywhere in range, with ±1e308-scale ones common enough that
# neighbour differences overflow, and -0.0 so the frac == 0 rule is exercised
_SAMPLE_VALUES = st.one_of(
    st.floats(-1e3, 1e3),
    st.sampled_from([1.7e308, -1.7e308, 1e308, -1e308, -0.0]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def key_segments(draw):
    """A window W and a recording whose key segments have 2 to 3W samples."""
    w = draw(st.integers(2, 48), label="w")
    lengths = draw(st.lists(
        st.one_of(st.just(w), st.integers(2, 3 * w)), min_size=1, max_size=4
    ), label="lengths")
    gaps = draw(st.lists(st.integers(0, 3), min_size=len(lengths) + 1,
                         max_size=len(lengths) + 1), label="gaps")
    annotations, cursor = [], gaps[0]
    for length, gap in zip(lengths, gaps[1:]):
        label = draw(st.sampled_from(KEY_MOVEMENTS))
        annotations.append(Annotation(cursor, cursor + length, label))
        cursor += length + gap
    huge = draw(st.booleans(), label="huge values")
    elements = _SAMPLE_VALUES if huge else st.floats(-1e3, 1e3)
    values = draw(st.lists(elements, min_size=3 * cursor, max_size=3 * cursor))
    rec = Recording(
        subject_id="S01", group="healthy", session=1, hand="dominant",
        scenario="L1",
        series=TimeSeries3D(fs=50.0, samples=np.reshape(values, (cursor, 3))),
        annotations=tuple(annotations),
    )
    return w, rec


class TestVectorisedExtraction:
    """extract_epochs against resample, the per-segment reference."""

    @settings(max_examples=150, deadline=None)
    @given(case=key_segments())
    def test_rows_equal_resample_bit_for_bit(self, case):
        w, rec = case
        try:
            want = [resample(rec.series.slice(a.start, a.end), w).samples.T
                    for a in rec.annotations]
        except InvalidDataError:  # a neighbour difference overflowed
            with pytest.raises(InvalidDataError):
                extract_epochs([rec], w)
            return
        got = extract_epochs([rec], w)
        assert got.x.shape == (len(want), 3, w)
        # bit for bit: the same bytes, so -0.0 and 0.0 differ
        assert got.x.tobytes() == np.array(want).tobytes()


def make_labels(n_per_class):
    return np.repeat(np.arange(len(KEY_MOVEMENTS)), n_per_class)


def reference_split(labels, cfg):
    """The per-class list walk split_train_test replaced."""
    rng = np.random.default_rng(cfg.seed)
    train, test = [], []
    for k in range(len(KEY_MOVEMENTS)):
        idx = np.asarray([i for i, label in enumerate(labels) if label == k])
        order = rng.permutation(len(idx))
        cut = int(np.floor(len(idx) * cfg.train_fraction + 0.5))
        train += list(idx[order[:cut]])
        test += list(idx[order[cut:]])
    return train, test


class TestSplit:
    def test_stratified_counts(self):
        labels = make_labels(40)
        train, test = split_train_test(labels, SplitConfig(seed=1))
        assert len(train) == 128 and len(test) == 32
        for k in range(len(KEY_MOVEMENTS)):
            assert np.sum(labels[train] == k) == 32
            assert np.sum(labels[test] == k) == 8

    def test_partition_is_disjoint_and_exhaustive(self):
        labels = np.random.default_rng(5).permutation(make_labels(11))
        train, test = split_train_test(labels, SplitConfig(seed=9))
        assert set(train) | set(test) == set(range(len(labels)))
        assert set(train) & set(test) == set()

    def test_same_seed_same_partition(self):
        labels = make_labels(10)
        a = split_train_test(labels, SplitConfig(seed=7))
        b = split_train_test(labels, SplitConfig(seed=7))
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_different_seed_differs_somewhere(self):
        labels = make_labels(10)
        a = split_train_test(labels, SplitConfig(seed=7))
        c = split_train_test(labels, SplitConfig(seed=8))
        assert list(a[0]) != list(c[0])

    def test_proportions_within_one_epoch(self):
        rng = np.random.default_rng(2)
        for trial in range(10):
            counts = rng.integers(3, 30, size=4)
            labels = rng.permutation(np.repeat(np.arange(4), counts))
            frac = float(rng.uniform(0.5, 0.9))
            train, _ = split_train_test(
                labels, SplitConfig(train_fraction=frac, seed=trial)
            )
            for k, count in enumerate(counts):
                got = np.sum(labels[train] == k)
                assert abs(got - count * frac) <= 1.0

    @settings(max_examples=50, deadline=None)
    @given(
        labels=st.lists(st.integers(0, 3), min_size=4, max_size=80).filter(
            lambda labels: len(set(labels)) == 4
        ),
        frac=st.floats(0.05, 0.95),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rows_equal_the_per_class_list_walk(self, labels, frac, seed):
        cfg = SplitConfig(train_fraction=frac, seed=seed)
        train, test = split_train_test(np.array(labels), cfg)
        want_train, want_test = reference_split(labels, cfg)
        assert list(train) == want_train and list(test) == want_test

    def test_stratified_needs_every_class(self):
        labels = make_labels(5)
        with pytest.raises(ContractError):
            split_train_test(labels[labels != 2], SplitConfig(seed=0))

    def test_bad_fraction_rejected(self):
        with pytest.raises(ContractError):
            SplitConfig(train_fraction=1.0)


def make_x(n, w, seed=0):
    return np.random.default_rng(seed).normal(size=(n, 3, w))


def augment_shift(x, rows, max_frac, rng):
    """One training epoch's augmentation: one draw of offsets, one gather."""
    offsets = augment_offsets(len(rows), x.shape[2], max_frac, rng)
    return shifted_rows(x, rows, offsets)


class TestAugmentShift:
    def test_zero_fraction_is_identity(self):
        x = make_x(4, 32)
        rows = np.array([2, 0, 3])
        out = augment_shift(x, rows, 0.0, np.random.default_rng(0))
        np.testing.assert_array_equal(out, x[rows])

    def test_forced_shift_inverts(self):
        x = make_x(5, 32, seed=4)
        rows = np.arange(5)
        offsets = np.array([7, -7, 0, 31, -16])
        back = shifted_rows(shifted_rows(x, rows, offsets), rows, -offsets)
        np.testing.assert_array_equal(back, x)

    def test_deterministic_given_seed(self):
        x = make_x(6, 32, seed=4)
        rows = np.arange(6)
        a = augment_shift(x, rows, 0.25, np.random.default_rng(42))
        b = augment_shift(x, rows, 0.25, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_label_length_and_multiset_preserved(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            x = make_x(3, 24, seed=int(rng.integers(1 << 30)))
            before = x.copy()
            rows = rng.permutation(3)
            out = augment_shift(x, rows, 0.5, rng)
            assert out.shape == x.shape
            np.testing.assert_array_equal(x, before)  # the stored rows stay put
            np.testing.assert_array_equal(
                np.sort(out, axis=-1), np.sort(x[rows], axis=-1)
            )

    def test_offset_within_bounds(self):
        x = make_x(200, 40)
        rows = np.arange(200)
        out = augment_shift(x, rows, 0.2, np.random.default_rng(0))
        for row, shifted in zip(x, out):
            # recover the applied offset by matching the first source sample
            hits = np.where((shifted == row[:, :1]).all(axis=0))[0]
            offset = min((h if h <= 20 else h - 40 for h in hits), key=abs)
            assert abs(offset) <= 8  # 0.2 * 40

    def test_out_of_range_fraction_rejected(self):
        with pytest.raises(ContractError):
            augment_offsets(1, 16, 0.6, np.random.default_rng(0))

    @pytest.mark.parametrize("max_frac", [0.0, 0.2, 0.5])
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 40),
        w=st.integers(2, 64),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_one_draw_and_gather_equal_scalar_draws_and_roll(
        self, max_frac, n, w, seed, data
    ):
        x = make_x(n, w, seed=seed % 1000)
        rows = np.array(data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n)),
                        dtype=np.int64)
        rng = np.random.default_rng(seed)
        got = augment_shift(x, rows, max_frac, rng)
        ref_rng = np.random.default_rng(seed)
        span = int(max_frac * w)
        want = [
            np.roll(x[r], int(ref_rng.integers(-span, span + 1)), axis=-1) for r in rows
        ]
        assert got.tobytes() == np.array(want).reshape(len(rows), 3, w).tobytes()
        # the generator ends where the scalar draws leave it
        assert rng.integers(1 << 62) == ref_rng.integers(1 << 62)
        # a mini-batch gathers what indexing the whole shifted set gives
        offsets = augment_offsets(len(rows), w, max_frac, np.random.default_rng(seed))
        batch = np.arange(len(rows))[::2]
        np.testing.assert_array_equal(
            shifted_rows(x, rows[batch], offsets[batch]), got[batch]
        )
