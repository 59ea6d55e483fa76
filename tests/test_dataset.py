"""Recording ingestion, round-trips, splits and augmentation."""

import csv
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kinemotion import dataset
from kinemotion.dataset import (
    Annotation,
    KEY_MOVEMENTS,
    LabeledEpoch,
    Recording,
    SplitConfig,
    _read_signal,
    annotation_value_fault,
    augment_shift,
    extract_epochs,
    metadata_fault,
    parse_recording,
    shift_epoch,
    split_train_test,
    write_recording,
)
from kinemotion.errors import ContractError, ParseError
from kinemotion.kinematics import Epoch, TimeSeries3D, resample


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
        with pytest.raises(ContractError):
            Annotation(0, 10, "M5")
        with pytest.raises(ContractError):
            Annotation(0, 10, "R20")


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
        "row, field",
        [("4,30,M9", "label"), ("30,4,M1", "start_index"), ("-1,4,M1", "start_index")],
    )
    def test_annotation(self, tmp_path, row, field):
        start, end, label = row.split(",")
        assert annotation_value_fault(int(start), int(end), label)[0] == field
        with pytest.raises(ContractError) as model_err:
            Annotation(int(start), int(end), label)
        sig = write_fixture(tmp_path, make_recording(n=50))
        ann = tmp_path / "rec.annotations.csv"
        ann.write_text(f"start_index,end_index,label\n1,3,R1\n{row}\n")
        with pytest.raises(ParseError) as parse_err:
            parse_recording(sig)
        assert parse_err.value.line == 3 and parse_err.value.field == field
        assert str(model_err.value) in str(parse_err.value)


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

        monkeypatch.setattr(dataset, "read_csv_body", no_csv)
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
        times, samples = _read_signal(path)
        assert times.flags.c_contiguous and samples.flags.c_contiguous

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
        result = extract_epochs(rec, w=128)
        assert len(result.epochs) == 3
        assert result.skipped == 0
        assert all(len(item.epoch) == 128 for item in result.epochs)
        assert all(item.label == "M2" for item in result.epochs)

    def test_distractors_only_gives_empty(self):
        rec = make_recording(n=100, annotations=[Annotation(0, 50, "R5")])
        result = extract_epochs(rec, w=64)
        assert result.epochs == ()

    def test_short_segment_skipped_and_counted(self):
        rec = make_recording(
            n=100, annotations=[Annotation(0, 1, "M1"), Annotation(10, 60, "M1")]
        )
        result = extract_epochs(rec, w=32)
        assert len(result.epochs) == 1
        assert result.skipped == 1

    def test_content_equals_resampled_slice(self):
        rec = make_recording(n=300, annotations=[Annotation(17, 140, "M3")])
        result = extract_epochs(rec, w=128)
        expected = resample(rec.series.slice(17, 140), 128)
        np.testing.assert_array_equal(result.epochs[0].epoch.values, expected.samples)
        assert result.epochs[0].epoch.offset == 17


def make_epochs(n_per_class, w=16, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for label in KEY_MOVEMENTS:
        for _ in range(n_per_class):
            out.append(
                LabeledEpoch(epoch=Epoch(values=rng.normal(size=(w, 3))), label=label)
            )
    return out


class TestSplit:
    def test_stratified_counts(self):
        epochs = make_epochs(40)
        train, test = split_train_test(epochs, SplitConfig(seed=1))
        assert len(train) == 128 and len(test) == 32
        for label in KEY_MOVEMENTS:
            assert sum(e.label == label for e in train) == 32
            assert sum(e.label == label for e in test) == 8

    def test_partition_is_disjoint_and_exhaustive(self):
        epochs = make_epochs(11, seed=5)
        train, test = split_train_test(epochs, SplitConfig(seed=9))
        ids = lambda items: {id(e) for e in items}
        assert ids(train) | ids(test) == ids(epochs)
        assert ids(train) & ids(test) == set()

    def test_same_seed_same_partition(self):
        epochs = make_epochs(10)
        a = split_train_test(epochs, SplitConfig(seed=7))
        b = split_train_test(epochs, SplitConfig(seed=7))
        assert [id(e) for e in a[0]] == [id(e) for e in b[0]]
        assert [id(e) for e in a[1]] == [id(e) for e in b[1]]

    def test_different_seed_differs_somewhere(self):
        epochs = make_epochs(10)
        a = split_train_test(epochs, SplitConfig(seed=7))
        c = split_train_test(epochs, SplitConfig(seed=8))
        assert [id(e) for e in a[0]] != [id(e) for e in c[0]]

    def test_proportions_within_one_epoch(self):
        rng = np.random.default_rng(2)
        for trial in range(10):
            counts = rng.integers(3, 30, size=4)
            epochs = []
            for label, count in zip(KEY_MOVEMENTS, counts):
                for _ in range(count):
                    epochs.append(
                        LabeledEpoch(
                            epoch=Epoch(values=rng.normal(size=(8, 3))), label=label
                        )
                    )
            frac = float(rng.uniform(0.5, 0.9))
            train, _ = split_train_test(
                epochs, SplitConfig(train_fraction=frac, seed=trial)
            )
            for label, count in zip(KEY_MOVEMENTS, counts):
                got = sum(e.label == label for e in train)
                assert abs(got - count * frac) <= 1.0

    def test_stratified_needs_every_class(self):
        epochs = [e for e in make_epochs(5) if e.label != "M3"]
        with pytest.raises(ContractError):
            split_train_test(epochs, SplitConfig(seed=0))

    def test_bad_fraction_rejected(self):
        with pytest.raises(ContractError):
            SplitConfig(train_fraction=1.0)


class TestAugmentShift:
    def test_zero_fraction_is_identity(self):
        item = make_epochs(1, w=32)[0]
        out = augment_shift(item, 0.0, np.random.default_rng(0))
        np.testing.assert_array_equal(out.epoch.values, item.epoch.values)

    def test_forced_shift_inverts(self):
        item = make_epochs(1, w=32, seed=4)[0]
        back = shift_epoch(shift_epoch(item, 7), -7)
        np.testing.assert_array_equal(back.epoch.values, item.epoch.values)

    def test_deterministic_given_seed(self):
        item = make_epochs(1, w=32, seed=4)[0]
        a = augment_shift(item, 0.25, np.random.default_rng(42))
        b = augment_shift(item, 0.25, np.random.default_rng(42))
        np.testing.assert_array_equal(a.epoch.values, b.epoch.values)

    def test_label_length_and_multiset_preserved(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            item = make_epochs(1, w=24, seed=int(rng.integers(1 << 30)))[0]
            out = augment_shift(item, 0.5, rng)
            assert out.label == item.label
            assert len(out.epoch) == len(item.epoch)
            for axis in range(3):
                np.testing.assert_array_equal(
                    np.sort(out.epoch.values[:, axis]),
                    np.sort(item.epoch.values[:, axis]),
                )

    def test_offset_within_bounds(self):
        item = make_epochs(1, w=40)[0]
        rng = np.random.default_rng(0)
        for _ in range(200):
            out = augment_shift(item, 0.2, rng)
            # recover the applied offset by matching the first source row
            row = item.epoch.values[0]
            hits = np.where((out.epoch.values == row).all(axis=1))[0]
            offset = min((h if h <= 20 else h - 40 for h in hits), key=abs)
            assert abs(offset) <= 8  # 0.2 * 40

    def test_out_of_range_fraction_rejected(self):
        item = make_epochs(1)[0]
        with pytest.raises(ContractError):
            augment_shift(item, 0.6, np.random.default_rng(0))
