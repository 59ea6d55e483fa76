"""Recording data model, file ingestion, splitting and augmentation.

A recording on disk is three sibling files sharing a stem:

* ``<stem>.csv`` -- the signal, header ``t,ax,ay,az``, t in seconds
  (monotonic, uniform), accelerations in m/s^2, period decimals.
* ``<stem>.annotations.csv`` -- ``start_index,end_index,label`` rows
  with label in {M1..M4, R1..R19}.
* ``<stem>.meta`` -- ``key=value`` lines: subject_id, group
  (healthy|patient), session, hand (dominant|nondominant|both),
  scenario (L1|L2), fs_hz.

Signal files are read in one of two ways, with one result.  A plain file
-- the header line ``t,ax,ay,az``, then only digits, ``+ - . e E``,
commas and ``\n`` or ``\r\n`` line ends, as :func:`write_recording`
writes it -- is converted in one C-level pass by ``np.loadtxt``.  Every
other file, and a plain file that pass refuses (a blank line, a short
row, a non-finite value, ...), is split by ``csv.reader`` and converted
with ``float``: it keeps the exact ``csv`` semantics of quoting,
whitespace and error line and field.

Training data stay arrays: :func:`extract_epochs` resamples every key
segment into one (N, 3, W) array, the stratified split returns row-index
arrays into it and :func:`shifted_rows` gathers shifted rows from it.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import InitVar, dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import ConfigError, ContractError, InvalidDataError, ParseError
from .kinematics import ACCELERATION, TimeSeries3D

KEY_MOVEMENTS = ("M1", "M2", "M3", "M4")
DISTRACTORS = tuple(f"R{k}" for k in range(1, 20))
ALL_LABELS = KEY_MOVEMENTS + DISTRACTORS

GROUPS = ("healthy", "patient")
HANDS = ("dominant", "nondominant", "both")
SCENARIOS = ("L1", "L2")

_META_KEYS = ("subject_id", "group", "session", "hand", "scenario", "fs_hz")
_SIGNAL_HEADER = ["t", "ax", "ay", "az"]
WRITE_BLOCK = 1024  # signal rows per format call of write_recording


def is_key_movement(label: str) -> bool:
    return label in KEY_MOVEMENTS


@dataclass(frozen=True)
class Annotation:
    """Half-open sample range [start, end) carrying a movement label; checked
    by :func:`annotation_fault` where it joins a :class:`Recording`."""

    start: int
    end: int
    label: str


def annotation_fault(annotations, n):
    """The first annotation, in start order, with an unknown label, a range
    other than ``0 <= start < end <= n`` or a start before its predecessor's
    end; None when there is none.

    Returned as ``(index, field, message)``: the index into
    ``annotations`` as given and the annotation-file column at fault.
    """
    prev = None
    for i in sorted(range(len(annotations)), key=lambda i: annotations[i].start):
        a = annotations[i]
        if a.label not in ALL_LABELS:
            return i, "label", f"unknown movement label {a.label!r}"
        if not (0 <= a.start < a.end):
            return i, "start_index", (
                "annotation range must satisfy 0 <= start < end, "
                f"got [{a.start}, {a.end})"
            )
        if a.end > n:
            return i, "end_index", (
                f"annotation [{a.start}, {a.end}) exceeds series length {n}"
            )
        if prev is not None and a.start < prev.end:
            return i, "start_index", (
                f"annotation [{a.start}, {a.end}) overlaps [{prev.start}, {prev.end})"
            )
        prev = a
    return None


def metadata_fault(group, session, hand, scenario):
    """The first broken rule of a recording's metadata as ``(key, message)``,
    naming the ``.meta`` key at fault; None when there is none."""
    if group not in GROUPS:
        return "group", f"group must be one of {'|'.join(GROUPS)}, got {group!r}"
    if hand not in HANDS:
        return "hand", f"hand must be one of {'|'.join(HANDS)}, got {hand!r}"
    if scenario not in SCENARIOS:
        return "scenario", (
            f"scenario must be one of {'|'.join(SCENARIOS)}, got {scenario!r}"
        )
    if session < 1:
        return "session", f"session must be >= 1, got {session}"
    if group == "healthy" and session != 1:
        return "session", "healthy subjects are recorded in session 1 only"
    return None


@dataclass(frozen=True)
class Recording:
    """One wrist recording of one subject session, with labelled segments.

    ``checked=True`` says the caller has already made the metadata and
    annotation checks, as :func:`parse_recording` does with file, line and
    field; they are then not run again.
    """

    subject_id: str
    group: str
    session: int
    hand: str
    scenario: str
    series: TimeSeries3D
    annotations: tuple[Annotation, ...] = ()
    checked: InitVar[bool] = False

    def __post_init__(self, checked):
        if not checked:
            fault = metadata_fault(self.group, self.session, self.hand, self.scenario)
            if fault is not None:
                raise ContractError(fault[1])
            fault = annotation_fault(self.annotations, len(self.series))
            if fault is not None:
                raise ContractError(fault[2])
        anns = tuple(sorted(self.annotations, key=lambda a: a.start))
        object.__setattr__(self, "annotations", anns)


def check_seed(seed, name="seed"):
    """ConfigError unless ``seed`` is an integer >= 0, as ``np.random.default_rng``
    needs; ``name`` is the field named in the message."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ConfigError(f"{name} must be an integer >= 0, got {seed}")


@dataclass(frozen=True)
class SplitConfig:
    train_fraction: float = 0.8
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.train_fraction < 1.0):
            raise ContractError(
                f"train_fraction must be in (0, 1), got {self.train_fraction}"
            )
        check_seed(self.seed, "split seed")


# ---------------------------------------------------------------------------
# File ingestion
# ---------------------------------------------------------------------------


def _sidecar_paths(path):
    path = Path(path)
    stem = path.with_suffix("")
    return path, stem.with_suffix(".annotations.csv"), stem.with_suffix(".meta")


def _read_bytes(path) -> bytes:
    with open(path, "rb", buffering=0) as fh:  # one read, no buffer to fill
        return fh.read()


def _not_utf8(raw, path) -> ParseError:
    """The error for the bytes ``raw`` of ``path``, which are not UTF-8,
    naming the line of their first bad byte."""
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = raw[: exc.start].decode("utf-8")
        # \n, \r and \r\n each end a line, as in universal-newline reading
        line = head.count("\n") + head.count("\r") - head.count("\r\n") + 1
        return ParseError(f"not UTF-8 text: {exc.reason}", path=path, line=line)
    raise AssertionError(f"{path}: a chunk failed to decode but the whole decodes")


def _csv_rows(raw, path, header, what) -> list[list[str]]:
    """The records after the header in the UTF-8 CSV bytes ``raw`` of ``path``,
    split by ``csv.reader`` as from the file opened with ``newline=""``.

    No bytes, a first record other than ``header``, bytes that are not
    UTF-8 or a record the reader rejects (e.g. a field over the csv
    module's size limit) raise :class:`ParseError` naming the line.
    """
    # decoded as read, 8 KiB at a time, as from a file: a record the reader
    # rejects before the chunk of the first bad byte is the error reported
    reader = csv.reader(
        io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", newline="")
    )
    try:
        rows = list(reader)
    except UnicodeDecodeError:
        raise _not_utf8(raw, path) from None
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


def read_csv_body(path, header, what) -> list[list[str]]:
    """The records after the header of a UTF-8 CSV file: see :func:`_csv_rows`."""
    return _csv_rows(_read_bytes(path), path, header, what)


def _parse_float(text, path, line, fieldname):
    try:
        value = float(text)
    except ValueError:
        raise ParseError(
            f"not a number: {text!r}", path=path, line=line, field=fieldname
        ) from None
    if not math.isfinite(value):
        raise ParseError(
            f"non-finite value: {text!r}", path=path, line=line, field=fieldname
        )
    return value


def _parse_int(text, path, line, fieldname):
    try:
        return int(text)
    except ValueError:
        raise ParseError(
            f"not an integer: {text!r}", path=path, line=line, field=fieldname
        ) from None


def _raise_first_row_error(path, body):
    """Raise the ParseError of the first bad signal row, in file order.

    Called only after the bulk conversion in :func:`_read_signal` has
    failed, so some row is bad; it never returns.
    """
    for line_no, row in enumerate(body, start=2):
        if len(row) != 4:
            raise ParseError(
                f"expected 4 columns, got {len(row)}", path=path, line=line_no
            )
        for text, fieldname in zip(row, _SIGNAL_HEADER):
            _parse_float(text, path, line_no, fieldname)
    raise AssertionError(f"{path}: bulk conversion failed but every row parses")


# Over this alphabet ``np.loadtxt`` and ``float`` both end in
# ``PyOS_string_to_double`` and agree value for value.  Outside it they do
# not: ``float`` takes ``1_0`` and non-ASCII digits, ``np.loadtxt`` strips
# ``\x1c``-``\x1f`` around a field.  A byte added here needs the property
# test in tests/test_dataset.py to draw it.
_PLAIN_BYTES = b"0123456789+-.eE,\r\n"


def _read_plain_signal(raw):
    """The (n, 4) values of a plain signal file's bytes, in one C-level pass.

    None for any file that is not plain (see the module docstring), has a
    blank line or a line over the csv field size limit, fewer than two
    rows, a row that is not four numbers or a non-finite value: the csv
    path then decides, so this path accepts only what it accepts and
    gives bit-identical values.
    """
    header = ",".join(_SIGNAL_HEADER).encode()
    if not raw.startswith((header + b"\n", header + b"\r\n")):
        return None
    # past the header's own letters, nothing may be left
    if raw.translate(None, _PLAIN_BYTES) != header.translate(None, _PLAIN_BYTES):
        return None
    # a lone \r ends a csv record
    if b"\r" in raw and raw.count(b"\r") != raw.count(b"\r\n"):
        return None
    limit = csv.field_size_limit()
    if len(raw) > limit:  # only then can a line, and so a field, exceed it
        ends = np.flatnonzero(np.frombuffer(raw, np.uint8) == ord("\n"))
        if np.diff(ends, prepend=-1, append=len(raw)).max() > limit:
            return None
    # csv reads a blank line as a record of 0 columns, an error; loadtxt skips
    # it, so the array comes out short of n_rows.  A blank first body line is
    # refused here: with every body line blank, loadtxt warns "input
    # contained no data".
    n_rows = raw.count(b"\n") - 1 + (not raw.endswith(b"\n"))
    body_start = raw.index(b"\n") + 1
    if n_rows < 2 or raw[body_start : body_start + 1] in (b"\n", b"\r"):
        return None
    try:
        values = np.loadtxt(
            io.BytesIO(raw),
            delimiter=",",
            comments=None,
            quotechar=None,
            ndmin=2,
            skiprows=1,
        )
    except ValueError:
        return None
    if values.shape != (n_rows, 4) or not np.isfinite(values).all():
        return None
    return values


def _read_csv_signal(raw, path):
    """The (n, 4) values of any signal file's bytes, read with ``csv.reader``."""
    body = _csv_rows(raw, path, _SIGNAL_HEADER, "signal")
    # One width check, one conversion of every value with ``float`` and one
    # finiteness check; only when one fails does the row walk find the error.
    values = None
    if set(map(len, body)) <= {4}:
        try:
            values = np.fromiter(
                map(float, chain.from_iterable(body)), np.float64, count=4 * len(body)
            )
        except ValueError:
            pass
    if values is None or not np.isfinite(values).all():
        _raise_first_row_error(path, body)
    if len(body) < 2:
        raise ParseError("signal needs at least 2 rows", path=path, line=2)
    return values.reshape(-1, 4)


def _read_signal(path):
    raw = _read_bytes(path)
    values = _read_plain_signal(raw)
    if values is None:
        values = _read_csv_signal(raw, path)
    return values[:, 0], values[:, 1:]  # views: TimeSeries3D makes the one copy


def _read_annotations(path):
    """Line numbers and annotations of an annotation file, in file order, with
    only their integers checked: :func:`annotation_fault` checks the rest."""
    lines, anns = [], []
    body = read_csv_body(path, ["start_index", "end_index", "label"], "annotation")
    for line_no, row in enumerate(body, start=2):
        if len(row) != 3:
            raise ParseError(
                f"expected 3 columns, got {len(row)}", path=path, line=line_no
            )
        start = _parse_int(row[0], path, line_no, "start_index")
        end = _parse_int(row[1], path, line_no, "end_index")
        lines.append(line_no)
        anns.append(Annotation(start, end, row[2]))
    return lines, anns


def read_key_values(path, keys, what) -> dict:
    """The ``key=value`` lines of a UTF-8 file as ``{key: (line, value)}``.

    Blank lines and ``#`` comments are skipped; keys and values are
    stripped.  Bytes that are not UTF-8, a line without ``=``, a key
    not in ``keys`` (``unknown {what} key``) or a key given twice raise
    :class:`ParseError` naming the line.
    """
    found = {}
    raw = _read_bytes(path)
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError:
        raise _not_utf8(raw, path) from None
    # \n, \r and \r\n each end a line, as in a file opened in text mode
    for line_no, line in enumerate(io.StringIO(text, newline=None), start=1):
        line = line.strip()
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


def _read_metadata(path):
    meta = read_key_values(path, _META_KEYS, "metadata")
    for key in _META_KEYS:
        if key not in meta:
            raise ParseError(f"missing metadata key {key!r}", path=path, field=key)
    return meta


def parse_recording(path) -> Recording:
    """Load and validate a recording from its signal file path.

    Annotation and metadata sidecars are located next to the signal
    file; each of the three files is read once.  Any structural defect
    raises :class:`ParseError` naming the file, line and field.
    """
    sig_path, ann_path, meta_path = _sidecar_paths(path)
    times, samples = _read_signal(sig_path)
    meta = _read_metadata(meta_path)

    fs_line, fs_text = meta["fs_hz"]
    fs = _parse_float(fs_text, meta_path, fs_line, "fs_hz")
    if fs <= 0:
        raise ParseError("fs_hz must be positive", meta_path, fs_line, "fs_hz")
    values = {key: meta[key][1] for key in ("group", "hand", "scenario")}
    values["session"] = _parse_int(
        meta["session"][1], meta_path, meta["session"][0], "session"
    )
    fault = metadata_fault(**values)
    if fault is not None:
        key, message = fault
        raise ParseError(message, path=meta_path, line=meta[key][0], field=key)

    dt = np.diff(times)
    if np.any(dt <= 0):
        bad = int(np.argmax(dt <= 0))
        raise ParseError(
            "time column must be strictly increasing",
            path=sig_path,
            line=bad + 3,  # header + 1-based + offending row
            field="t",
        )
    if np.any(np.abs(dt - 1.0 / fs) > 1e-6 / fs):
        bad = int(np.argmax(np.abs(dt - 1.0 / fs) > 1e-6 / fs))
        raise ParseError(
            f"time column is not uniform at 1/fs_hz = {1.0 / fs}",
            path=sig_path,
            line=bad + 3,
            field="t",
        )

    lines, annotations = _read_annotations(ann_path)
    fault = annotation_fault(annotations, len(samples))
    if fault is not None:
        i, field, message = fault
        raise ParseError(message, path=ann_path, line=lines[i], field=field)

    # every check of the two constructors is made above, naming the file
    series = TimeSeries3D(fs=fs, samples=samples, order=ACCELERATION, checked=True)
    return Recording(
        subject_id=meta["subject_id"][1],
        series=series,
        **values,
        annotations=tuple(annotations),
        checked=True,
    )


def write_recording(rec: Recording, path) -> None:
    """Write a recording's three files; inverse of :func:`parse_recording`.

    Floats are written with ``repr`` (shortest round-trip form), so
    write(parse(f)) is byte-identical for files this writer produced.
    The signal is formatted with one ``%``-call per block of at most
    WRITE_BLOCK rows, its time column ``np.arange(n) / fs``.  A series the
    reader would refuse or misread (fewer than 2 samples, or anything but
    acceleration in m/s^2) raises ContractError before any file is made.
    """
    series = rec.series
    if len(series) < 2:
        raise ContractError(f"signal needs at least 2 rows, got {len(series)}")
    if (series.order, series.unit) != (ACCELERATION, "m/s^2"):
        raise ContractError("only acceleration in m/s^2 can be written, got "
                            f"order {series.order} in {series.unit}")
    sig_path, ann_path, meta_path = _sidecar_paths(path)
    sig_path.parent.mkdir(parents=True, exist_ok=True)

    fs = series.fs
    rows = np.empty((len(series), 4))
    rows[:, 0] = np.arange(len(series)) / fs
    rows[:, 1:] = series.samples
    with sig_path.open("w", encoding="utf-8") as f:
        f.write("t,ax,ay,az\n")
        for block in range(0, len(rows), WRITE_BLOCK):
            chunk = rows[block:block + WRITE_BLOCK]
            f.write("%r,%r,%r,%r\n" * len(chunk) % tuple(chunk.ravel().tolist()))

    lines = ["start_index,end_index,label"]
    lines += [f"{a.start},{a.end},{a.label}" for a in rec.annotations]
    ann_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    meta_path.write_text(
        f"subject_id={rec.subject_id}\n"
        f"group={rec.group}\n"
        f"session={rec.session}\n"
        f"hand={rec.hand}\n"
        f"scenario={rec.scenario}\n"
        f"fs_hz={fs!r}\n",
        encoding="utf-8",
    )


def load_dataset_dir(directory) -> list[Recording]:
    """Parse every ``*.csv`` signal file in a directory, in name order; a path
    that is not a directory raises NotADirectoryError naming it."""
    directory = Path(directory)
    try:
        # child paths made by iterdir, unlike ``directory / name``, do not
        # put every file name into the interpreter's interned strings
        paths = sorted(directory.iterdir())
    except (FileNotFoundError, NotADirectoryError):
        raise NotADirectoryError(f"{directory} is not a directory") from None
    return [
        parse_recording(path)
        for path in paths
        if path.name.endswith(".csv") and not path.name.endswith(".annotations.csv")
    ]


# ---------------------------------------------------------------------------
# Epoch extraction, splitting, augmentation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EpochSet:
    """Key-movement epochs of one length W as arrays: ``x`` is C-contiguous
    (N, 3, W) float64, the network's (channel, time) layout.  Row i has class
    ``labels[i]`` (an index into KEY_MOVEMENTS) and came from samples
    [starts[i], ends[i]) of its recording."""

    x: np.ndarray
    labels: np.ndarray
    starts: np.ndarray
    ends: np.ndarray


def extract_epochs(recordings, w: int) -> EpochSet:
    """One length-``w`` epoch per key-movement annotation of a list of recordings.

    Rows follow the recordings, then their annotations.  Each M1..M4
    segment is linearly resampled to ``w`` points: ``np.interp`` over
    source times 0..n-1 at ``linspace(0, n-1, w)``, per axis, with both
    endpoints kept exactly.  Distractors are ignored and segments shorter
    than 2 samples skipped.  The segments are counted first; each
    recording's rows are then written in one vectorised step.
    """
    if w < 2:
        raise ContractError(f"epoch length must be >= 2, got {w}")
    used = [[a for a in r.annotations if is_key_movement(a.label) and a.end - a.start > 1]
            for r in recordings]
    flat = [a for anns in used for a in anns]
    starts = np.array([a.start for a in flat], dtype=np.int64)
    ends = np.array([a.end for a in flat], dtype=np.int64)
    x = np.empty((len(flat), 3, w))
    row = 0
    for rec, anns in zip(recordings, used):
        k, samples = slice(row, row + len(anns)), rec.series.samples
        # np.interp reads (y[j+1] - y[j]) * frac + y[j] on [j, j+1), but y[j]
        # itself where frac == 0 (the endpoints; every point when n == w), even
        # on overflow
        t = np.linspace(0.0, ends[k] - starts[k] - 1.0, w, axis=-1)
        j = t.astype(np.int64)
        frac = (t - j)[..., None]
        at = starts[k, None] + j
        y0 = samples[at]  # (segments, w, 3)
        with np.errstate(over="ignore", invalid="ignore"):
            y = (samples[np.minimum(at + 1, ends[k, None] - 1)] - y0) * frac + y0
        x[k] = np.where(frac == 0, y0, y).transpose(0, 2, 1)
        row += len(anns)
    if not np.isfinite(x).all():  # a difference y[j+1] - y[j] overflowed
        raise InvalidDataError("samples contain NaN or Inf")
    return EpochSet(
        x=x,
        labels=np.array([KEY_MOVEMENTS.index(a.label) for a in flat], dtype=np.int64),
        starts=starts,
        ends=ends,
    )


def split_train_test(labels, cfg: SplitConfig):
    """Disjoint, exhaustive train/test partition of the rows with class ``labels``.

    Returns (train, test) row-index arrays, deterministic in the seed.
    Always stratified: shuffles within each movement class and takes
    round(n_class * train_fraction) training rows per class (rounding
    half-up); classes follow KEY_MOVEMENTS order.
    """
    labels = np.asarray(labels)
    by_class = [np.flatnonzero(labels == k) for k in range(len(KEY_MOVEMENTS))]
    empty = [m for m, rows in zip(KEY_MOVEMENTS, by_class) if not len(rows)]
    if empty:
        raise ContractError(f"stratified split with empty class(es): {empty}")

    rng = np.random.default_rng(cfg.seed)
    train, test = [], []
    for rows in by_class:
        order = rng.permutation(len(rows))
        cut = int(np.floor(len(rows) * cfg.train_fraction + 0.5))
        train.append(rows[order[:cut]])
        test.append(rows[order[cut:]])
    return np.concatenate(train), np.concatenate(test)


def augment_offsets(n: int, w: int, max_frac: float, rng) -> np.ndarray:
    """``n`` circular time shifts for length-``w`` epochs, each uniform over the
    integers in [-max_frac*w, +max_frac*w]: one draw, yielding what n scalar
    draws would and advancing ``rng`` as they do."""
    if not (0.0 <= max_frac <= 0.5):
        raise ContractError(f"max_frac must be in [0, 0.5], got {max_frac}")
    span = int(max_frac * w)
    return rng.integers(-span, span + 1, size=n)


def shifted_rows(x, rows, offsets) -> np.ndarray:
    """Rows ``rows`` of the (N, C, W) array ``x``, row i circularly shifted in
    time by ``offsets[i]`` (``np.roll`` along the last axis), in one gather."""
    time = (np.arange(x.shape[2]) - offsets[:, None]) % x.shape[2]
    return x[rows[:, None, None], np.arange(x.shape[1])[:, None], time[:, None, :]]
