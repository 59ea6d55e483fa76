"""`report` and `assess` outputs, byte for byte.

``tests/golden/report`` holds what ``kinemotion report`` writes for each
bundled table and ``tests/golden/assess/<table>`` what ``kinemotion assess
--fixtures`` writes.  The files were written before the reference tables
and their renderers were merged into one type and one render path; a
difference here is a change of output, not of design.

``tests/golden/assess_data`` holds what ``kinemotion assess --data`` writes
for the recordings of :func:`write_assess_data`, written before the data
path was moved onto the reference-table comparison and flags.

``tests/golden/train/w<window>`` holds what :func:`train_golden` gives:
``train_log.csv``, ``confusion.csv`` and ``param_sums.csv`` (the sum of
each parameter array of the final model).  Losses and sums are compared to
1e-9 relative, so a last-bit difference of BLAS passes; accuracies and the
confusion matrix exactly.  ``python tests/regenerate_train_golden.py``
rewrites them, for a change that moves training's numbers on purpose.
"""

import csv
import io
from pathlib import Path

import numpy as np
import pytest

from kinemotion import bundled_table
from kinemotion.cli import run
from kinemotion.dataset import Annotation, Recording, write_recording
from kinemotion.kinematics import ACCELERATION, TimeSeries3D
from kinemotion.nn import load_checkpoint

GOLDEN = Path(__file__).parent / "golden"
TABLES = [
    "cohort_jerk",
    "cohort_squared_jerk",
    "patient_100",
    "patient_101",
    "patient_102",
    "patient_103",
]


def assert_same_files(out, expected_dir, names):
    assert sorted(p.name for p in out.iterdir()) == sorted(names)
    for name in names:
        assert (out / name).read_bytes() == (expected_dir / name).read_bytes(), name


@pytest.mark.parametrize("table", TABLES)
def test_report_matches_golden(tmp_path, table):
    assert run(["report", "--fixtures", str(bundled_table(table)), "--out", str(tmp_path)]) == 0
    assert_same_files(tmp_path, GOLDEN / "report", [f"{table}.csv", f"{table}.json"])


@pytest.mark.parametrize("table", TABLES)
def test_assess_fixtures_matches_golden(tmp_path, table):
    assert run(["assess", "--fixtures", str(bundled_table(table)), "--out", str(tmp_path)]) == 0
    expected = GOLDEN / "assess" / table
    assert_same_files(tmp_path, expected, [p.name for p in expected.iterdir()])


# (subject, group, session, segment labels in order) of each recording; a
# label listed twice pools two segments, and R3/R5 are distractors that
# assess skips.  Every pool, cohort or session, has fewer than 8 segments.
ASSESS_DATA = [
    ("H01", "healthy", 1, ("M1", "M2", "M3", "M4")),
    ("H02", "healthy", 1, ("M1", "M2", "R3", "M3", "M4", "M4")),
    ("P07", "patient", 1, ("M1", "M2", "M3", "M4")),
    ("P07", "patient", 2, ("M1", "M1", "M2", "M3", "M4")),
    ("P07", "patient", 3, ("M1", "M2", "M3", "M4", "R5")),
    ("P08", "patient", 1, ("M1", "M2", "M3", "M4")),
    ("P08", "patient", 2, ("M1", "M2", "M3", "M4")),
    ("P08", "patient", 3, ("M4", "M3", "M2", "M2", "M1")),
]


def write_assess_data(out_dir):
    """Recordings from integer arithmetic only: no random draws, no
    transcendental functions.

    Every sample is a multiple of 1/8, so jerk, squared jerk and their
    per-segment sums are exact in float64 on any numpy; only the
    divisions by a count round.
    """
    gap = np.zeros((5, 3))
    for k, (subject, group, session, labels) in enumerate(ASSESS_DATA):
        chunks, annotations, cursor = [gap], [], len(gap)
        for j, label in enumerate(labels):
            n = 12 + (5 * j + 3 * k) % 9
            i = np.arange(n)[:, None]
            a = np.arange(3)[None, :]
            codes = (i * i * (a + 2) + i * (j + 3 * session) + 5 * k + a) % 23 - 11
            scale = 1 + (k + j) % 3 if group == "patient" else 1
            chunks += [codes * scale / 8.0, gap]
            annotations.append(Annotation(cursor, cursor + n, label))
            cursor += n + len(gap)
        series = TimeSeries3D(
            fs=50.0, samples=np.concatenate(chunks, axis=0), order=ACCELERATION
        )
        rec = Recording(subject, group, session, "dominant", "L1", series,
                        tuple(annotations))
        write_recording(rec, Path(out_dir) / f"{subject}_s{session}.csv")


def test_assess_data_matches_golden(tmp_path):
    write_assess_data(tmp_path / "data")
    out = tmp_path / "out"
    assert run(["assess", "--data", str(tmp_path / "data"), "--out", str(out)]) == 0
    expected = GOLDEN / "assess_data"
    assert_same_files(out, expected, [p.name for p in expected.iterdir()])


TRAIN_WINDOWS = (128, 256)


def write_train_data(out_dir):
    """The training golden's dataset: synth 12 segments per class, seed 1."""
    assert run(["synth", "--n-per-class", "12", "--seed", "1", "--out", str(out_dir)]) == 0


def train_golden(data_dir, out_dir, window):
    """{file name: text} of ``train --epochs 3 --seed 1`` at ``window``."""
    assert run(["train", "--data", str(data_dir), "--out", str(out_dir), "--epochs", "3",
                "--seed", "1", "--window", str(window)]) == 0
    params = load_checkpoint(Path(out_dir) / "model.knm").net.parameters()
    sums = "".join(f"{name},{float(arr.sum())!r}\n" for name, arr in params.items())
    files = {name: (Path(out_dir) / name).read_text(encoding="utf-8")
             for name in ("train_log.csv", "confusion.csv")}
    return {**files, "param_sums.csv": "name,sum\n" + sums}


def csv_rows(text):
    return list(csv.reader(io.StringIO(text)))


@pytest.fixture(scope="module")
def train_data(tmp_path_factory):
    path = tmp_path_factory.mktemp("train") / "data"
    write_train_data(path)
    return path


@pytest.mark.parametrize("window", TRAIN_WINDOWS)
def test_training_matches_golden(train_data, tmp_path, window):
    got = train_golden(train_data, tmp_path, window)
    expected = {name: (GOLDEN / "train" / f"w{window}" / name).read_text(encoding="utf-8")
                for name in got}
    assert got["confusion.csv"] == expected["confusion.csv"]
    log, want_log = csv_rows(got["train_log.csv"]), csv_rows(expected["train_log.csv"])
    assert [row[:1] + row[2:] for row in log] == [row[:1] + row[2:] for row in want_log]
    losses = [float(row[1]) for row in log[1:]]
    np.testing.assert_allclose(losses, [float(row[1]) for row in want_log[1:]],
                               rtol=1e-9, atol=0)
    sums, want_sums = csv_rows(got["param_sums.csv"]), csv_rows(expected["param_sums.csv"])
    assert [row[0] for row in sums] == [row[0] for row in want_sums]
    np.testing.assert_allclose([float(row[1]) for row in sums[1:]],
                               [float(row[1]) for row in want_sums[1:]], rtol=1e-9, atol=0)
