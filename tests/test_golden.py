"""`report` and `assess --fixtures` outputs of the bundled tables, byte for byte.

``tests/golden/report`` holds what ``kinemotion report`` writes for each
bundled table and ``tests/golden/assess/<table>`` what ``kinemotion assess
--fixtures`` writes.  The files were written before the reference tables
and their renderers were merged into one type and one render path; a
difference here is a change of output, not of design.
"""

from pathlib import Path

import pytest

from kinemotion import bundled_table
from kinemotion.cli import run

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
