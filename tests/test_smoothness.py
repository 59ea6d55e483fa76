"""Smoothness statistics, cohort contrast, session evolution, reports."""

import csv
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinemotion import bundled_table
from kinemotion.dataset import KEY_MOVEMENTS, Annotation, Recording, is_key_movement
from kinemotion.errors import ContractError, DegenerateInputError, InvalidDataError
from kinemotion.kinematics import TimeSeries3D, differentiate
from kinemotion.smoothness import (
    COHORTS,
    EQUAL,
    HEALTHY_HIGHER,
    PATIENT_HIGHER,
    STATISTICS,
    ReferenceTable,
    SmoothnessSet,
    compare_cohort_table,
    evolution_from_table,
    load_table,
    render_report,
    smoothness_set,
    table_from_records,
)


def record(group="patient", session=1, movement="M1", jerk=(0.0, 1.0, -1.0),
           squared=(1.0, 2.0, 0.0)):
    return group, session, movement, jerk, squared


def as_set(records):
    """A SmoothnessSet of subject P9 with one row per record; each (mean,
    max, min) triple is the same on all three axes."""
    groups, sessions, movements, jerk, squared = zip(*records)
    stats = np.array([jerk, squared], dtype=float).transpose(1, 0, 2)
    return SmoothnessSet(
        stats=np.repeat(stats[..., None], 3, axis=-1),
        subject_ids=np.array(["P9"] * len(records)),
        groups=np.array(groups),
        sessions=np.array(sessions),
        movements=np.array(movements),
    )


def cohort_table(healthy, patient):
    """A cohort ReferenceTable from two {movement: {statistic: value}} columns."""
    return ReferenceTable("cohort", COHORTS, {
        m: {s: {"healthy": healthy[m][s], "patient": patient[m][s]} for s in STATISTICS}
        for m in healthy
    })


def session_table(means):
    """A session ReferenceTable from {movement: {session: mean}}; max and min
    repeat the means."""
    columns = tuple(sorted({s for sessions in means.values() for s in sessions}))
    return ReferenceTable("session", columns, {
        m: {s: dict(sessions) for s in STATISTICS} for m, sessions in means.items()
    })


def one_segment(samples, fs=50.0, label="M1"):
    """A recording whose single annotation covers all of ``samples``."""
    samples = np.asarray(samples, dtype=float)
    return Recording("P9", "patient", 1, "dominant", "L1",
                     TimeSeries3D(fs=fs, samples=samples),
                     (Annotation(0, len(samples), label),))


def left_to_right_mean(values):
    total = 0.0
    for value in values:
        total += value
    return total / len(values)


def reference_stats(recordings):
    """Per-key-segment statistics the long way, one segment and one measure
    at a time: differentiate, square, then accumulate, max and min."""
    rows = []
    for rec in recordings:
        for a in rec.annotations:
            if is_key_movement(a.label):
                jerk = differentiate(rec.series.slice(a.start, a.end)).samples
                rows.append([
                    [np.add.accumulate(v, axis=0)[-1] / len(v), v.max(axis=0), v.min(axis=0)]
                    for v in (jerk, jerk**2)
                ])
    return np.array(rows).reshape(-1, 2, 3, 3)


class TestMovementSmoothness:
    def test_constant_acceleration_gives_zero_everything(self):
        stats = smoothness_set([one_segment(np.full((40, 3), 2.5))]).stats
        assert stats.shape == (1, 2, 3, 3) and np.all(stats == 0)

    def test_linear_ramp_jerk_is_one(self):
        samples = np.zeros((10, 3))
        samples[:, 0] = np.arange(10.0)
        stats = smoothness_set([one_segment(samples, fs=1.0)]).stats
        mean, maximum, minimum = stats[0, 0, :, 0]  # jerk, all statistics, x
        assert mean == maximum == minimum == 1.0

    def test_composition_matches_manual_pipeline(self):
        rng = np.random.default_rng(1)
        rec = one_segment(rng.normal(size=(64, 3)))
        np.testing.assert_array_equal(smoothness_set([rec]).stats, reference_stats([rec]))

    def test_too_short_segment_rejected(self):
        with pytest.raises(DegenerateInputError, match="too short for jerk computation: 2"):
            smoothness_set([one_segment(np.zeros((2, 3)))])


# key-segment samples: signed zeros and small integers, so that ties and
# -0.0 jerk occur, and finite floats too small to overflow jerk statistics
_KEY_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0]), st.integers(-3, 3).map(float), st.floats(-1e100, 1e100)
)
# distractor and unannotated samples: overflow a central difference taken
# across a segment boundary
_EXTREME_VALUES = st.sampled_from([1.7e308, -1.7e308, -0.0, 1e300])


@st.composite
def annotated_recordings(draw):
    """One to three recordings laid out as runs of 3- to 9-sample pieces:
    key segments (adjacent or not, at either end), distractors and gaps."""
    recordings = []
    for k in range(draw(st.integers(1, 3), label="recordings")):
        fs = draw(st.sampled_from([1.0, 0.3, 50.0, 100.0]), label="fs")
        pieces = draw(st.lists(
            st.tuples(st.sampled_from(KEY_MOVEMENTS + ("R3", "R17", None)), st.integers(3, 9)),
            min_size=1, max_size=6,
        ), label="pieces")
        chunks, annotations, cursor = [], [], 0
        for label, n in pieces:
            values = _KEY_VALUES if label in KEY_MOVEMENTS else _EXTREME_VALUES
            chunks.append(draw(st.lists(values, min_size=3 * n, max_size=3 * n)))
            if label is not None:
                annotations.append(Annotation(cursor, cursor + n, label))
            cursor += n
        group, session = draw(st.sampled_from([("healthy", 1), ("patient", 1), ("patient", 3)]))
        series = TimeSeries3D(fs=fs, samples=np.reshape(sum(chunks, []), (cursor, 3)))
        recordings.append(Recording(f"S{k}", group, session, "dominant", "L1", series,
                                    tuple(annotations)))
    return recordings


class TestSmoothnessSet:
    @settings(max_examples=200, deadline=None)
    @given(recordings=annotated_recordings())
    def test_rows_equal_the_per_segment_reference_bit_for_bit(self, recordings):
        keys = [(r, a) for r in recordings for a in r.annotations if is_key_movement(a.label)]
        got = smoothness_set(recordings)
        want = reference_stats(recordings)
        # the same bytes, so -0.0 and 0.0 differ
        assert got.stats.tobytes() == want.tobytes()
        assert np.all(got.stats[:, 1] >= 0)  # squared jerk is never negative
        assert got.subject_ids.tolist() == [r.subject_id for r, _ in keys]
        assert got.groups.tolist() == [r.group for r, _ in keys]
        assert got.sessions.tolist() == [r.session for r, _ in keys]
        assert got.movements.tolist() == [a.label for _, a in keys]


class TestAggregation:
    def test_mean_of_means_max_of_maxes_min_of_mins(self):
        records = [
            record("healthy", jerk=(1.0, 10.0, -5.0)),
            record("healthy", jerk=(3.0, 4.0, -9.0)),
        ]
        table = table_from_records(as_set(records), "cohort", "jerk")
        assert table.kind == "cohort" and table.columns == COHORTS
        assert table.cell("M1", "mean", "healthy") == 2.0
        assert table.cell("M1", "max", "healthy") == 10.0
        assert table.cell("M1", "min", "healthy") == -9.0
        assert "patient" not in table.values["M1"]["mean"]

    def test_pools_of_nine_or_more_sum_left_to_right(self):
        # one large mean and eight ones: added in order each +1 rounds
        # away, while numpy's 1-D pairwise sum adds the ones first
        means = [2.0**53] + [1.0] * 8
        session = as_set([record(session=1, squared=(m, m, 0.0)) for m in means])
        cohort = as_set([record(group, squared=(m, m, 0.0))
                         for group in COHORTS for m in means])
        expected = left_to_right_mean(means)
        assert table_from_records(session, "session", "squared_jerk").cell(
            "M1", "mean", 1) == expected
        table = table_from_records(cohort, "cohort", "squared_jerk")
        for group in COHORTS:
            assert table.cell("M1", "mean", group) == expected

    def test_equal_extremes_keep_the_first_segments_signed_zero(self):
        # report bytes differ ("-0" against "0"); numpy's max and min may
        # pick either zero
        for first, second in ((-0.0, 0.0), (0.0, -0.0)):
            sset = as_set([record(jerk=(0.0, z, z)) for z in (first, second)])
            table = table_from_records(sset, "session", "jerk")
            for statistic in ("max", "min"):
                assert np.signbit(table.cell("M1", statistic, 1)) == np.signbit(first)

    def test_axis_picks_the_column(self):
        sset = as_set([record()])
        sset.stats[0, 1] = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [0.0] * 3]
        table = table_from_records(sset, "session", "squared_jerk", axis="y")
        assert [table.cell("M1", s, 1) for s in ("mean", "max", "min")] == [2.0, 5.0, 0.0]

    def test_rows_pick_the_segments_pooled(self):
        sset = as_set([record(session=s, squared=(m, m, 0.0))
                       for s, m in ((1, 4.0), (2, 8.0), (1, 6.0))])
        table = table_from_records(sset, "session", "squared_jerk",
                                   rows=np.array([False, True, True]))
        assert table.columns == (1, 2)
        assert table.cell("M1", "mean", 1) == 6.0 and table.cell("M1", "mean", 2) == 8.0

    def test_overflowing_pooled_mean_names_movement_and_column(self):
        # tests/test_cli.py checks a session column through assess --data
        sset = as_set([record(movement="M2", squared=(1e308, 1e308, 0.0))] * 2)
        with pytest.raises(InvalidDataError,
                           match="^pooled squared_jerk mean of M2 patient overflows"):
            table_from_records(sset, "cohort", "squared_jerk")


class TestCohortCompare:
    def test_identical_cohorts_are_equal_with_unit_ratio(self):
        records = [
            record(group, movement=m, jerk=(1.5, 9.0, -3.0))
            for group in COHORTS
            for m in ("M1", "M2", "M3", "M4")
        ]
        comparison = compare_cohort_table(table_from_records(as_set(records), "cohort", "jerk"))
        for (movement, statistic), cell in comparison.cells.items():
            assert cell.direction == EQUAL
            assert cell.ratio == 1.0

    def test_direction_antisymmetry(self):
        rng = np.random.default_rng(2)
        healthy = {
            m: {"mean": rng.normal(), "max": rng.uniform(1, 5), "min": -rng.uniform(1, 5)}
            for m in ("M1", "M2", "M3", "M4")
        }
        patient = {
            m: {"mean": rng.normal(), "max": rng.uniform(1, 5), "min": -rng.uniform(1, 5)}
            for m in ("M1", "M2", "M3", "M4")
        }
        forward = compare_cohort_table(cohort_table(healthy, patient))
        backward = compare_cohort_table(cohort_table(patient, healthy))
        swap = {HEALTHY_HIGHER: PATIENT_HIGHER, PATIENT_HIGHER: HEALTHY_HIGHER, EQUAL: EQUAL}
        for key, cell in forward.cells.items():
            assert backward.cells[key].direction == swap[cell.direction]

    def test_missing_movement_is_named(self):
        # a table built from records is ragged where one cohort lacks a movement
        records = [record("healthy", movement=m) for m in ("M1", "M2", "M3", "M4")]
        records += [record("patient", movement=m) for m in ("M1", "M2", "M3")]
        table = table_from_records(as_set(records), "cohort", "jerk")
        with pytest.raises(ContractError, match="movement M4 missing from a cohort"):
            compare_cohort_table(table)

    def test_reference_jerk_table_contrast(self):
        # published cohort result: patients' M3 mean-jerk magnitude is
        # about 0.7x the healthy one, and the healthy max is higher for
        # every movement
        table = load_table(bundled_table("cohort_jerk"))
        comparison = compare_cohort_table(table)
        assert comparison.cell("M3", "mean").ratio == pytest.approx(0.708, abs=0.005)
        for movement in ("M1", "M2", "M3", "M4"):
            assert comparison.cell(movement, "max").direction == HEALTHY_HIGHER

    def test_reference_squared_jerk_means_all_healthy_higher(self):
        table = load_table(bundled_table("cohort_squared_jerk"))
        comparison = compare_cohort_table(table)
        for movement in ("M1", "M2", "M3", "M4"):
            assert comparison.cell(movement, "mean").direction == HEALTHY_HIGHER


class TestSessionEvolution:
    def test_patient_102_m4_improves_in_all_later_sessions(self):
        means = {"M4": {1: 1.90, 2: 1.25, 3: 1.67, 4: 0.84}}
        flags = evolution_from_table(session_table(means))
        assert flags.improved("M4") == frozenset({2, 3, 4})

    def test_patient_100_m2_never_improves(self):
        means = {"M2": {1: 4.17, 2: 9.07, 3: 12.74, 4: 19.92}}
        flags = evolution_from_table(session_table(means))
        assert flags.improved("M2") == frozenset()

    def test_patient_101_m1_improves_throughout(self):
        means = {"M1": {1: 7.61, 2: 2.62, 3: 4.63, 4: 5.23}}
        flags = evolution_from_table(session_table(means))
        assert flags.improved("M1") == frozenset({2, 3, 4})

    def test_all_sessions_equal_means_no_improvement(self):
        means = {"M1": {1: 2.0, 2: 2.0, 3: 2.0, 4: 2.0}}
        flags = evolution_from_table(session_table(means))
        assert flags.improved("M1") == frozenset()

    def test_missing_baseline_rejected(self):
        with pytest.raises(ContractError, match="session 1"):
            evolution_from_table(session_table({"M1": {2: 1.0, 3: 2.0}}))

    def test_missing_later_session_simply_absent(self):
        flags = evolution_from_table(session_table({"M1": {1: 5.0, 3: 1.0}}))
        assert flags.improved("M1") == frozenset({3})

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            means = {
                "M2": {s: float(rng.uniform(0.1, 10)) for s in (1, 2, 3, 4)}
            }
            base = evolution_from_table(session_table(means))
            factor = float(rng.uniform(0.01, 100))
            scaled = evolution_from_table(
                session_table({"M2": {s: v * factor for s, v in means["M2"].items()}})
            )
            assert base.improved("M2") == scaled.improved("M2")

    def test_records_pathway_aggregates_segment_means(self):
        records = [
            record(session=session, squared=(mean, mean * 10, 0.0))
            for session, mean in ((1, 4.0), (1, 6.0), (2, 2.0), (3, 9.0))
        ]
        flags = evolution_from_table(table_from_records(as_set(records), "session", "squared_jerk"))
        assert flags.movements["M1"].baseline == 5.0  # mean of 4 and 6
        assert flags.improved("M1") == frozenset({2})


PATIENT_EXPECTATIONS = {
    "patient_100": {
        "M1": {3, 4},
        "M2": set(),
        "M3": {2, 3, 4},
        "M4": {3},
    },
    "patient_101": {
        "M1": {2, 3, 4},
        "M2": set(),
        "M3": set(),
        "M4": set(),
    },
    "patient_102": {
        "M1": {2},
        "M2": {3, 4},
        "M3": {4},
        "M4": {2, 3, 4},
    },
    "patient_103": {
        "M1": set(),
        "M2": {3},
        "M3": {4},
        "M4": {3, 4},
    },
}


class TestReferenceEvolutionTables:
    @pytest.mark.parametrize("name", sorted(PATIENT_EXPECTATIONS))
    def test_improvement_sets_match_published_claims(self, name):
        flags = evolution_from_table(load_table(bundled_table(name)))
        for movement, expected in PATIENT_EXPECTATIONS[name].items():
            assert flags.improved(movement) == frozenset(expected), (name, movement)

    def test_three_patients_improve_in_three_or_more_movements(self):
        for name in ("patient_100", "patient_102", "patient_103"):
            flags = evolution_from_table(load_table(bundled_table(name)))
            improved = [m for m in flags.movements if flags.improved(m)]
            assert len(improved) >= 3, name


class TestLoadTable:
    def test_cohort_and_session_detection(self):
        assert load_table(bundled_table("cohort_jerk")).kind == "cohort"
        assert load_table(bundled_table("patient_100")).kind == "session"

    def test_rejects_bad_header(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,c\n")
        from kinemotion.errors import ParseError

        with pytest.raises(ParseError):
            load_table(bad)

    @pytest.mark.parametrize(
        "junk, message",
        [(b"\xff", "not UTF-8"), (b"9" * 140_000, "field larger than field limit")],
        ids=["non-utf8", "long-field"],
    )
    def test_malformed_bytes_raise_parse_error_with_line(self, tmp_path, junk, message):
        from kinemotion.errors import ParseError

        bad = tmp_path / "bad.csv"
        bad.write_bytes(
            b"movement,statistic,cohort_or_session,value\n"
            b"M1,mean,healthy,1.5\nM1,mean,patient,2" + junk + b"\n"
        )
        with pytest.raises(ParseError, match=message) as err:
            load_table(bad)
        assert err.value.path == bad and err.value.line == 3

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_rejects_non_finite_value_with_line(self, tmp_path, value):
        from kinemotion.errors import ParseError

        bad = tmp_path / "bad.csv"
        bad.write_text(
            "movement,statistic,cohort_or_session,value\n"
            f"M1,mean,healthy,1.5\nM1,mean,patient,{value}\n"
        )
        with pytest.raises(ParseError) as err:
            load_table(bad)
        assert err.value.line == 3 and err.value.field == "value"

    @pytest.mark.parametrize("session", ["\u00b2", "0", "-1", "one"])
    def test_session_must_be_an_integer_from_one(self, tmp_path, session):
        from kinemotion.errors import ParseError

        bad = tmp_path / "bad.csv"
        bad.write_text(
            "movement,statistic,cohort_or_session,value\n"
            f"M1,mean,1,1.5\nM1,mean,{session},2.5\n",
            encoding="utf-8",
        )
        with pytest.raises(ParseError) as err:
            load_table(bad)
        assert err.value.path == bad
        assert err.value.line == 3 and err.value.field == "cohort_or_session"


def table_without(tmp_path, name, drop):
    """A bundled table written to ``tmp_path`` without the rows ``drop`` matches."""
    lines = bundled_table(name).read_text().splitlines()
    kept = [lines[0]] + [l for l in lines[1:] if not drop(l.split(","))]
    assert len(kept) < len(lines)
    path = tmp_path / f"{name}.csv"
    path.write_text("\n".join(kept) + "\n")
    return path


# a session column missing for one movement, a missing cohort cell and a
# movement with no mean rows; each names the first cell it lacks
INCOMPLETE_TABLES = {
    "session-column": ("patient_100", lambda r: r[0] == "M2" and r[2] == "4", "M2 mean 4"),
    "cohort-cell": ("cohort_jerk", lambda r: r[:3] == ["M3", "min", "patient"],
                    "M3 min patient"),
    "no-mean-rows": ("cohort_squared_jerk", lambda r: r[:2] == ["M4", "mean"],
                     "M4 mean healthy"),
}


class TestTableCompleteness:
    @pytest.mark.parametrize("shape", sorted(INCOMPLETE_TABLES))
    def test_incomplete_table_names_the_missing_cell(self, tmp_path, shape):
        from kinemotion.errors import ParseError

        name, drop, cell = INCOMPLETE_TABLES[shape]
        path = table_without(tmp_path, name, drop)
        with pytest.raises(ParseError, match=f"missing cell {cell}") as err:
            load_table(path)
        assert err.value.path == path

    @pytest.mark.parametrize("name", ["cohort_jerk", "patient_101"])
    def test_repeated_cell_names_line_and_field(self, tmp_path, name):
        from kinemotion.errors import ParseError

        lines = bundled_table(name).read_text().splitlines()
        path = tmp_path / f"{name}.csv"
        path.write_text("\n".join(lines + [lines[3]]) + "\n")
        with pytest.raises(ParseError, match="repeated cell") as err:
            load_table(path)
        assert err.value.line == len(lines) + 1
        assert err.value.field == "cohort_or_session"

    def test_columns_are_ordered(self):
        assert load_table(bundled_table("cohort_jerk")).columns == ("healthy", "patient")
        assert load_table(bundled_table("patient_103")).columns == (1, 2, 3, 4)

class TestRenderReport:
    def test_cohort_table_csv_shows_published_means(self):
        table = load_table(bundled_table("cohort_squared_jerk"))
        text = render_report(table, "csv")
        rows = {r["movement"]: r for r in csv.DictReader(io.StringIO(text))}
        assert rows["M1"]["mean_healthy"] == "19.96"
        assert rows["M1"]["mean_patient"] == "7.65"
        header = text.splitlines()[0].split(",")
        assert header == [
            "movement",
            "mean_healthy",
            "mean_patient",
            "max_healthy",
            "max_patient",
            "min_healthy",
            "min_patient",
        ]

    def test_empty_flags_render_header_only(self):
        from kinemotion.smoothness import ImprovementFlags

        text = render_report(ImprovementFlags(axis="x", movements={}), "csv")
        assert text.strip() == "movement,baseline,improved_sessions"

    def test_csv_and_json_agree(self):
        table = load_table(bundled_table("cohort_jerk"))
        text = render_report(table, "csv")
        payload = json.loads(render_report(table, "json"))
        for row in csv.DictReader(io.StringIO(text)):
            movement = row["movement"]
            for statistic in ("mean", "max", "min"):
                for cohort in ("healthy", "patient"):
                    rendered = float(row[f"{statistic}_{cohort}"])
                    assert rendered == pytest.approx(
                        payload[movement][statistic][cohort], rel=1e-5
                    )

    def test_flags_csv_and_json_agree(self):
        flags = evolution_from_table(load_table(bundled_table("patient_102")))
        text = render_report(flags, "csv")
        payload = json.loads(render_report(flags, "json"))
        for row in csv.DictReader(io.StringIO(text)):
            movement = row["movement"]
            sessions = (
                sorted(int(s) for s in row["improved_sessions"].split(";"))
                if row["improved_sessions"]
                else []
            )
            assert sessions == payload["movements"][movement]["improved_sessions"]

    def test_session_table_renders_all_sessions(self):
        table = load_table(bundled_table("patient_103"))
        lines = render_report(table, "csv").splitlines()
        assert lines[0].split(",")[1:5] == [
            "mean_session1",
            "mean_session2",
            "mean_session3",
            "mean_session4",
        ]
        assert len(lines) == 5

    def test_six_significant_digits(self):
        table = ReferenceTable(
            kind="cohort",
            columns=COHORTS,
            values={
                "M1": {
                    "mean": {"healthy": 1.23456789, "patient": 0.000123456789},
                    "max": {"healthy": 123456.789, "patient": 1.0},
                    "min": {"healthy": 0.0, "patient": -9.87654321},
                }
            }
        )
        text = render_report(table, "csv")
        row = text.splitlines()[1].split(",")
        assert row[1] == "1.23457"
        assert row[2] == "0.000123457"
        assert row[3] == "123457"


class TestReportJson:
    def zero_healthy_comparison(self):
        healthy = {m: {"mean": 0.0, "max": 2.0, "min": -1.0} for m in ("M1", "M2", "M3", "M4")}
        patient = {m: {"mean": 3.0, "max": 2.0, "min": -1.0} for m in ("M1", "M2", "M3", "M4")}
        return compare_cohort_table(cohort_table(healthy, patient))

    def test_infinite_ratio_is_null_in_json(self):
        comparison = self.zero_healthy_comparison()
        assert comparison.cell("M1", "mean").ratio == float("inf")

        def no_constants(name):
            raise AssertionError(f"non-standard JSON constant {name}")

        payload = json.loads(render_report(comparison, "json"), parse_constant=no_constants)
        cells = {(c["movement"], c["statistic"]): c for c in payload["cells"]}
        assert cells[("M1", "mean")]["ratio"] is None
        assert cells[("M1", "max")]["ratio"] == 1.0
        rows = list(csv.DictReader(io.StringIO(render_report(comparison, "csv"))))
        assert {r["ratio"] for r in rows if r["statistic"] == "mean"} == {"inf"}

    @pytest.mark.parametrize(
        "name",
        ["cohort_jerk", "cohort_squared_jerk", "patient_100", "patient_101", "patient_102",
         "patient_103"],
    )
    def test_bundled_tables_render_strict_json(self, name):
        def no_constants(constant):
            raise AssertionError(f"non-standard JSON constant {constant}")

        table = load_table(bundled_table(name))
        derived = (
            compare_cohort_table(table) if table.kind == "cohort"
            else evolution_from_table(table)
        )
        for obj in (table, derived):
            json.loads(render_report(obj, "json"), parse_constant=no_constants)
