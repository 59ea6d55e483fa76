"""``cli.run`` on boundary argv: an exit code in {0, 1, 2}, never a traceback.

Each drawn command line mixes the right inputs with boundary values (0, -1,
nan, inf, 10**12, a directory, a missing file, a non-UTF-8 file) for the
subcommands that only read their inputs; ``train`` is left out, as its cost
grows with what is drawn.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kinemotion import bundled_table
from kinemotion.cli import run

NUMBERS = ("0", "-1", "nan", "inf", "-inf", str(10**12), "1", "0.5")
BAD_PATHS = ("directory", "missing", "non_utf8")


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A synth 3/class directory, a 1-epoch checkpoint and boundary paths."""
    root = tmp_path_factory.mktemp("boundaries")
    data = root / "data"
    assert run(["synth", "--n-per-class", "3", "--seed", "5", "--out", str(data)]) == 0
    assert run(["train", "--data", str(data), "--out", str(root / "run"),
                "--epochs", "1"]) == 0
    (root / "empty").mkdir()
    (root / "latin1.csv").write_bytes(b"t,ax,ay,az\n0,\xe9,0,0\n")
    return {
        "root": root,
        "data": data,
        "recording": sorted(p for p in data.glob("*.csv") if ".annotations" not in p.name)[0],
        "checkpoint": root / "run" / "model.knm",
        "session_table": bundled_table("patient_100"),
        "cohort_table": bundled_table("cohort_jerk"),
        "directory": root / "empty",
        "missing": root / "missing.csv",
        "non_utf8": root / "latin1.csv",
    }


def path(*right):
    """One of the right inputs, at least half the time, or a boundary path."""
    return st.one_of(st.sampled_from(right), st.sampled_from(right + BAD_PATHS))


def number(*right):
    return st.sampled_from(right + NUMBERS)


OUT = st.sampled_from(("out", "dir", "file"))
# command -> option -> (required, values); a path value names an input
OPTIONS = {
    "synth": {
        "--n-per-class": (True, st.sampled_from(("1", "2", "0", "-1", "nan", "inf"))),
        "--healthy-fraction": (False, number("0.5")),
        "--seed": (False, number("3")),
        "--out": (True, OUT),
    },
    "eval": {
        "--data": (True, path("data")),
        "--checkpoint": (True, path("checkpoint", "session_table")),
        "--out": (True, OUT),
        "--train-fraction": (False, number("0.5")),
        "--split-seed": (False, number("2")),
    },
    "classify": {
        "--recording": (True, path("recording")),
        "--checkpoint": (True, path("checkpoint", "session_table")),
        "--mode": (False, st.sampled_from(("segments", "windows", "bogus"))),
        "--stride": (False, number("8", "64")),
        "--out": (False, OUT),
    },
    "assess": {
        "--fixtures": (False, path("session_table", "cohort_table", "recording")),
        "--data": (False, path("data")),
        "--patient": (False, st.sampled_from(("100", "-1", "nan"))),
        "--axis": (False, st.sampled_from(("x", "z", "w"))),
        "--out": (True, OUT),
    },
    "report": {
        "--fixtures": (True, path("session_table", "cohort_table", "recording")),
        "--out": (True, OUT),
    },
}


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_run_ends_in_an_exit_code_without_a_traceback(inputs, data):
    work = Path(tempfile.mkdtemp(dir=inputs["root"]))  # fresh outputs per example
    (work / "dir").mkdir()
    (work / "file").write_bytes(b"x")
    command = data.draw(st.sampled_from(sorted(OPTIONS)), label="command")
    argv = [command]
    for option, (required, values) in OPTIONS[command].items():
        if required or data.draw(st.booleans(), label=f"with {option}"):
            value = data.draw(values, label=option)
            where = work / value if value in ("out", "dir", "file") else inputs.get(value)
            argv += [option, str(where or value)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = run(argv)
        except SystemExit as exc:  # argparse: usage errors
            code = exc.code
    assert code in (0, 1, 2), (argv, stderr.getvalue())
    assert "Traceback" not in stderr.getvalue()
