"""The three benchmark workloads: inputs, the command, and its output checks.

Every workload drives one user-facing ``kinemotion`` subcommand through
``kinemotion.cli.run`` in-process.  Inputs are generated from the
benchmark seed only.  Names of the package are looked up as module
attributes at call time (``synth.gen_dataset``, ``cli.run``), so the
tracer's wrappers are used while it is installed.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import kinemotion
from kinemotion import classifier, cli, dataset, kinematics, nn, synth

KEY_MOVEMENTS = ("M1", "M2", "M3", "M4")


class SetupError(RuntimeError):
    """Generating a workload's inputs failed; the benchmark cannot run."""


@dataclass
class Work:
    """What one command does, in the units the metrics divide by."""

    items: int  # the workload's end-to-end unit: examples, windows or segments
    fwd_examples: int = 0  # examples sent through the network forward
    bwd_examples: int = 0  # examples sent backward (training examples)
    train_epochs: int = 0


def _run_setup_command(argv):
    code = cli.run(argv)
    if code != 0:
        raise SetupError(f"kinemotion {' '.join(argv)} exited with {code}")


class Workload:
    name = ""
    metric = ""  # the end-to-end metric's name for this workload
    unit = ""

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, inputs: Path) -> None:
        """Generate every input of the seed under ``inputs`` (timed as setup_s)."""
        raise NotImplementedError

    def command(self, k: int, inputs: Path, out: Path) -> tuple[list[str], Work]:
        """Arguments of the k-th command and the work it does."""
        raise NotImplementedError

    def check(self, k: int, inputs: Path, out: Path, code) -> list[str]:
        """Failures found in the k-th command's outputs (empty when correct)."""
        raise NotImplementedError

    def extra_commands(self, inputs: Path, out: Path):
        """Checked commands run once per benchmark run, outside the timed loop.

        A list of ``(argv, check)`` where ``check(out, code)`` returns failures.
        """
        return []


def _exit_failure(code):
    return [] if code == 0 else [f"exit code {code}"]


# ---------------------------------------------------------------------------


class Train(Workload):
    """``kinemotion train`` at the default ModelConfig (window 128).

    Forward, backward and Adam do nearly all the work; the LSTM runs only
    3 timesteps, so per-call numpy overhead in conv, pool and dropout
    dominates.  The workload the batched engine must move.
    """

    name = "train"
    metric = "train_examples_per_s"
    unit = "examples/s"
    N_PER_CLASS = 160  # 640 segments, split 512/128 by the default 0.8 split
    TRAIN_SET = 512
    TEST_SET = 128
    EPOCHS = 2

    def __init__(self, seed):
        super().__init__(seed)
        self.reference = None  # (train_log.csv, model.knm) bytes of the first run

    def setup(self, inputs):
        synth.gen_dataset(self.N_PER_CLASS, seed=self.seed, out_dir=inputs / "data")

    def command(self, k, inputs, out):
        argv = [
            "train", "--data", str(inputs / "data"), "--out", str(out),
            "--epochs", str(self.EPOCHS), "--seed", str(self.seed),
        ]
        work = Work(
            items=self.TRAIN_SET * self.EPOCHS,
            fwd_examples=(self.TRAIN_SET + self.TEST_SET) * self.EPOCHS,
            bwd_examples=self.TRAIN_SET * self.EPOCHS,
            train_epochs=self.EPOCHS,
        )
        return argv, work

    def check(self, k, inputs, out, code):
        failures = _exit_failure(code)
        if failures:
            return failures
        log_path, model_path = out / "train_log.csv", out / "model.knm"
        try:
            with open(log_path, encoding="utf-8", newline="") as fh:
                rows = list(csv.DictReader(fh))
            losses = [float(r["train_loss"]) for r in rows]
            with open(out / "confusion.csv", encoding="utf-8", newline="") as fh:
                confusion = [list(map(int, r[1:])) for r in list(csv.reader(fh))[1:]]
            produced = (log_path.read_bytes(), model_path.read_bytes())
        except (OSError, KeyError, ValueError) as exc:
            return [f"unreadable training output: {exc}"]
        if len(losses) != self.EPOCHS:
            failures.append(f"train_log.csv has {len(losses)} rows, want {self.EPOCHS}")
        if not all(math.isfinite(x) for x in losses):
            failures.append(f"non-finite training loss in {losses}")
        if sum(map(sum, confusion)) != self.TEST_SET:
            failures.append(f"confusion matrix counts {sum(map(sum, confusion))} "
                            f"test examples, want {self.TEST_SET}")
        if self.reference is None:
            self.reference = produced
        elif produced != self.reference:
            failures.append("train_log.csv or model.knm differs from the first run "
                            "of this seed")
        try:
            params = nn.load_checkpoint(model_path).net.parameters()
        except (kinemotion.errors.KinemotionError, OSError, KeyError, ValueError) as exc:
            return failures + [f"checkpoint does not load back: {exc!r}"]
        if not params or not all(np.all(np.isfinite(p)) for p in params.values()):
            failures.append("loaded checkpoint has no or non-finite parameters")
        return failures


# ---------------------------------------------------------------------------


class Classify(Workload):
    """``kinemotion classify --mode windows`` with a window-256 checkpoint.

    The same network used forward-only in eval mode: no dropout masks, no
    backward, no optimiser.  Window 256 gives the LSTM 11 timesteps, so it
    takes about half the per-example time; a change that speeds training
    but taxes single-window inference or the LSTM shows here.
    """

    name = "classify"
    metric = "classify_windows_per_s"
    unit = "windows/s"
    N_PER_CLASS = 48  # 48 short recordings: checkpoint data and long-recording parts
    WINDOW = 256
    STRIDE = 8
    LONG_RECORDINGS = 4
    LONG_ROWS = 5600  # every long recording has the same length, so every command
    WINDOWS = (LONG_ROWS - WINDOW) // STRIDE + 1  # does the same work
    SAMPLED_WINDOWS = 8  # windows per recording compared with classifier.predict

    def __init__(self, seed):
        super().__init__(seed)
        self.references = {}

    def _recording(self, inputs, k):
        return inputs / "long" / f"long_{k % self.LONG_RECORDINGS}.csv"

    def setup(self, inputs):
        recs = synth.gen_dataset(self.N_PER_CLASS, seed=self.seed,
                                 out_dir=inputs / "short")
        _run_setup_command([
            "train", "--data", str(inputs / "short"), "--out", str(inputs / "model"),
            "--window", str(self.WINDOW), "--epochs", "1", "--seed", str(self.seed),
        ])
        pool = iter(recs)
        for k in range(self.LONG_RECORDINGS):
            # concatenate short recordings until LONG_ROWS, then cut there
            chunks, annotations, offset = [], [], 0
            while offset < self.LONG_ROWS:
                rec = next(pool, None)
                if rec is None:
                    raise SetupError("synth recordings too short for the long recordings")
                chunks.append(rec.series.samples)
                annotations += [
                    dataset.Annotation(a.start + offset, a.end + offset, a.label)
                    for a in rec.annotations
                    if a.end + offset <= self.LONG_ROWS
                ]
                offset += len(rec.series)
            series = kinematics.TimeSeries3D(
                fs=recs[0].series.fs,
                samples=np.concatenate(chunks)[: self.LONG_ROWS],
                order=recs[0].series.order,
            )
            long_rec = dataset.Recording(
                subject_id=f"L{k}", group="healthy", session=1, hand="dominant",
                scenario="L1", series=series, annotations=tuple(annotations),
            )
            dataset.write_recording(long_rec, self._recording(inputs, k))

    def command(self, k, inputs, out):
        argv = [
            "classify", "--recording", str(self._recording(inputs, k)),
            "--checkpoint", str(inputs / "model" / "model.knm"),
            "--mode", "windows", "--stride", str(self.STRIDE),
            "--out", str(out / "windows.csv"),
        ]
        return argv, Work(items=self.WINDOWS, fwd_examples=self.WINDOWS)

    def _reference(self, inputs, k):
        """{window index: (probabilities, label)} from classifier.predict."""
        key = k % self.LONG_RECORDINGS
        if key not in self.references:
            net = nn.load_checkpoint(inputs / "model" / "model.knm").net
            rec = dataset.parse_recording(self._recording(inputs, k))
            epochs = kinematics.window(rec.series, self.WINDOW, self.STRIDE)
            rng = np.random.default_rng([self.seed, key])
            picks = {0, len(epochs) - 1}
            picks.update(int(i) for i in rng.choice(len(epochs), self.SAMPLED_WINDOWS - 2,
                                                    replace=False))
            self.references[key] = {
                i: classifier.predict(net, epochs[i]) for i in sorted(picks)
            }
        return self.references[key]

    def check(self, k, inputs, out, code):
        failures = _exit_failure(code)
        if failures:
            return failures
        try:
            with open(out / "windows.csv", encoding="utf-8", newline="") as fh:
                rows = list(csv.DictReader(fh))
            probs = [[float(r[f"p_{m}"]) for m in KEY_MOVEMENTS] for r in rows]
            bounds = [(int(r["start_index"]), int(r["end_index"])) for r in rows]
        except (OSError, KeyError, ValueError) as exc:
            return [f"unreadable classify output: {exc}"]
        if len(rows) != self.WINDOWS:
            failures.append(f"{len(rows)} windows classified, want {self.WINDOWS}")
        # 6 significant digits leave each printed probability within 5e-7
        bad_sums = [i for i, p in enumerate(probs) if abs(sum(p) - 1.0) > 4 * 5e-7 + 1e-12]
        if bad_sums:
            failures.append(f"{len(bad_sums)} rows whose probabilities do not sum to 1, "
                            f"first at window {bad_sums[0]}")
        for i, (ref_probs, ref_label) in self._reference(inputs, k).items():
            if i >= len(rows):
                continue  # already reported as a row-count failure
            start = i * self.STRIDE
            if bounds[i] != (start, start + self.WINDOW):
                failures.append(f"window {i} covers {bounds[i]}, want "
                                f"{(start, start + self.WINDOW)}")
            if rows[i]["predicted"] != ref_label or np.max(
                np.abs(np.asarray(probs[i]) - ref_probs)
            ) > 5e-7 + 1e-12:
                failures.append(f"window {i} disagrees with classifier.predict: "
                                f"{rows[i]['predicted']} {probs[i]} vs {ref_label} "
                                f"{list(ref_probs)}")
        return failures


# ---------------------------------------------------------------------------


# improvement sets the bundled patient tables imply (acceptance criterion 2)
def _fixture_failures(patient, improved):
    failures = []
    moving = sum(1 for sessions in improved.values() if sessions)
    if patient == 100:
        if improved.get("M2") != set():
            failures.append("patient 100 M2 should show no improvement")
        if improved.get("M1") != {3, 4}:
            failures.append("patient 100 M1 should improve in sessions 3 and 4")
    if patient == 101:
        if not improved.get("M1"):
            failures.append("patient 101 M1 should improve")
        for movement in ("M2", "M3", "M4"):
            if improved.get(movement):
                failures.append(f"patient 101 {movement} should not improve")
    if patient == 102 and improved.get("M4") != {2, 3, 4}:
        failures.append("patient 102 M4 should improve in sessions 2, 3, 4")
    if patient in (100, 102, 103) and moving < 3:
        failures.append(f"patient {patient} should improve in >= 3 movements")
    return failures


class Assess(Workload):
    """``kinemotion assess --data`` over a healthy/patient synth cohort.

    It never touches ``nn``: the prediction for every network or classifier
    optimisation is no change here.  Parsing, kinematics and smoothness
    dominate.
    """

    name = "assess"
    metric = "assess_segments_per_s"
    unit = "segments/s"
    N_PER_CLASS = 160  # 160 recordings, half patients with 4 sessions each
    FIXTURE_PATIENTS = (100, 101, 102, 103)

    def __init__(self, seed):
        super().__init__(seed)
        self.expected_files = set()
        self.segments = 0

    def setup(self, inputs):
        recs = synth.gen_dataset(self.N_PER_CLASS, seed=self.seed,
                                 out_dir=inputs / "data")
        self.segments = sum(
            1 for r in recs for a in r.annotations if a.label in KEY_MOVEMENTS
        )
        stems = ["cohort_comparison_jerk", "cohort_comparison_squared_jerk"]
        stems += sorted({f"improvement_{r.subject_id}"
                         for r in recs if r.group == "patient" and r.session == 1})
        self.expected_files = {f"{s}.{ext}" for s in stems for ext in ("csv", "json")}

    def command(self, k, inputs, out):
        argv = ["assess", "--data", str(inputs / "data"), "--out", str(out)]
        return argv, Work(items=self.segments)

    def check(self, k, inputs, out, code):
        failures = _exit_failure(code)
        if failures:
            return failures
        written = {p.name for p in out.iterdir()} if out.is_dir() else set()
        if written != self.expected_files:
            failures.append(f"report files differ: missing "
                            f"{sorted(self.expected_files - written)}, "
                            f"unexpected {sorted(written - self.expected_files)}")
        try:
            cells = json.loads(
                (out / "cohort_comparison_squared_jerk.json").read_text(encoding="utf-8")
            )["cells"]
            directions = {c["movement"]: c["direction"]
                          for c in cells if c["statistic"] == "mean"}
        except (OSError, KeyError, TypeError, ValueError) as exc:
            return failures + [f"unreadable squared-jerk comparison: {exc!r}"]
        for movement in KEY_MOVEMENTS:
            if directions.get(movement) != "patient_higher":
                failures.append(f"squared-jerk mean direction for {movement} is "
                                f"{directions.get(movement)}, want patient_higher")
        return failures

    def extra_commands(self, inputs, out):
        return [
            (
                ["assess", "--fixtures", str(kinemotion.bundled_table(f"patient_{p}")),
                 "--patient", str(p), "--out", str(out)],
                functools.partial(self._check_fixture, p),
            )
            for p in self.FIXTURE_PATIENTS
        ]

    def _check_fixture(self, patient, out, code):
        failures = _exit_failure(code)
        if failures:
            return failures
        try:
            payload = json.loads(
                (out / f"improvement_{patient}.json").read_text(encoding="utf-8")
            )
            improved = {m: set(v["improved_sessions"])
                        for m, v in payload["movements"].items()}
        except (OSError, KeyError, TypeError, ValueError) as exc:
            return [f"unreadable improvement report: {exc!r}"]
        return _fixture_failures(patient, improved)


WORKLOADS = {w.name: w for w in (Train, Classify, Assess)}
