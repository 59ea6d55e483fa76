"""Command-line interface: subcommands, determinism, exit codes, help."""

import json
import shutil
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kinemotion import bundled_table
from kinemotion.cli import build_parser, run
from kinemotion.dataset import KEY_MOVEMENTS, Annotation
from kinemotion.nn.checkpoint import MAGIC


def run_cli(*argv):
    return run(list(argv))


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "d"
    assert run_cli("synth", "--n-per-class", "6", "--seed", "7", "--out", str(path)) == 0
    return path


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory, synth_dir):
    out = tmp_path_factory.mktemp("run")
    code = run_cli(
        "train",
        "--data", str(synth_dir),
        "--out", str(out),
        "--epochs", "2",
        "--seed", "1",
        "--window", "96",
    )
    assert code == 0
    return out


class TestSynth:
    def test_writes_expected_segment_count(self, synth_dir):
        ann_files = list(synth_dir.glob("*.annotations.csv"))
        segments = sum(
            len(p.read_text().strip().splitlines()) - 1 for p in ann_files
        )
        assert segments == 24  # 6 per class

    def test_rerun_is_byte_identical(self, synth_dir, tmp_path):
        again = tmp_path / "again"
        assert run_cli(
            "synth", "--n-per-class", "6", "--seed", "7", "--out", str(again)
        ) == 0
        names = sorted(p.name for p in synth_dir.iterdir())
        assert names == sorted(p.name for p in again.iterdir())
        for name in names:
            assert (synth_dir / name).read_bytes() == (again / name).read_bytes()


class TestTrainEvalClassify:
    def test_train_outputs(self, trained_dir):
        assert (trained_dir / "model.knm").exists()
        log_lines = (trained_dir / "train_log.csv").read_text().splitlines()
        assert log_lines[0] == "epoch,train_loss,train_acc,test_acc"
        assert len(log_lines) == 3
        confusion = (trained_dir / "confusion.csv").read_text().splitlines()
        assert len(confusion) == 5

    def test_train_is_reproducible(self, synth_dir, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert run_cli(
                "train",
                "--data", str(synth_dir),
                "--out", str(out),
                "--epochs", "2",
                "--seed", "1",
                "--window", "96",
            ) == 0
            outs.append(out)
        for artifact in ("model.knm", "train_log.csv", "confusion.csv"):
            assert (outs[0] / artifact).read_bytes() == (outs[1] / artifact).read_bytes()

    def test_eval_writes_confusion(self, synth_dir, trained_dir, tmp_path, capsys):
        out = tmp_path / "eval"
        code = run_cli(
            "eval",
            "--data", str(synth_dir),
            "--checkpoint", str(trained_dir / "model.knm"),
            "--out", str(out),
        )
        assert code == 0
        assert "test accuracy" in capsys.readouterr().out
        assert (out / "confusion.csv").exists()

    def test_classify_segments(self, synth_dir, trained_dir, tmp_path):
        recording = sorted(
            p for p in synth_dir.glob("*.csv") if ".annotations" not in p.name
        )[0]
        out = tmp_path / "labels.csv"
        code = run_cli(
            "classify",
            "--recording", str(recording),
            "--checkpoint", str(trained_dir / "model.knm"),
            "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("start_index,end_index,true_label,predicted")
        assert len(lines) == 5  # four annotated segments
        probs = [float(v) for v in lines[1].split(",")[4:]]
        assert abs(sum(probs) - 1.0) < 1e-9

    def test_classify_skips_degenerate_segments_without_misalignment(
        self, trained_dir, tmp_path
    ):
        import numpy as np

        from kinemotion.dataset import Annotation, Recording, write_recording
        from kinemotion.kinematics import TimeSeries3D

        rng = np.random.default_rng(0)
        rec = Recording(
            subject_id="S1",
            group="healthy",
            session=1,
            hand="dominant",
            scenario="L1",
            series=TimeSeries3D(fs=50.0, samples=rng.normal(size=(200, 3))),
            annotations=(Annotation(10, 11, "M1"), Annotation(20, 150, "M2")),
        )
        path = tmp_path / "degenerate.csv"
        write_recording(rec, path)
        out = tmp_path / "labels.csv"
        assert run_cli(
            "classify",
            "--recording", str(path),
            "--checkpoint", str(trained_dir / "model.knm"),
            "--out", str(out),
        ) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 2  # the 1-sample segment is skipped
        assert lines[1].split(",")[2] == "M2"

    def test_classify_windows_mode(self, synth_dir, trained_dir, capsys):
        recording = sorted(
            p for p in synth_dir.glob("*.csv") if ".annotations" not in p.name
        )[0]
        code = run_cli(
            "classify",
            "--recording", str(recording),
            "--checkpoint", str(trained_dir / "model.knm"),
            "--mode", "windows",
            "--stride", "96",
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("start_index,end_index")


def assess_one_recording(tmp_path, samples, annotations):
    """Run ``assess --data`` on one patient recording sampled at 1 Hz and
    return the exit code, standard error and output directory."""
    import contextlib
    import io

    from kinemotion.dataset import Annotation, Recording, write_recording
    from kinemotion.kinematics import TimeSeries3D

    rec = Recording("P1", "patient", 1, "dominant", "L1",
                    TimeSeries3D(fs=1.0, samples=np.asarray(samples, dtype=float)),
                    tuple(Annotation(*a) for a in annotations))
    write_recording(rec, tmp_path / "data" / "P1.csv")
    out, err = tmp_path / "out", io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run_cli("assess", "--data", str(tmp_path / "data"), "--out", str(out))
    return code, err.getvalue(), out


def random_recording(path, rows, annotations=()):
    import numpy as np

    from kinemotion.dataset import Recording, write_recording
    from kinemotion.kinematics import TimeSeries3D

    rng = np.random.default_rng(rows)
    rec = Recording(
        subject_id="S2",
        group="patient",
        session=1,
        hand="dominant",
        scenario="L1",
        series=TimeSeries3D(fs=50.0, samples=rng.normal(size=(rows, 3))),
        annotations=tuple(annotations),
    )
    write_recording(rec, path)
    return rec


def reference_classify_csv(spans, probs):
    """The classify CSV as the per-row writer formatted it: one f-string per
    row, from (start, end, true label) spans and the probabilities."""
    lines = ["start_index,end_index,true_label,predicted,p_M1,p_M2,p_M3,p_M4\n"]
    for (start, end, truth), row in zip(spans, probs.tolist()):
        lines.append(f"{start},{end},{truth},{KEY_MOVEMENTS[int(np.argmax(row))]},"
                     + ",".join(f"{p:.10g}" for p in row) + "\n")
    return "".join(lines)


def classified_rows(path):
    import csv

    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def assert_rows_match_predict(rows, net, windows):
    import numpy as np

    from kinemotion.classifier import predict

    assert len(rows) == len(windows)
    for row, window in zip(rows, windows):
        probs, label = predict(net, window)
        printed = [float(row[f"p_{m}"]) for m in ("M1", "M2", "M3", "M4")]
        assert row["predicted"] == label
        assert np.max(np.abs(np.asarray(printed) - probs)) <= 5e-7


class TestClassifyChunks:
    """classify runs the network over fixed-size chunks of epochs."""

    def test_windows_of_a_short_recording_write_only_the_header(
        self, trained_dir, tmp_path
    ):
        random_recording(tmp_path / "short.csv", rows=95)  # the window is 96
        out = tmp_path / "windows.csv"
        assert run_cli(
            "classify",
            "--recording", str(tmp_path / "short.csv"),
            "--checkpoint", str(trained_dir / "model.knm"),
            "--mode", "windows",
            "--stride", "1",
            "--out", str(out),
        ) == 0
        assert out.read_text() == (
            "start_index,end_index,true_label,predicted,p_M1,p_M2,p_M3,p_M4\n"
        )

    def test_zero_stride_is_the_window_error(self, trained_dir, tmp_path, capsys):
        from kinemotion.errors import ContractError
        from kinemotion.kinematics import window

        rec = random_recording(tmp_path / "rec.csv", rows=300)
        with pytest.raises(ContractError) as reference:
            window(rec.series, 96, 0)
        code = run_cli(
            "classify",
            "--recording", str(tmp_path / "rec.csv"),
            "--checkpoint", str(trained_dir / "model.knm"),
            "--mode", "windows",
            "--stride", "0",
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"error: {reference.value}\n"
        assert captured.out == ""

    def classify_windows(self, trained_dir, tmp_path, rows, stride):
        """Run ``classify --mode windows`` over a random recording of ``rows``
        samples; check every row against per-window prediction; return the
        window offsets."""
        from kinemotion.kinematics import window, window_offsets
        from kinemotion.nn import load_checkpoint

        rec = random_recording(tmp_path / "long.csv", rows=rows)
        out = tmp_path / "windows.csv"
        assert run_cli(
            "classify",
            "--recording", str(tmp_path / "long.csv"),
            "--checkpoint", str(trained_dir / "model.knm"),
            "--mode", "windows",
            "--stride", str(stride),
            "--out", str(out),
        ) == 0
        rows = classified_rows(out)
        net = load_checkpoint(trained_dir / "model.knm").net
        assert_rows_match_predict(rows, net, window(rec.series, 96, stride))
        offsets = window_offsets(len(rec.series), 96, stride)
        assert [(int(r["start_index"]), int(r["end_index"])) for r in rows] == [
            (o, o + 96) for o in offsets
        ]
        return offsets

    def test_windows_across_chunk_boundaries_match_predict(self, trained_dir, tmp_path):
        from kinemotion.classifier import WINDOW_CHUNK

        # stride 8 runs phase passes (S = 16, two phases) whose windows go
        # through the recurrence WINDOW_CHUNK at a time
        rows = 96 + 8 * 2 * (WINDOW_CHUNK + 36)
        offsets = self.classify_windows(trained_dir, tmp_path, rows, 8)
        per_phase = np.bincount(np.asarray(offsets) % 16)[[0, 8]]
        assert min(per_phase) > WINDOW_CHUNK and all(per_phase % WINDOW_CHUNK)

    def test_whole_windows_across_eval_chunks_match_predict(self, trained_dir, tmp_path):
        from kinemotion.classifier import EVAL_CHUNK

        # stride 5 (g = 5) runs each window through the whole network,
        # EVAL_CHUNK windows per forward pass
        offsets = self.classify_windows(trained_dir, tmp_path, 96 + 5 * (EVAL_CHUNK + 36), 5)
        assert len(offsets) > EVAL_CHUNK and len(offsets) % EVAL_CHUNK != 0

    def test_csv_blocks_make_one_table(self, trained_dir, tmp_path, monkeypatch, capsys):
        from kinemotion import cli

        random_recording(tmp_path / "rec.csv", rows=300)
        argv = ["classify", "--recording", str(tmp_path / "rec.csv"),
                "--checkpoint", str(trained_dir / "model.knm"), "--mode", "windows"]
        assert run_cli(*argv, "--out", str(tmp_path / "whole.csv")) == 0
        whole = (tmp_path / "whole.csv").read_text(encoding="utf-8")
        assert whole.count("\n") == 1 + (300 - 96) // 64 + 1
        monkeypatch.setattr(cli, "CSV_BLOCK", 2)  # 4 windows: blocks of 2, 2
        assert run_cli(*argv, "--out", str(tmp_path / "blocks.csv")) == 0
        assert (tmp_path / "blocks.csv").read_text(encoding="utf-8") == whole
        capsys.readouterr()
        monkeypatch.setattr(cli, "CSV_BLOCK", 3)  # blocks of 3, 1
        assert run_cli(*argv) == 0
        assert capsys.readouterr().out == whole

    @pytest.mark.parametrize("stride", [1, 8, 25, 64, None])  # None: segments
    def test_block_writer_matches_the_per_row_reference(self, trained_dir, tmp_path,
                                                        monkeypatch, stride):
        from kinemotion import cli
        from kinemotion.classifier import predict_proba, predict_windows
        from kinemotion.dataset import extract_epochs, parse_recording
        from kinemotion.kinematics import window_offsets
        from kinemotion.nn import load_checkpoint

        monkeypatch.setattr(cli, "CSV_BLOCK", 100)  # blocks of 100 and a last one
        random_recording(tmp_path / "rec.csv", rows=700,
                         annotations=[Annotation(5, 300, "M2"), Annotation(320, 690, "M4")])
        rec = parse_recording(tmp_path / "rec.csv")
        net = load_checkpoint(trained_dir / "model.knm").net
        argv = ["classify", "--recording", str(tmp_path / "rec.csv"),
                "--checkpoint", str(trained_dir / "model.knm"), "--out", str(tmp_path / "c.csv")]
        if stride is None:
            assert run_cli(*argv) == 0
            data = extract_epochs([rec], 96)
            spans = zip(data.starts.tolist(), data.ends.tolist(),
                        [KEY_MOVEMENTS[k] for k in data.labels])
            want = reference_classify_csv(list(spans), predict_proba(net, data.x))
        else:
            assert run_cli(*argv, "--mode", "windows", "--stride", str(stride)) == 0
            offsets = window_offsets(700, 96, stride)
            want = reference_classify_csv([(o, o + 96, "") for o in offsets],
                                          predict_windows(net, rec.series, stride))
        assert (tmp_path / "c.csv").read_text(encoding="utf-8") == want

    @settings(max_examples=500, deadline=None)
    @given(p=st.floats() | st.integers(0, 2**64 - 1).map(
        lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]))
    def test_percent_format_matches_the_format_spec(self, p):
        # the block writer's %-call and the per-row writer's f-string
        assert "%.10g" % p == f"{p:.10g}"

    def test_a_unit_error_in_classify_exits_2(self, synth_dir, tmp_path, capsys,
                                              monkeypatch):
        from kinemotion import classifier, cli
        from kinemotion.classifier import ModelConfig, build_model
        from kinemotion.nn import Dense, save_checkpoint

        net = build_model(ModelConfig(), seed=0)
        net.layers[14] = Dense(64, 5)
        save_checkpoint(tmp_path / "bad_head.knm", net, seed=0)
        # past the load-time check, the first forward pass of a unit refuses it
        monkeypatch.setattr(cli, "check_network", lambda net: None)
        monkeypatch.setattr(classifier, "_workers", lambda units: min(4, units))
        code = run_cli("classify", "--recording", str(self.first_recording(synth_dir)),
                       "--checkpoint", str(tmp_path / "bad_head.knm"))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ("error: the network gives scores of shape (5,) per "
                                "epoch, not (4,)\n")
        assert captured.out == ""

    def test_segments_across_chunk_boundaries_match_predict(
        self, trained_dir, tmp_path, monkeypatch
    ):
        from kinemotion import classifier
        from kinemotion.dataset import KEY_MOVEMENTS, Annotation, extract_epochs
        from kinemotion.kinematics import TimeSeries3D
        from kinemotion.nn import load_checkpoint

        # eight key segments, a degenerate one and a distractor: with a
        # chunk of 3 the epochs span three chunks, the last one short
        annotations = [
            Annotation(20 + 60 * k, 70 + 60 * k, f"M{k % 4 + 1}") for k in range(8)
        ]
        annotations += [Annotation(72, 73, "M2"), Annotation(131, 139, "R3")]
        annotations.sort(key=lambda a: a.start)
        rec = random_recording(tmp_path / "segs.csv", rows=600, annotations=annotations)
        monkeypatch.setattr(classifier, "EVAL_CHUNK", 3)
        out = tmp_path / "segments.csv"
        assert run_cli(
            "classify",
            "--recording", str(tmp_path / "segs.csv"),
            "--checkpoint", str(trained_dir / "model.knm"),
            "--out", str(out),
        ) == 0
        rows = classified_rows(out)
        labelled = extract_epochs([rec], 96)
        assert len(labelled.x) == 8
        assert [r["true_label"] for r in rows] == [
            KEY_MOVEMENTS[k] for k in labelled.labels
        ]
        net = load_checkpoint(trained_dir / "model.knm").net
        assert_rows_match_predict(
            rows, net, [TimeSeries3D(fs=rec.series.fs, samples=row.T) for row in labelled.x]
        )

    def test_truncated_checkpoint_is_a_data_error(self, synth_dir, tmp_path, capsys):
        recording = sorted(
            p for p in synth_dir.glob("*.csv") if ".annotations" not in p.name
        )[0]
        bad = tmp_path / "short.knm"
        bad.write_bytes(MAGIC + b"\0\0")
        code = run_cli(
            "classify", "--recording", str(recording), "--checkpoint", str(bad)
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "short.knm" in err
        assert "Traceback" not in err

    def test_checkpoint_with_trailing_bytes_is_a_data_error(
        self, synth_dir, trained_dir, tmp_path, capsys
    ):
        recording = sorted(
            p for p in synth_dir.glob("*.csv") if ".annotations" not in p.name
        )[0]
        bad = tmp_path / "padded.knm"
        bad.write_bytes((trained_dir / "model.knm").read_bytes() + b"\0" * 8)
        code = run_cli(
            "classify", "--recording", str(recording), "--checkpoint", str(bad)
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "trailing bytes" in err
        assert "Traceback" not in err

    @staticmethod
    def first_recording(synth_dir):
        return sorted(p for p in synth_dir.glob("*.csv") if ".annotations" not in p.name)[0]

    @staticmethod
    def with_header(trained_dir, path, key, value):
        """The trained checkpoint, written to ``path`` with ``header[key] = value``."""
        raw = (trained_dir / "model.knm").read_bytes()
        header_len = int.from_bytes(raw[4:8], "little")
        header = json.loads(raw[8 : 8 + header_len])
        header[key] = value
        blob = json.dumps(header).encode("utf-8")
        path.write_bytes(MAGIC + len(blob).to_bytes(4, "little") + blob
                         + raw[8 + header_len :])
        return path

    def test_checkpoint_with_infinite_seed_is_a_data_error(
        self, synth_dir, trained_dir, tmp_path, capsys
    ):
        bad = self.with_header(
            trained_dir, tmp_path / "infinite_seed.knm", "seed", float("inf")
        )
        code = run_cli(
            "classify", "--recording", str(self.first_recording(synth_dir)),
            "--checkpoint", str(bad),
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "infinite_seed.knm" in err

    def test_checkpoint_with_a_29_tib_layer_is_a_data_error(
        self, synth_dir, trained_dir, tmp_path, capsys
    ):
        # np.zeros of these 4e12 weights would raise MemoryError at once
        from kinemotion.nn import load_checkpoint

        layers = load_checkpoint(trained_dir / "model.knm").net.layers
        specs = [layer.spec() for layer in layers]
        specs[14] = {"kind": "dense", "in_features": 10**12, "out_features": 4}
        bad = self.with_header(trained_dir, tmp_path / "huge.knm", "layers", specs)
        code = run_cli(
            "classify", "--recording", str(self.first_recording(synth_dir)),
            "--checkpoint", str(bad),
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "huge.knm" in err
        assert "Traceback" not in err

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_mutated_checkpoint_exits_0_or_2(self, synth_dir, trained_dir, tmp_path, data):
        raw = bytearray((trained_dir / "model.knm").read_bytes())
        header_end = 8 + int.from_bytes(raw[4:8], "little")
        where = data.draw(st.integers(0, header_end - 1), label="where")
        raw[where] = data.draw(
            st.integers(0, 255).filter(lambda b: b != raw[where]), label="byte"
        )
        bad = tmp_path / "mutated.knm"
        bad.write_bytes(bytes(raw))
        code = run_cli(
            "classify", "--recording", str(self.first_recording(synth_dir)),
            "--checkpoint", str(bad), "--out", str(tmp_path / "out.csv"),
        )
        assert code in (0, 2)


def misfit_net(probe):
    """A network whose layers or window do not map a (3, W) epoch to 4 scores."""
    from kinemotion.classifier import ModelConfig, build_model
    from kinemotion.nn import LSTM, Conv1D, Dense, Network, ReLU

    net = build_model(ModelConfig(input_len=128), seed=0)
    if probe == "below_receptive_field":
        net.input_len = 93  # the default front end reads 94 samples
    elif probe == "lstm_width_32":
        net.layers[12] = LSTM(32, 64)
    elif probe == "dense_width_32":
        net.layers[14] = Dense(32, 4)
    elif probe == "dense_out_5":
        net.layers[14] = Dense(64, 5)
    else:  # no head: the sliding stack's (4, 124) features
        net = Network([Conv1D(3, 4, 5), ReLU()], input_len=128)
    return net


MISFIT_PROBES = ["below_receptive_field", "lstm_width_32", "dense_width_32",
                 "dense_out_5", "no_head"]
COMMANDS = {
    "eval": lambda data, rec, ckpt, out: [
        "eval", "--data", data, "--checkpoint", ckpt, "--out", out],
    "segments": lambda data, rec, ckpt, out: [
        "classify", "--recording", rec, "--checkpoint", ckpt, "--out", out],
    "windows": lambda data, rec, ckpt, out: [
        "classify", "--recording", rec, "--checkpoint", ckpt, "--out", out,
        "--mode", "windows", "--stride", "8"],
}


class TestMisfitCheckpoints:
    """A checkpoint must map its window to 4 class scores; it is checked at load."""

    @staticmethod
    def refuse_reading(monkeypatch):
        from kinemotion import cli

        def unreachable(*args, **kwargs):
            raise AssertionError("a recording was read")

        for name in ("parse_recording", "load_dataset_dir", "extract_epochs"):
            monkeypatch.setattr(cli, name, unreachable)

    @pytest.mark.parametrize("command", list(COMMANDS))
    @pytest.mark.parametrize("probe", MISFIT_PROBES)
    def test_misfit_exits_2_naming_the_file_before_reading(
        self, synth_dir, tmp_path, capsys, monkeypatch, probe, command
    ):
        from kinemotion.nn import save_checkpoint

        ckpt = tmp_path / f"{probe}.knm"
        save_checkpoint(ckpt, misfit_net(probe), seed=0)
        out = tmp_path / "out"
        recording = TestClassifyChunks.first_recording(synth_dir)
        self.refuse_reading(monkeypatch)
        code = run_cli(*COMMANDS[command](str(synth_dir), str(recording), str(ckpt),
                                          str(out)))
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {ckpt}: ")
        assert "Traceback" not in err
        assert not out.exists()

    def test_eval_and_segments_refuse_a_window_over_the_bound(
        self, synth_dir, tmp_path, capsys, monkeypatch
    ):
        from kinemotion import cli
        from kinemotion.classifier import ModelConfig, build_model
        from kinemotion.nn import save_checkpoint

        net = build_model(ModelConfig(), seed=0)
        net.input_len = 10**8  # 1.40 TiB of epochs for synth 160/class
        ckpt = tmp_path / "huge.knm"
        save_checkpoint(ckpt, net, seed=0)
        recording = TestClassifyChunks.first_recording(synth_dir)

        def unreachable(*args, **kwargs):
            raise AssertionError("the epoch array was allocated")

        monkeypatch.setattr(cli, "extract_epochs", unreachable)
        out = tmp_path / "out"
        for command in ("eval", "segments"):
            code = run_cli(*COMMANDS[command](str(synth_dir), str(recording),
                                              str(ckpt), str(out)))
            err = capsys.readouterr().err
            assert code == 2
            assert err.startswith("error: window 100000000 exceeds 4 x the longest "
                                  "key-movement segment (")
            assert not out.exists()

    def test_segments_without_a_usable_key_segment_write_only_the_header(
        self, tmp_path
    ):
        from kinemotion.classifier import ModelConfig, build_model
        from kinemotion.dataset import Annotation
        from kinemotion.nn import save_checkpoint

        net = build_model(ModelConfig(), seed=0)
        net.input_len = 10**8
        save_checkpoint(tmp_path / "huge.knm", net, seed=0)
        random_recording(tmp_path / "r.csv", rows=50,
                         annotations=(Annotation(0, 20, "R3"), Annotation(20, 21, "M1")))
        out = tmp_path / "segments.csv"
        assert run_cli("classify", "--recording", str(tmp_path / "r.csv"),
                       "--checkpoint", str(tmp_path / "huge.knm"),
                       "--out", str(out)) == 0
        assert out.read_text() == (
            "start_index,end_index,true_label,predicted,p_M1,p_M2,p_M3,p_M4\n"
        )


class TestConfigFile:
    def test_config_overrides_and_flag_precedence(self, synth_dir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# training overrides\nepochs=3\nlr=0.0005\ninput_len=96\n")
        out = tmp_path / "out"
        assert run_cli(
            "train",
            "--data", str(synth_dir),
            "--out", str(out),
            "--config", str(cfg),
            "--epochs", "1",  # flag wins over the file
            "--seed", "2",
        ) == 0
        log_lines = (out / "train_log.csv").read_text().splitlines()
        assert len(log_lines) == 2  # header + 1 epoch

    def test_tuple_valued_config_keys(self, synth_dir, tmp_path):
        cfg = tmp_path / "narrow.cfg"
        cfg.write_text(
            "conv_channels=8,8,8,8\nlstm_hidden=8\nclass_weights=1 1 2 1\n"
            "epochs=1\ninput_len=96\n"
        )
        out = tmp_path / "out"
        assert run_cli(
            "train",
            "--data", str(synth_dir),
            "--out", str(out),
            "--config", str(cfg),
            "--seed", "3",
        ) == 0
        assert (out / "model.knm").exists()

    def test_non_utf8_config_is_a_data_error(self, synth_dir, tmp_path, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(b"epochs=1\n# caf\xe9\nlr=0.001\n")
        code = run_cli(
            "train",
            "--data", str(synth_dir),
            "--out", str(tmp_path / "x"),
            "--config", str(cfg),
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "latin1.cfg" in err and "line 2" in err
        assert not (tmp_path / "x").exists()

    def test_unknown_config_key_is_a_hard_error(self, synth_dir, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("learning_rate=0.1\n")
        code = run_cli(
            "train",
            "--data", str(synth_dir),
            "--out", str(tmp_path / "x"),
            "--config", str(cfg),
        )
        assert code == 2
        assert "unknown configuration key" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("epochs=1\nlr=0.001\nepochs=2\n", 3, "duplicate configuration key"),
            ("lr=0.001\nepochs=abc\n", 2, "not an integer"),
            ("lr=nan\n", 1, "non-finite value"),
            ("conv_channels=8,8,x,8\n", 1, "not an integer"),
            ("class_weights=1 1 inf 1\n", 1, "non-finite value"),
            ("in_channels=3\n", 1, "unknown configuration key"),
        ],
        ids=["repeated", "epochs-abc", "lr-nan", "tuple-item", "tuple-inf",
             "in-channels"],
    )
    def test_bad_config_names_path_and_line(
        self, synth_dir, tmp_path, capsys, text, line, message
    ):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        code = run_cli(
            "train",
            "--data", str(synth_dir),
            "--out", str(tmp_path / "x"),
            "--config", str(cfg),
        )
        err = capsys.readouterr().err
        assert code == 2
        assert message in err and str(cfg) in err and f"line {line}" in err
        assert not (tmp_path / "x").exists()

    def test_directory_as_config_is_a_data_error(self, synth_dir, tmp_path, capsys):
        folder = tmp_path / "cfg_dir"
        folder.mkdir()
        code = run_cli(
            "train",
            "--data", str(synth_dir),
            "--out", str(tmp_path / "x"),
            "--config", str(folder),
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and str(folder) in err
        assert "Traceback" not in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("lr", ["nan", "inf", "-0.001", "0"])
    def test_unusable_learning_rate_writes_no_checkpoint(
        self, synth_dir, tmp_path, capsys, lr
    ):
        out = tmp_path / "x"
        code = run_cli(
            "train",
            "--data", str(synth_dir),
            "--out", str(out),
            "--epochs", "1",
            "--batch-size", "64",  # one batch per training epoch
            "--window", "96",
            "--lr", lr,
        )
        assert code == 2
        assert "lr must be finite and > 0" in capsys.readouterr().err
        assert not (out / "model.knm").exists()

    def test_window_bound_is_four_times_the_longest_segment(
        self, synth_dir, tmp_path, capsys, monkeypatch
    ):
        from kinemotion import cli
        from kinemotion.dataset import is_key_movement, load_dataset_dir

        longest = max(
            a.end - a.start
            for rec in load_dataset_dir(synth_dir)
            for a in rec.annotations
            if is_key_movement(a.label)
        )
        extract = cli.extract_epochs
        for window in (4 * longest + 1, 100000):
            # refused before the epoch array is allocated
            monkeypatch.setattr(cli, "extract_epochs", None)
            out = tmp_path / f"w{window}"
            code = run_cli(
                "train", "--data", str(synth_dir), "--out", str(out),
                "--epochs", "1", "--window", str(window),
            )
            err = capsys.readouterr().err
            assert code == 2
            assert err == (
                f"error: window {window} exceeds 4 x the longest key-movement "
                f"segment ({longest} samples) under {synth_dir}\n"
            )
            assert not (out / "model.knm").exists()
        monkeypatch.setattr(cli, "extract_epochs", extract)
        out = tmp_path / "at_bound"
        assert run_cli(
            "train", "--data", str(synth_dir), "--out", str(out),
            "--epochs", "1", "--batch-size", "64", "--window", str(4 * longest),
        ) == 0
        assert (out / "model.knm").exists()


class TestAssessAndReport:
    def test_assess_session_fixture(self, tmp_path, capsys):
        out = tmp_path / "assess"
        code = run_cli(
            "assess",
            "--fixtures", str(bundled_table("patient_102")),
            "--patient", "102",
            "--out", str(out),
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "M4: improved sessions [2, 3, 4]" in stdout
        flags_csv = (out / "improvement_102.csv").read_text().splitlines()
        row_m4 = [l for l in flags_csv if l.startswith("M4")][0]
        assert row_m4.endswith("2;3;4")
        payload = json.loads((out / "improvement_102.json").read_text())
        assert payload["movements"]["M4"]["improved_sessions"] == [2, 3, 4]

    def test_assess_cohort_fixture(self, tmp_path):
        out = tmp_path / "assess"
        code = run_cli(
            "assess",
            "--fixtures", str(bundled_table("cohort_jerk")),
            "--out", str(out),
        )
        assert code == 0
        text = (out / "cohort_comparison.csv").read_text()
        m3_mean = [l for l in text.splitlines() if l.startswith("M3,mean")][0]
        assert "0.708" in m3_mean

    def test_assess_computed_from_data(self, synth_dir, tmp_path):
        out = tmp_path / "assess"
        code = run_cli("assess", "--data", str(synth_dir), "--out", str(out))
        assert code == 0
        assert (out / "cohort_comparison_jerk.csv").exists()
        assert (out / "cohort_comparison_squared_jerk.csv").exists()
        assert list(out.glob("improvement_P*.csv"))

    @pytest.mark.parametrize(
        "junk", [b"\xff", b"9" * 140_000], ids=["non-utf8", "long-field"]
    )
    def test_assess_malformed_bytes_is_a_data_error(
        self, synth_dir, tmp_path, capsys, junk
    ):
        data = tmp_path / "data"
        shutil.copytree(synth_dir, data)
        signal = sorted(p for p in data.glob("*.csv") if ".annotations" not in p.name)[0]
        signal.write_bytes(signal.read_bytes() + junk + b"\n")
        code = run_cli("assess", "--data", str(data), "--out", str(tmp_path / "out"))
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and signal.name in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "annotations, label, message",
        [
            ("H*.annotations.csv", "M4", "movement M4 missing from a cohort"),
            ("P100_s1_*.annotations.csv", "M2",
             "movement M2: session 1 baseline is missing"),
        ],
        ids=["cohort-movement", "session-baseline"],
    )
    def test_assess_ragged_data_is_a_data_error(
        self, synth_dir, tmp_path, capsys, annotations, label, message
    ):
        # drop one movement's segments from the healthy recordings, or from
        # one patient's first session while later sessions keep it
        data = tmp_path / "data"
        shutil.copytree(synth_dir, data)
        files = sorted(data.glob(annotations))
        assert files
        for path in files:
            lines = path.read_text().splitlines()
            path.write_text("\n".join(l for l in lines if not l.endswith(f",{label}")) + "\n")
        code = run_cli("assess", "--data", str(data), "--out", str(tmp_path / "out"))
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"error: {message}\n"

    def test_constant_jerk_segment_assesses(self, tmp_path):
        # M1 holds 0, 0.1, 0.2 of a ramp rising 0.1 per sample: its jerk is
        # 0.1 at every sample and its mean rounds 1 ulp above that, valid
        # data all the same
        ramp = 0.1 * np.clip(np.arange(20.0) - 10, 0, None)[:, None] * [1.0, 1.0, 1.0]
        code, err, out = assess_one_recording(tmp_path, ramp, [(10, 13, "M1")])
        assert (code, err) == (0, "")
        assert sorted(p.name for p in out.iterdir()) == ["improvement_P1.csv",
                                                         "improvement_P1.json"]

    @pytest.mark.filterwarnings("error")
    def test_overflowing_pooled_cell_is_a_data_error_writing_nothing(self, tmp_path):
        # every segment is finite; the sum of their four means is not
        segment = [[0.0] * 3, [0.0] * 3, [1.1e154] * 3]
        code, err, out = assess_one_recording(
            tmp_path, segment * 4, [(k, k + 3, "M1") for k in (0, 3, 6, 9)])
        assert code == 2
        assert err == "error: pooled squared_jerk mean of M1 session 1 overflows float64\n"
        assert not out.exists() or not list(out.iterdir())

    def test_report_that_cannot_render_writes_no_file(self, tmp_path):
        from kinemotion.cli import _write_report
        from kinemotion.smoothness import COHORTS, STATISTICS, ReferenceTable

        # the CSV holds an infinite cell; strict JSON cannot
        cells = {s: {c: float("inf") for c in COHORTS} for s in STATISTICS}
        with pytest.raises(ValueError):
            _write_report(ReferenceTable("cohort", COHORTS, {"M1": cells}), tmp_path / "out", "t")
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "segment, message",
        [
            ([[0.0] * 3, [1e308] * 3, [-1e308] * 3],
             "P1 session 1 M1 [3, 6): jerk statistics overflow float64"),
            (np.arange(3.0)[:, None] * [1e200, 0.0, 0.0],
             "P1 session 1 M1 [3, 6): jerk statistics overflow float64"),
            (np.arange(3.0)[:, None] * [1e154, 0.0, 0.0],
             "P1 session 1 M1 [3, 6): jerk statistics overflow float64"),
            ([[0.0] * 3, [1.0] * 3], "segment too short for jerk computation: 2 samples"),
        ],
        ids=["jerk-overflow", "squared-jerk-overflow", "mean-overflow", "too-short"],
    )
    def test_bad_segment_is_one_data_error(self, tmp_path, segment, message):
        samples = np.vstack([np.zeros((3, 3)), segment, np.zeros((3, 3))])
        code, err, _ = assess_one_recording(
            tmp_path, samples, [(0, 3, "M2"), (3, 3 + len(segment), "M1")])
        assert (code, err) == (2, f"error: {message}\n")

    @settings(max_examples=8, deadline=None)
    @given(
        n_per_class=st.integers(6, 14),
        healthy_fraction=st.sampled_from([0.25, 0.5]),
        seed=st.integers(0, 2**16),
        axis=st.sampled_from(["x", "y", "z"]),
    )
    def test_tables_from_data_round_trip_through_fixtures(
        self, n_per_class, healthy_fraction, seed, axis
    ):
        # each table `assess --data` pools, written in the fixture format,
        # gives `assess --fixtures` the same comparison and flags bytes
        import tempfile
        from pathlib import Path

        from kinemotion.dataset import load_dataset_dir
        from kinemotion.smoothness import MEASURES, smoothness_set, table_from_records

        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            assert run_cli("synth", "--n-per-class", str(n_per_class), "--healthy-fraction",
                           str(healthy_fraction), "--seed", str(seed),
                           "--out", str(tmp / "data")) == 0
            assert run_cli("assess", "--data", str(tmp / "data"), "--axis", axis,
                           "--out", str(tmp / "from_data")) == 0
            sset = smoothness_set(load_dataset_dir(tmp / "data"))
            cases = [(f"cohort_comparison_{m}", "cohort_comparison",
                      table_from_records(sset, "cohort", m, axis), [])
                     for m in MEASURES]
            for subject in sorted(set(sset.subject_ids[sset.groups == "patient"].tolist())):
                own = sset.subject_ids == subject
                cases.append((f"improvement_{subject}", f"improvement_{subject}",
                              table_from_records(sset, "session", "squared_jerk", axis, own),
                              ["--patient", subject]))
            written = sorted(p.name for p in (tmp / "from_data").iterdir())
            assert written == sorted(f"{c[0]}.{ext}" for c in cases for ext in ("csv", "json"))
            for data_stem, fixture_stem, table, extra in cases:
                fixture = tmp / f"{data_stem}_table.csv"
                fixture.write_text("movement,statistic,cohort_or_session,value\n" + "".join(
                    f"{m},{s},{c},{v!r}\n"
                    for m, stats in table.values.items()
                    for s, cells in stats.items()
                    for c, v in cells.items()
                ))
                out = tmp / data_stem
                assert run_cli("assess", "--fixtures", str(fixture), "--axis", axis,
                               *extra, "--out", str(out)) == 0
                for ext in ("csv", "json"):
                    assert (out / f"{fixture_stem}.{ext}").read_bytes() == (
                        tmp / "from_data" / f"{data_stem}.{ext}").read_bytes()

    def test_assess_requires_exactly_one_source(self, tmp_path):
        assert run_cli("assess", "--out", str(tmp_path)) == 2

    @pytest.mark.parametrize("command", ["report", "assess"])
    @pytest.mark.parametrize(
        "name, drop",
        [
            ("patient_100", lambda r: r[0] == "M2" and r[2] == "4"),
            ("cohort_jerk", lambda r: r[:3] == ["M3", "min", "patient"]),
            ("cohort_squared_jerk", lambda r: r[:2] == ["M4", "mean"]),
        ],
        ids=["session-column", "cohort-cell", "no-mean-rows"],
    )
    def test_incomplete_table_is_a_data_error(self, tmp_path, capsys, command, name, drop):
        lines = bundled_table(name).read_text().splitlines()
        table = tmp_path / f"{name}.csv"
        table.write_text(
            "\n".join(lines[:1] + [l for l in lines[1:] if not drop(l.split(","))]) + "\n"
        )
        code = run_cli(command, "--fixtures", str(table), "--out", str(tmp_path / "out"))
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: missing cell") and table.name in err

    def test_report_renders_both_formats(self, tmp_path):
        out = tmp_path / "report"
        code = run_cli(
            "report",
            "--fixtures", str(bundled_table("cohort_squared_jerk")),
            "--out", str(out),
        )
        assert code == 0
        text = (out / "cohort_squared_jerk.csv").read_text()
        m1 = [l for l in text.splitlines() if l.startswith("M1")][0]
        assert m1.split(",")[1:3] == ["19.96", "7.65"]
        assert (out / "cohort_squared_jerk.json").exists()


    def test_report_on_a_directory_is_a_data_error(self, tmp_path, capsys):
        folder = tmp_path / "tables"
        folder.mkdir()
        code = run_cli("report", "--fixtures", str(folder), "--out", str(tmp_path / "r"))
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and str(folder) in err
        assert "Traceback" not in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("session", ["\u00b2", "0"])
    def test_report_rejects_bad_session_without_traceback(
        self, tmp_path, capsys, session
    ):
        table = tmp_path / "sessions.csv"
        table.write_text(
            "movement,statistic,cohort_or_session,value\n"
            f"M1,mean,{session},1.5\n",
            encoding="utf-8",
        )
        code = run_cli("report", "--fixtures", str(table), "--out", str(tmp_path / "r"))
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err
        assert "line 2" in err and "cohort_or_session" in err
        assert not (tmp_path / "r").exists()


class TestUsageAndExitCodes:
    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("synth", "--bogus")
        assert exc.value.code == 1

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli()
        assert exc.value.code == 1

    def test_missing_file_is_data_error(self, tmp_path):
        code = run_cli(
            "report", "--fixtures", str(tmp_path / "nope.csv"), "--out", str(tmp_path)
        )
        assert code == 2

    @pytest.mark.parametrize("module", ["kinemotion", "kinemotion.cli"])
    def test_python_m_runs_the_command_line(self, module):
        # main() and its exit status, as `python -m` runs them
        import os
        import subprocess
        import sys
        from pathlib import Path

        import kinemotion

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(kinemotion.__file__).parents[1]), env.get("PYTHONPATH", "")]
        )

        def python_m(*argv):
            return subprocess.run([sys.executable, "-m", module, *argv], env=env,
                                  capture_output=True, text=True, timeout=60)

        version = python_m("--version")
        assert (version.returncode, version.stdout) == (0, kinemotion.__version__ + "\n")
        missing = python_m("classify", "--recording", "rec.csv")
        assert missing.returncode == 1
        assert "required: --checkpoint" in missing.stderr

    def test_the_command_line_pins_blas_and_the_library_does_not(self):
        # the console script and `python -m kinemotion` import kinemotion.__main__
        import os
        import subprocess
        import sys
        from pathlib import Path

        import kinemotion

        blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        env = {k: v for k, v in os.environ.items() if k not in blas}
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(kinemotion.__file__).parents[1]), env.get("PYTHONPATH", "")]
        )
        probe = "import os, sys; print([os.environ.get(v) for v in sys.argv[1:]])"

        def blas_after(module, **user):
            done = subprocess.run(
                [sys.executable, "-c", f"import {module}; {probe}", *blas],
                env={**env, **user}, capture_output=True, text=True, timeout=60)
            assert done.returncode == 0, done.stderr
            return done.stdout

        assert blas_after("kinemotion.__main__") == "['1', '1', '1']\n"
        assert blas_after("kinemotion.__main__", OPENBLAS_NUM_THREADS="2") == (
            "['2', '1', '1']\n")  # a count the user set is kept
        assert blas_after("kinemotion.cli") == "[None, None, None]\n"

    def test_every_option_is_documented_in_help(self):
        # walk each subparser: every registered option string must be
        # present in its own formatted help text
        parser = build_parser()
        subactions = [
            a for a in parser._actions
            if isinstance(a, __import__("argparse")._SubParsersAction)
        ][0]
        for name, sub in subactions.choices.items():
            text = sub.format_help()
            for action in sub._actions:
                for option in action.option_strings:
                    assert option in text, (name, option)


class TestNegativeSeeds:
    """A seed is an integer >= 0: a negative one is a data error naming the field."""

    @staticmethod
    def assert_refused(code, capsys, field):
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"error: {field} must be an integer >= 0, got -1\n"

    def test_train_seed_is_refused_before_any_recording_is_read(
        self, synth_dir, tmp_path, capsys, monkeypatch
    ):
        from kinemotion import cli

        def unreachable(*args, **kwargs):
            raise AssertionError("a recording was read")

        monkeypatch.setattr(cli, "load_dataset_dir", unreachable)
        out = tmp_path / "run"
        code = run_cli("train", "--data", str(synth_dir), "--out", str(out),
                       "--epochs", "1", "--seed", "-1")
        self.assert_refused(code, capsys, "seed")
        assert not out.exists()

    def test_train_split_seed(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "run"
        code = run_cli("train", "--data", str(synth_dir), "--out", str(out),
                       "--epochs", "1", "--window", "96", "--split-seed", "-1")
        self.assert_refused(code, capsys, "split seed")
        assert not out.exists()

    def test_eval_split_seed(self, synth_dir, trained_dir, tmp_path, capsys):
        out = tmp_path / "eval"
        code = run_cli("eval", "--data", str(synth_dir),
                       "--checkpoint", str(trained_dir / "model.knm"),
                       "--out", str(out), "--split-seed", "-1")
        self.assert_refused(code, capsys, "split seed")
        assert not out.exists()

    def test_synth_seed(self, tmp_path, capsys):
        out = tmp_path / "data"
        code = run_cli("synth", "--n-per-class", "1", "--seed", "-1", "--out", str(out))
        self.assert_refused(code, capsys, "seed")
        assert not out.exists()
