"""Command-line pipeline: synth | train | eval | classify | assess | report.

Exit codes: 0 success, 1 usage error, 2 data/configuration error or a
file that cannot be read (a missing path, a directory).
Option precedence: command-line flag > config file > built-in default.
Config files are UTF-8 ``key=value`` lines (``#`` comments), read by
the same reader as recording metadata, whose keys are field names of
the model or training configuration; unknown and repeated keys are
rejected, and numbers must be finite.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import sys
from pathlib import Path

from . import __version__
from .classifier import (
    ModelConfig,
    TrainConfig,
    TrainLog,
    build_model,
    check_network,
    evaluate,
    predict_proba,
    predict_windows,
    train,
)
from .dataset import (
    KEY_MOVEMENTS,
    SplitConfig,
    _parse_float,
    _parse_int,
    extract_epochs,
    is_key_movement,
    load_dataset_dir,
    parse_recording,
    read_key_values,
    split_train_test,
)
from .errors import ConfigError, ContractError, InvalidDataError, KinemotionError
from .kinematics import window_offsets
from .nn import load_checkpoint, save_checkpoint
from .smoothness import (
    COHORTS,
    MEASURES,
    compare_cohort_table,
    evolution_from_table,
    load_table,
    render_report,
    smoothness_set,
    table_from_records,
)
from .synth import gen_dataset

USAGE_ERROR, DATA_ERROR = 1, 2
CSV_BLOCK = 4096  # classify rows formatted per write

_MODEL_FIELDS = {f.name: f for f in dataclasses.fields(ModelConfig)}
_TRAIN_FIELDS = {f.name: f for f in dataclasses.fields(TrainConfig)}


class _Parser(argparse.ArgumentParser):
    """argparse that exits with the documented usage-error code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(USAGE_ERROR)


def _parse_config_value(field, raw, path, line):
    """An int, a float or a tuple of them (items split on commas or spaces)."""
    parse = _parse_float if "float" in field.type else _parse_int
    if "tuple" in field.type:
        items = raw.replace(",", " ").split()
        return tuple(parse(item, path, line, field.name) for item in items)
    return parse(raw, path, line, field.name)


def load_config_file(path):
    """Split a key=value file into model and training overrides."""
    fields = {**_MODEL_FIELDS, **_TRAIN_FIELDS}
    model_kw, train_kw = {}, {}
    for key, (line, raw) in read_key_values(path, fields, "configuration").items():
        kw = model_kw if key in _MODEL_FIELDS else train_kw
        kw[key] = _parse_config_value(fields[key], raw, path, line)
    return model_kw, train_kw


def _resolve_configs(args):
    model_kw, train_kw = {}, {}
    if getattr(args, "config", None):
        model_kw, train_kw = load_config_file(args.config)
    for name in _TRAIN_FIELDS:  # flags share field names; class_weights has none
        if getattr(args, name, None) is not None:
            train_kw[name] = getattr(args, name)
    if args.window is not None:
        model_kw["input_len"] = args.window
    return ModelConfig(**model_kw), TrainConfig(**train_kw)


# epochs are never resampled to a window over this many times the longest
# key-movement segment: a longer one adds only interpolated points, while
# the epoch array (N x 3 x W float64) grows with it
MAX_WINDOW_PER_SEGMENT = 4


def _epochs(recordings, input_len, where):
    """``extract_epochs``, refused before it allocates a row of a window over
    the bound; recordings with no usable key segment give no rows."""
    longest = max((a.end - a.start for r in recordings for a in r.annotations
                   if is_key_movement(a.label)), default=0)
    if longest >= 2 and input_len > MAX_WINDOW_PER_SEGMENT * longest:
        raise ConfigError(f"window {input_len} exceeds {MAX_WINDOW_PER_SEGMENT} x the "
                          f"longest key-movement segment ({longest} samples) {where}")
    return extract_epochs(recordings, input_len)


def _load_epochs(data_dir, input_len):
    data = _epochs(load_dataset_dir(data_dir), input_len, f"under {data_dir}")
    if not len(data.labels):
        raise ConfigError(f"no labelled segments found under {data_dir}")
    return data


def _load_net(path):
    """A checkpoint's network, refused (naming the file) before any recording
    is read unless it maps its window to the class scores."""
    net = load_checkpoint(path).net
    try:
        check_network(net)
    except ContractError as exc:
        raise InvalidDataError(f"{path}: {exc}") from None
    return net


def _split(data, args):
    cfg = SplitConfig(train_fraction=args.train_fraction, seed=args.split_seed)
    return split_train_test(data.labels, cfg)


def _write_report(obj, out_dir, stem):
    # both formats are rendered before either file is written, so a cell
    # that one of them cannot hold leaves no half-written report behind
    csv_text, json_text = render_report(obj, "csv"), render_report(obj, "json")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{stem}.csv"
    json_path = out_dir / f"{stem}.json"
    csv_path.write_text(csv_text, encoding="utf-8")
    json_path.write_text(json_text, encoding="utf-8")
    print(f"wrote {csv_path} and {json_path}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_synth(args):
    recs = gen_dataset(
        n_per_class=args.n_per_class,
        healthy_fraction=args.healthy_fraction,
        seed=args.seed,
        out_dir=args.out,
    )
    segments = sum(len(r.annotations) for r in recs)
    print(f"wrote {len(recs)} recordings ({segments} labelled segments) to {args.out}")
    return 0


def _cmd_train(args):
    model_cfg, train_cfg = _resolve_configs(args)
    data = _load_epochs(args.data, model_cfg.input_len)
    train_rows, test_rows = _split(data, args)
    net = build_model(model_cfg, seed=train_cfg.seed)
    log = train(net, data.x, data.labels, train_rows, test_rows, train_cfg)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(out / "model.knm", net, seed=train_cfg.seed)
    (out / "train_log.csv").write_text(log.to_csv(), encoding="utf-8")
    (out / "confusion.csv").write_text(log.confusion_to_csv(), encoding="utf-8")
    print(
        f"trained {train_cfg.epochs} training epochs on {len(train_rows)} epochs; "
        f"final test accuracy {log.test_acc[-1]:.4f}"
    )
    print(f"checkpoint: {out / 'model.knm'}")
    return 0


def _cmd_eval(args):
    net = _load_net(args.checkpoint)
    data = _load_epochs(args.data, net.input_len)
    _, test_rows = _split(data, args)
    result = evaluate(net, data.x, data.labels, test_rows)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    log = TrainLog(confusion=result.confusion)
    (out / "confusion.csv").write_text(log.confusion_to_csv(), encoding="utf-8")
    print(f"test accuracy {result.accuracy:.4f} on {len(test_rows)} epochs")
    return 0


def _cmd_classify(args):
    net = _load_net(args.checkpoint)
    input_len = net.input_len
    rec = parse_recording(args.recording)

    # the leading columns of each row, and the format of a row: a window
    # has no true label, so its bounds come straight from the offsets' range
    if args.mode == "segments":
        data = _epochs([rec], input_len, f"in {args.recording}")
        probs = predict_proba(net, data.x)
        truths = [KEY_MOVEMENTS[k] for k in data.labels]
        columns = (data.starts.tolist(), data.ends.tolist(), truths)
        row = "%d,%d,%s,"
    else:
        probs = predict_windows(net, rec.series, args.stride)
        starts = window_offsets(len(rec.series), input_len, args.stride)
        columns = (starts, range(starts.start + input_len, starts.stop + input_len,
                                 starts.step))
        row = "%d,%d,,"
    # 10 significant digits keep each row's printed probabilities summing
    # to 1 within 1e-9; six digits left up to 2e-6
    row += "%s" + ",%.10g" * len(KEY_MOVEMENTS) + "\n"
    labels = probs.argmax(axis=1)

    def blocks():  # the CSV text, one %-call per CSV_BLOCK rows
        yield "start_index,end_index,true_label,predicted,p_M1,p_M2,p_M3,p_M4\n"
        for at in range(0, len(probs), CSV_BLOCK):
            part = slice(at, at + CSV_BLOCK)
            cells = [column[part] for column in columns]
            cells.append([KEY_MOVEMENTS[k] for k in labels[part].tolist()])
            cells += probs[part].T.tolist()
            yield row * len(cells[-1]) % tuple(itertools.chain.from_iterable(zip(*cells)))

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.writelines(blocks())
        print(f"classified {len(probs)} epochs -> {args.out}")
    else:
        sys.stdout.writelines(blocks())
    return 0


def _cmd_assess(args):
    if bool(args.fixtures) == bool(args.data):
        raise ConfigError("give exactly one of --fixtures or --data")

    if args.fixtures:
        table = load_table(args.fixtures)
        if table.kind == "session":
            flags = evolution_from_table(table, axis=args.axis)
            stem = f"improvement_{args.patient}" if args.patient else "improvement"
            _write_report(flags, args.out, stem)
            for movement in sorted(flags.movements):
                sessions = sorted(flags.improved(movement))
                print(f"{movement}: improved sessions {sessions or '{}'}")
        else:
            _write_report(compare_cohort_table(table, axis=args.axis), args.out,
                          "cohort_comparison")
        return 0

    sset = smoothness_set(load_dataset_dir(args.data))
    if not len(sset.movements):
        raise ConfigError(f"no labelled segments under {args.data}")

    if set(sset.groups.tolist()) == set(COHORTS):
        for measure in MEASURES:
            table = table_from_records(sset, "cohort", measure, args.axis)
            _write_report(compare_cohort_table(table, axis=args.axis), args.out,
                          f"cohort_comparison_{measure}")

    for subject in sorted(set(sset.subject_ids[sset.groups == "patient"].tolist())):
        own = sset.subject_ids == subject
        if (sset.sessions[own] == 1).any():
            table = table_from_records(sset, "session", "squared_jerk", args.axis, own)
            _write_report(evolution_from_table(table, axis=args.axis), args.out,
                          f"improvement_{subject}")
    return 0


def _cmd_report(args):
    table = load_table(args.fixtures)
    _write_report(table, args.out, Path(args.fixtures).stem)
    return 0


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------


def _add_split_flags(sub):
    sub.add_argument("--train-fraction", type=float, default=0.8,
                     help="fraction of epochs used for training (default 0.8)")
    sub.add_argument("--split-seed", type=int, default=0,
                     help="seed of the deterministic train/test split")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kinemotion",
        description="Movement classification and jerk-based smoothness assessment.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("synth", help="generate a labelled synthetic dataset")
    p.add_argument("--n-per-class", type=int, required=True,
                   help="segments to generate per movement class")
    p.add_argument("--healthy-fraction", type=float, default=0.5,
                   help="fraction of recordings from healthy-style profiles")
    p.add_argument("--seed", type=int, default=0, help="generator seed")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_synth)

    p = subs.add_parser("train", help="train the classifier on a dataset directory")
    p.add_argument("--data", required=True, help="directory of recordings")
    p.add_argument("--out", required=True, help="output directory for checkpoint/logs")
    p.add_argument("--config", help="key=value overrides file")
    p.add_argument("--epochs", type=int, help="number of training epochs")
    p.add_argument("--batch-size", type=int, help="mini-batch size")
    p.add_argument("--lr", type=float, help="Adam learning rate")
    p.add_argument("--augment-max-frac", type=float,
                   help="max circular time shift as a fraction of the window")
    p.add_argument("--seed", type=int, help="training/init seed")
    p.add_argument("--window", type=int, help="classifier input window length")
    _add_split_flags(p)
    p.set_defaults(func=_cmd_train)

    p = subs.add_parser("eval", help="evaluate a checkpoint on the test split")
    p.add_argument("--data", required=True, help="directory of recordings")
    p.add_argument("--checkpoint", required=True, help="model checkpoint file")
    p.add_argument("--out", required=True,
                   help="output directory for the confusion matrix")
    _add_split_flags(p)
    p.set_defaults(func=_cmd_eval)

    p = subs.add_parser("classify", help="label the epochs of one recording")
    p.add_argument("--recording", required=True, help="signal CSV of the recording")
    p.add_argument("--checkpoint", required=True, help="model checkpoint file")
    p.add_argument("--mode", choices=("segments", "windows"), default="segments",
                   help="classify annotated segments or sliding windows")
    p.add_argument("--stride", type=int, default=64, help="stride for --mode windows")
    p.add_argument("--out", help="output CSV (stdout when omitted)")
    p.set_defaults(func=_cmd_classify)

    p = subs.add_parser("assess", help="smoothness statistics and improvement flags")
    p.add_argument("--fixtures", help="reference table CSV to assess")
    p.add_argument("--data", help="directory of recordings to assess")
    p.add_argument("--patient", help="patient id used to name fixture output")
    p.add_argument("--axis", choices=("x", "y", "z"), default="x",
                   help="axis reported (default x)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_assess)

    p = subs.add_parser("report", help="render a reference table as CSV and JSON")
    p.add_argument("--fixtures", required=True, help="reference table CSV")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_report)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, KinemotionError) as exc:  # an OSError from open() names its path
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
