"""Per-layer metrics computed from the spans of a traced run.

Conventions (see README.md for the full table):

* ``fwd_us`` / ``bwd_us`` of a network layer are self time per example
  sent through the network, so they stay comparable when the engine
  starts batching.
* Other ``_us`` / ``_ms`` / ``_s`` names are inclusive wall time per call
  unless the name says ``self``.
* Counts are per traced command, so they repeat exactly run to run.
* Every metric is built from spans of the traced commands, except the
  ``synth.*`` ones, which come from the set-up (the only place synth runs).
* A span that never occurred gives 0, never an error.
"""

from __future__ import annotations

# layer kinds of the default ModelConfig stack, by index
DEFAULT_STACK = (
    "conv1d", "relu", "maxpool1d", "dropout",
    "conv1d", "relu", "conv1d", "relu", "conv1d", "relu",
    "maxpool1d", "dropout", "lstm", "dropout", "dense",
)
# layers that run inside commands; synth only runs in the set-up
COMMAND_LAYERS = ("dataset", "kinematics", "nn", "classifier", "smoothness", "cli")

US, MS, S = 1e3, 1e6, 1e9  # nanoseconds per unit


def _ratio(num, den):
    return float(num) / den if den else 0.0


class TracedRun:
    """Spans plus the totals of the traced commands they were recorded in."""

    def __init__(self, spans, works, walls_ns):
        self.spans = spans
        self.commands = len(works)
        self.fwd = sum(w.fwd_examples for w in works)
        self.bwd = sum(w.bwd_examples for w in works)
        self.epochs = sum(w.train_epochs for w in works)
        self.wall_ns = sum(walls_ns)

    def calls(self, name, **sel):
        return int(self.spans.select(name, **sel).sum())

    def incl(self, name, **sel):
        return int(self.spans.duration[self.spans.select(name, **sel)].sum())

    def self_ns(self, name):
        return int(self.spans.self_time[self.spans.select(name)].sum())

    def count(self, name, **sel):
        return int(self.spans.count[self.spans.select(name, **sel)].sum())

    def per_call(self, name, unit, **sel):
        return _ratio(self.incl(name, **sel) / unit, self.calls(name, **sel))

    def per_command(self, value):
        return _ratio(value, self.commands)

    def layer_self_ns(self, layer):
        return int(self.spans.self_time[self.spans.layer_mask(layer)].sum())

    def root_ns(self):
        spans = self.spans
        roots = (spans.parent < 0) & (spans.command >= 0)
        return int(spans.duration[roots].sum())


def _layer_metrics():
    table = []
    for i, kind in enumerate(DEFAULT_STACK):
        for direction in ("fwd", "bwd"):  # divided by r.fwd or r.bwd examples
            span = f"nn.{i}_{kind}.{direction}"
            table.append((
                f"{span}_us", "us",
                lambda r, span=span, d=direction: _ratio(r.self_ns(span) / US,
                                                         getattr(r, d)),
            ))
    return table


def _eval_forward_us(r):
    eval_ns = r.incl("nn.forward") - r.incl("nn.forward", parent="classifier.train")
    return _ratio(eval_ns / US, r.fwd - r.bwd)


PER_LAYER = _layer_metrics() + [
    ("nn.forward_calls", "count", lambda r: r.per_command(r.calls("nn.forward"))),
    ("nn.backward_calls", "count", lambda r: r.per_command(r.calls("nn.backward"))),
    ("nn.train_fwd_bwd_us", "us", lambda r: _ratio(
        (r.incl("nn.forward", parent="classifier.train") + r.incl("nn.backward")) / US,
        r.bwd)),
    ("nn.eval_forward_us", "us", _eval_forward_us),
    ("nn.adam.step_ms", "ms", lambda r: r.per_call("nn.Adam.step", MS)),
    ("nn.adam.steps", "count", lambda r: r.per_command(r.calls("nn.Adam.step"))),
    ("nn.loss_us", "us", lambda r: _ratio(r.incl("nn.softmax_cross_entropy") / US, r.bwd)),
    ("nn.checkpoint.save_ms", "ms", lambda r: r.per_call("nn.save_checkpoint", MS)),
    ("nn.checkpoint.load_ms", "ms", lambda r: r.per_call("nn.load_checkpoint", MS)),
    ("classifier.train.epoch_s", "s",
     lambda r: _ratio(r.incl("classifier.train") / S, r.epochs)),
    ("classifier.train.self_s", "s",
     lambda r: _ratio(r.self_ns("classifier.train") / S, r.epochs)),
    ("classifier.evaluate_ms", "ms", lambda r: r.per_call("classifier.evaluate", MS)),
    ("classifier.predict_us", "us", lambda r: r.per_call("classifier.predict", US)),
    ("classifier.predict_calls", "count",
     lambda r: r.per_command(r.calls("classifier.predict"))),
    ("dataset.parse_ms", "ms", lambda r: r.per_call("dataset.parse_recording", MS)),
    ("dataset.rows_parsed", "count",
     lambda r: r.per_command(r.count("dataset.parse_recording"))),
    ("dataset.parse_rows_per_s", "rows/s", lambda r: _ratio(
        r.count("dataset.parse_recording"), r.incl("dataset.parse_recording") / S)),
    ("dataset.extract_epochs_ms", "ms", lambda r: r.per_call("dataset.extract_epochs", MS)),
    ("dataset.split_ms", "ms", lambda r: r.per_call("dataset.split_train_test", MS)),
    ("dataset.augment_shift_us", "us", lambda r: r.per_call("dataset.augment_shift", US)),
    ("dataset.augment_calls", "count",
     lambda r: r.per_command(r.calls("dataset.augment_shift"))),
    ("kinematics.resample_us", "us", lambda r: r.per_call("kinematics.resample", US)),
    ("kinematics.window_ms", "ms", lambda r: r.per_call("kinematics.window", MS)),
    ("kinematics.differentiate_us", "us",
     lambda r: r.per_call("kinematics.differentiate", US)),
    ("kinematics.segment_stats_us", "us",
     lambda r: r.per_call("kinematics.segment_stats", US)),
    ("smoothness.record_for_segment_us", "us",
     lambda r: r.per_call("smoothness.record_for_segment", US)),
    ("smoothness.records", "count",
     lambda r: r.per_command(r.calls("smoothness.record_for_segment"))),
    ("smoothness.compare_ms", "ms", lambda r: r.per_call("smoothness.cohort_compare", MS)),
    ("smoothness.evolution_ms", "ms",
     lambda r: r.per_call("smoothness.session_evolution", MS)),
    ("smoothness.render_ms", "ms", lambda r: r.per_call("smoothness.render_report", MS)),
    ("smoothness.reports", "count",
     lambda r: r.per_command(r.calls("smoothness.render_report"))),
    ("synth.gen_dataset_s", "s",
     lambda r: r.per_call("synth.gen_dataset", S, in_commands=False)),
    ("synth.segments", "count", lambda r: _ratio(
        r.count("synth.gen_dataset", in_commands=False),
        r.calls("synth.gen_dataset", in_commands=False))),
    ("cli.self_ms", "ms", lambda r: r.per_command(r.layer_self_ns("cli") / MS)),
] + [
    (f"{layer}.self_pct", "%",
     lambda r, layer=layer: 100.0 * _ratio(r.layer_self_ns(layer), r.wall_ns))
    for layer in COMMAND_LAYERS
] + [
    ("trace.unattributed_ms", "ms",
     lambda r: r.per_command((r.wall_ns - r.root_ns()) / MS)),
]


def per_layer(run: TracedRun, overhead_pct: float, kernel_ms: float) -> dict:
    """Every per-layer metric as ``{name: {"value": v, "unit": u}}``.

    ``kernel_ms`` is the median pass of the reference kernel (hostref.py)
    during the run: the host speed the absolute times were measured at.
    """
    out = {name: {"value": fn(run), "unit": unit} for name, unit, fn in PER_LAYER}
    out["trace.overhead_pct"] = {"value": overhead_pct, "unit": "%"}
    out["host.kernel_ms"] = {"value": kernel_ms, "unit": "ms"}
    return out
