"""Movement classifier: architecture assembly, training loop, evaluation.

The network is a four-layer convolutional front end over the raw
(3, W) acceleration epoch, with max-pool + dropout after the first and
after the fourth convolution only, followed by one unidirectional LSTM
whose final hidden state feeds a dense 4-class head through a dropout.

Vocabulary note: an epoch always means a fixed-length signal window (a
(3, W) row of an epoch array, or a ``TimeSeries3D`` slice cut by
``kinematics.window``); a full pass over the training data is spelled
out as "training epoch".
"""

from __future__ import annotations

import io
import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dataset import KEY_MOVEMENTS, augment_offsets, check_seed, shifted_rows
from .errors import ConfigError, ContractError, TrainingDiverged
from .kinematics import AXES, TimeSeries3D, window_offsets
from .nn import (
    LSTM,
    Adam,
    Conv1D,
    Dense,
    Dropout,
    MaxPool1D,
    Network,
    ReLU,
    softmax,
    softmax_cross_entropy,
)

N_CLASSES = 4


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters; widths are tunable, the shape is not.

    There are always exactly four convolution layers and two
    pool+dropout blocks (after conv 1 and conv 4); ``toy()`` gives a
    narrow variant of the same shape that fits short inputs, handy for
    gradient checking.
    """

    input_len: int = 128
    conv_channels: tuple[int, ...] = (32, 64, 64, 64)
    conv_kernels: tuple[int, ...] = (8, 4, 4, 4)
    conv_strides: tuple[int, ...] = (2, 1, 1, 1)
    pool_kernels: tuple[int, int] = (4, 2)
    pool_strides: tuple[int, int] = (4, 2)
    dropout: float = 0.5
    lstm_hidden: int = 64

    def __post_init__(self):
        for name in ("conv_channels", "conv_kernels", "conv_strides"):
            if len(getattr(self, name)) != 4:
                raise ConfigError(f"{name} must list exactly four conv layers")
        if len(self.pool_kernels) != 2 or len(self.pool_strides) != 2:
            raise ConfigError("exactly two pool blocks (after conv 1 and conv 4)")
        if min(self.conv_channels + self.conv_kernels + self.conv_strides) < 1:
            raise ConfigError("conv channels, kernels and strides must be >= 1")
        if min(self.pool_kernels + self.pool_strides) < 1:
            raise ConfigError("pool kernels and strides must be >= 1")
        if not (0.0 <= self.dropout < 1.0):
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.lstm_hidden < 1 or self.input_len < 1:
            raise ConfigError("sizes must be >= 1")

    @classmethod
    def toy(cls, input_len=64):
        """Same architecture at narrow width, for fast exact verification.

        Unit strides keep a short input alive through all four
        convolutions (the default strides need input_len >= 94) and
        leave the LSTM a sequence long enough that every recurrent
        weight carries a well-sized gradient.
        """
        return cls(
            input_len=input_len,
            conv_channels=(8, 8, 8, 8),
            conv_kernels=(8, 4, 4, 4),
            conv_strides=(1, 1, 1, 1),
            pool_kernels=(2, 2),
            pool_strides=(2, 2),
            lstm_hidden=8,
        )


def _fold(pairs):
    """Receptive field and total stride of valid (kernel, stride) windows in
    order: output t reads samples [t * stride, t * stride + span) only, so
    L >= span samples yield (L - span) // stride + 1 outputs."""
    span, total = 1, 1
    for kernel, stride in pairs:
        span, total = span + (kernel - 1) * total, total * stride
    return span, total


def build_model(cfg: ModelConfig, seed: int) -> Network:
    """Initialize the full network; deterministic in the seed."""
    ch, ks, ss = cfg.conv_channels, cfg.conv_kernels, cfg.conv_strides
    pk, ps = cfg.pool_kernels, cfg.pool_strides
    span, _ = _fold([(ks[0], ss[0]), (pk[0], ps[0]), *zip(ks[1:], ss[1:]),
                     (pk[1], ps[1])])
    if cfg.input_len < span:
        raise ConfigError(f"input_len {cfg.input_len} is too short for the conv stack; "
                          f"minimum is {span}")
    rng = np.random.default_rng(seed)
    layers = [
        Conv1D(len(AXES), ch[0], ks[0], ss[0], rng=rng),
        ReLU(),
        MaxPool1D(pk[0], ps[0]),
        Dropout(cfg.dropout),
        Conv1D(ch[0], ch[1], ks[1], ss[1], rng=rng),
        ReLU(),
        Conv1D(ch[1], ch[2], ks[2], ss[2], rng=rng),
        ReLU(),
        Conv1D(ch[2], ch[3], ks[3], ss[3], rng=rng),
        ReLU(),
        MaxPool1D(pk[1], ps[1]),
        Dropout(cfg.dropout),
        LSTM(ch[3], cfg.lstm_hidden, rng=rng),
        Dropout(cfg.dropout),
        Dense(cfg.lstm_hidden, N_CLASSES, rng=rng),
    ]
    return Network(layers, input_len=cfg.input_len)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 200
    batch_size: int = 16
    lr: float = 1e-3
    augment_max_frac: float = 0.2
    seed: int = 0
    class_weights: tuple[float, ...] = (1.0, 1.0, 1.0, 1.0)

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be >= 1")
        if len(self.class_weights) != N_CLASSES:
            raise ConfigError(f"class_weights must have {N_CLASSES} entries")
        if min(self.class_weights) <= 0:
            raise ConfigError("class_weights must be positive")
        if not 0 < self.lr < math.inf:  # also false for NaN
            raise ConfigError(f"lr must be finite and > 0, got {self.lr}")
        check_seed(self.seed)


@dataclass
class TrainLog:
    """Per-training-epoch curves plus the final test confusion matrix."""

    train_loss: list[float] = field(default_factory=list)
    train_acc: list[float] = field(default_factory=list)
    test_acc: list[float] = field(default_factory=list)
    confusion: np.ndarray = field(default_factory=lambda: np.zeros((4, 4), dtype=int))

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("epoch,train_loss,train_acc,test_acc\n")
        rows = zip(self.train_loss, self.train_acc, self.test_acc)
        for e, (loss, tr, te) in enumerate(rows, start=1):
            buf.write(f"{e},{loss!r},{tr!r},{te!r}\n")
        return buf.getvalue()

    def confusion_to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("true\\pred," + ",".join(KEY_MOVEMENTS) + "\n")
        for i, label in enumerate(KEY_MOVEMENTS):
            buf.write(label + "," + ",".join(str(c) for c in self.confusion[i]) + "\n")
        return buf.getvalue()


@dataclass(frozen=True)
class EvalResult:
    accuracy: float
    confusion: np.ndarray  # rows = true class, cols = predicted


def _workers(units: int) -> int:
    """Threads for ``units`` independent units of inference: one per CPU
    this process may run on, and no more than there are units."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, units))


def _run_units(unit, items) -> None:
    """``unit(item)`` for every item, each writing its own part of a result.

    The calling thread and ``_workers - 1`` helper threads take the items
    in turn from one iterator; with one worker this is a plain loop.
    numpy releases the GIL inside BLAS and inside ufunc loops, so the
    units overlap on the cores.  Every helper has ended when this returns,
    and a unit's exception is raised here.
    """
    todo, errors = iter(items), []

    def drain():
        try:
            for item in todo:
                unit(item)
        except Exception as exc:  # raised again in the calling thread
            errors.append(exc)

    helpers = [threading.Thread(target=drain) for _ in range(_workers(len(items)) - 1)]
    for helper in helpers:
        helper.start()
    drain()
    for helper in helpers:
        helper.join()
    if errors:
        raise errors[0]


# Epochs per forward pass outside training.  A chunk amortises numpy call
# overhead; a bounded one keeps the activations alive at once to a few
# MiB, where a whole recording's windows in one batch would take tens.
EVAL_CHUNK = 32


def predict_proba(net: Network, x, rows=None) -> np.ndarray:
    """(N, 4) class probabilities (eval mode) of the epochs of a (B, 3, W) array.

    With ``rows``, of the epochs ``x[rows]`` only.  Each forward pass
    gathers EVAL_CHUNK epochs, and the passes run on ``_run_units``'
    threads (an eval pass keeps no layer state), each writing its own
    rows; the values do not depend on the number of threads.  W must be
    the model window when the network declares one, and the network must
    give 4 scores per epoch.
    """
    window = net.input_len
    if window is not None and x.shape[-1] != window:
        raise ContractError(
            f"epoch length {x.shape[-1]} does not match the model window {window}"
        )
    rows = np.arange(len(x)) if rows is None else rows
    probs = np.empty((len(rows), N_CLASSES))

    def chunk(start):
        scores = net.forward(x[rows[start : start + EVAL_CHUNK]], train=False)
        if scores.shape[1:] != (N_CLASSES,):
            raise ContractError(f"the network gives scores of shape {scores.shape[1:]} "
                                f"per epoch, not ({N_CLASSES},)")
        probs[start : start + len(scores)] = softmax(scores)

    _run_units(chunk, range(0, len(rows), EVAL_CHUNK))
    return probs


# Windows per LSTM recurrence of predict_windows.  The recurrence keeps only a
# few (B, 4H) buffers, so a chunk four times EVAL_CHUNK costs little memory
# and spreads each step's numpy calls over more windows.
WINDOW_CHUNK = 128

# Signal samples per front-end pass of predict_windows: about the input of
# 16 windows of 256 samples, so the pass's activations stay at a few MiB
# however long the recording is.
FRONT_END_BLOCK = 4096

_SLIDING = (Conv1D, ReLU, MaxPool1D, Dropout)


def _front_end(net: Network):
    """Depth, receptive field and stride of the front end of ``net``: its
    longest layer prefix of convolutions, ReLUs, max-pools and dropouts
    (the identity in eval mode)."""
    depth = 0
    while depth < len(net.layers) and isinstance(net.layers[depth], _SLIDING):
        depth += 1
    windows = [l for l in net.layers[:depth] if isinstance(l, (Conv1D, MaxPool1D))]
    return (depth, *_fold((l.kernel, l.stride) for l in windows))


def check_network(net: Network) -> None:
    """ContractError unless ``net`` maps one (3, input_len) epoch to the
    N_CLASSES scores: a checkpoint's window and layers need not fit."""
    if net.input_len is None:
        raise ContractError("the network declares no input window")
    epoch, span = (len(AXES), net.input_len), _front_end(net)[1]
    if epoch[1] < span:
        raise ContractError(f"model window {epoch[1]} is shorter than the receptive "
                            f"field {span} of the convolutional front end")
    scores = ([epoch] + net.shapes(epoch))[-1]
    if scores != (N_CLASSES,):
        raise ContractError(f"the network maps a {epoch} epoch to {scores}, not "
                            f"{N_CLASSES} class scores")


def _conv_macs(front: Network, length: int) -> int:
    """Multiply-adds of the convolutions of ``front`` on ``length`` input samples."""
    return sum(layer.in_channels * math.prod(shape) * layer.kernel
               for layer, shape in zip(front.layers, front.shapes((len(AXES), length)))
               if isinstance(layer, Conv1D))


def predict_windows(net: Network, series: TimeSeries3D, stride: int) -> np.ndarray:
    """(N, 4) class probabilities of the sliding windows of one recording.

    Row k belongs to the window at ``kinematics.window_offsets(len(series),
    net.input_len, stride)[k]`` and agrees with ``predict_proba`` on that
    window up to rounding.  Instead of running the front end once per
    window, it runs once per stride phase over the stretch of the signal
    that phase's windows cover (the fully convolutional sliding window of
    OverFeat): with S the front end's total stride and p = o % S, the
    window at offset o reads features ``[(o - p) // S, (o - p) // S + T)``
    of the pass over ``samples[p:]``.  The LSTM's input projection
    ``x_t @ wx + b`` reads one feature only, so it runs once per chunk of
    WINDOW_CHUNK windows of a phase, over the features those windows
    read; per window only the LSTM recurrence, which gathers each step's
    projections from that table, and the layers after the LSTM run.

    That pays only while windows overlap enough: consecutive windows of a
    phase start g * S samples apart, g = stride / gcd(stride, S), so each
    window adds g * S samples to its phase's pass.  The choice is made by
    counting the multiply-adds of the front end's convolutions over the
    phase passes and over every window on its own; unless the passes need
    at most four fifths of the latter, each window runs through the whole
    network, as in ``predict_proba``.  For the default stack (S = 16) on a
    long recording the passes serve g <= 3 at W = 128 (so not the default
    stride 64, g = 4) and g <= 9 at W = 256.  A network whose first layer
    after the front end is not an LSTM always runs whole windows.

    The phases are independent units: each runs its pass, its chunks'
    recurrences and the head, and writes only its own rows, on
    ``_run_units``' threads, so the values do not depend on the number of
    threads.  Memory grows with the recording only through one phase's
    features per thread (C values per S samples, C the LSTM's input
    width): a phase pass runs in blocks of about FRONT_END_BLOCK samples
    that overlap by the receptive field, a thread keeps one phase's
    features at a time, and a chunk's projections (4H values for each
    feature it reads, at most T - 1 of them shared with the chunk before)
    live only for its recurrence.
    """
    check_network(net)
    window = net.input_len
    offsets = np.array(window_offsets(len(series), window, stride), dtype=np.int64)
    depth, span, total = _front_end(net)
    steps = (window - span) // total + 1  # front-end features per window
    front = Network(net.layers[:depth])
    lstm = net.layers[depth]  # check_network: the front end is not the whole stack
    signal = series.samples.T  # (3, n)
    phases = offsets % total
    groups = [np.flatnonzero(phases == p) for p in np.flatnonzero(np.bincount(phases))]
    reach = (steps - 1) * total + span  # samples one window's features depend on
    passes = [offsets[rows[-1]] - offsets[rows[0]] + reach for rows in groups]
    shared = sum(_conv_macs(front, n) for n in passes)
    # the passes must save a fifth: a margin for what the count leaves out
    # (block overlaps, the re-projected features, one recurrence per chunk)
    if not isinstance(lstm, LSTM) or (
        5 * shared > 4 * len(offsets) * _conv_macs(front, window)
    ):
        windows = sliding_window_view(signal, window, axis=1)  # (3, n - W + 1, W)
        return predict_proba(net, windows.transpose(1, 0, 2), offsets)
    head = Network(net.layers[depth + 1 :])
    probs = np.empty((len(offsets), N_CLASSES))
    per_block = max(1, (FRONT_END_BLOCK - span) // total + 1)
    time = np.arange(steps)[:, None]

    def phase_unit(rows):  # one phase: its pass, recurrences and head
        phase = offsets[rows[0]] % total
        starts = (offsets[rows] - phase) // total
        n_feats = int(starts[-1]) + steps
        # feats[s]: front-end feature s of the pass over samples[phase:]
        feats = np.empty((n_feats, lstm.input_size))
        for first in range(int(starts[0]), n_feats, per_block):
            count = min(per_block, n_feats - first)
            lo = phase + first * total
            out = front.forward(signal[None, :, lo : lo + (count - 1) * total + span])
            feats[first : first + count] = out[0].T
        for at in range(0, len(rows), WINDOW_CHUNK):
            chunk = starts[at : at + WINDOW_CHUNK]
            first = int(chunk[0])
            # the features the chunk reads: at most T - 1 also read by the one before
            xw = lstm.project(feats[first : int(chunk[-1]) + steps])
            h = lstm.recurrence(xw, rows=time + (chunk - first))
            probs[rows[at : at + WINDOW_CHUNK]] = softmax(head.forward(h))

    _run_units(phase_unit, groups)
    return probs


def predict(net: Network, window: TimeSeries3D):
    """Class probabilities and argmax label for one (W, 3) window (eval mode)."""
    probs = predict_proba(net, window.samples.T[None])[0]
    return probs, KEY_MOVEMENTS[int(np.argmax(probs))]


def evaluate(net: Network, x, labels, rows) -> EvalResult:
    """Accuracy and 4x4 confusion matrix over the epochs ``x[rows]`` of a
    (N, 3, W) array with class indices ``labels``."""
    if not len(rows):
        raise ContractError("cannot evaluate on an empty set")
    predicted = predict_proba(net, x, rows).argmax(axis=1)
    confusion = np.zeros((N_CLASSES, N_CLASSES), dtype=int)
    np.add.at(confusion, (labels[rows], predicted), 1)
    return EvalResult(
        accuracy=float(np.trace(confusion)) / len(rows), confusion=confusion
    )


def train(net: Network, x, labels, train_rows, test_rows, cfg: TrainConfig) -> TrainLog:
    """Mini-batch Adam with fresh time-shift augmentation each training epoch.

    Trains on rows ``train_rows`` of the (N, 3, W) epoch array ``x`` with
    class indices ``labels``, and evaluates rows ``test_rows`` after each
    training epoch.  Each training epoch draws one time shift per training
    row and shuffles; each mini-batch gathers its shifted rows (``x`` is
    never mutated, and no shifted copy of the whole set is made) for one
    forward pass, one batch-mean loss and one backward pass, whose
    gradients step Adam.  Dropout draws one mask per layer per batch.
    Fully deterministic given (seed, data, config).  Raises
    :class:`TrainingDiverged` on a non-finite loss.
    """
    if not len(train_rows) or not len(test_rows):
        raise ContractError("train and test sets must be non-empty")
    weights = np.asarray(cfg.class_weights, dtype=np.float64)
    train_labels, n, w = labels[train_rows], len(train_rows), x.shape[2]
    optimizer = Adam(lr=cfg.lr)
    params = net.parameters()
    log = TrainLog()

    for epoch_no in range(1, cfg.epochs + 1):
        rng = np.random.default_rng([cfg.seed, epoch_no])
        offsets = augment_offsets(n, w, cfg.augment_max_frac, rng)
        order = rng.permutation(n)

        total_loss = 0.0
        correct = 0
        for batch_no, start in enumerate(range(0, n, cfg.batch_size)):
            batch = order[start : start + cfg.batch_size]
            targets = train_labels[batch]
            inputs = shifted_rows(x, train_rows[batch], offsets[batch])
            scores = net.forward(inputs, train=True, rng=rng)
            loss, dscores = softmax_cross_entropy(scores, targets, weights)
            if not np.isfinite(loss):
                raise TrainingDiverged(epoch_no, batch_no)
            total_loss += loss * len(batch)
            correct += int(np.sum(np.argmax(scores, axis=1) == targets))
            optimizer.step(params, net.backward(dscores))

        result = evaluate(net, x, labels, test_rows)
        log.train_loss.append(total_loss / n)
        log.train_acc.append(correct / n)
        log.test_acc.append(result.accuracy)
        log.confusion = result.confusion

    return log
