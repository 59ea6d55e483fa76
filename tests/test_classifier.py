"""Architecture assembly, training-loop contracts, evaluation."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinemotion import classifier
from kinemotion.classifier import (
    EvalResult,
    ModelConfig,
    TrainConfig,
    build_model,
    check_network,
    evaluate,
    predict,
    predict_proba,
    predict_windows,
    train,
)
from kinemotion.dataset import KEY_MOVEMENTS
from kinemotion.errors import ConfigError, ContractError
from kinemotion.kinematics import TimeSeries3D, window
from kinemotion.nn import (
    LSTM,
    Conv1D,
    Dense,
    Dropout,
    MaxPool1D,
    Network,
    ReLU,
    softmax_cross_entropy,
)


def reference_feature_length(cfg, input_len):
    """Sequence length surviving the conv/pool stack, layer by layer (< 1: none)."""
    length = input_len
    for i in range(4):
        length = (length - cfg.conv_kernels[i]) // cfg.conv_strides[i] + 1
        if i == 0:
            length = (length - cfg.pool_kernels[0]) // cfg.pool_strides[0] + 1
        if length < 1:
            return length
    return (length - cfg.pool_kernels[1]) // cfg.pool_strides[1] + 1


def reference_min_input_length(cfg):
    """Smallest input length the conv/pool stack accepts, by linear search."""
    w = 1
    while reference_feature_length(cfg, w) < 1:
        w += 1
    return w


def receptive_field(net):
    return classifier._front_end(net)[1]


def make_set(n_per_class, w, seed=0):
    """A (4 * n_per_class, 3, w) epoch array and its class indices, class by class."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(len(KEY_MOVEMENTS) * n_per_class, w, 3)).transpose(0, 2, 1)
    labels = np.repeat(np.arange(len(KEY_MOVEMENTS)), n_per_class)
    return np.ascontiguousarray(x), labels


def as_window(row):
    """One (3, W) row of an epoch array as the (W, 3) window ``predict`` takes."""
    return TimeSeries3D(fs=50.0, samples=row.T)


def train_on(net, train_set, test_set, cfg):
    """``train`` on two (x, labels) sets stacked into one array."""
    x = np.concatenate([train_set[0], test_set[0]])
    labels = np.concatenate([train_set[1], test_set[1]])
    rows = np.arange(len(x))
    n_train = len(train_set[0])
    return train(net, x, labels, rows[:n_train], rows[n_train:], cfg)


class TestModelConfig:
    def test_default_stack_shape(self):
        cfg = ModelConfig()
        net = build_model(cfg, seed=0)
        kinds = [type(l) for l in net.layers]
        assert kinds.count(Conv1D) == 4
        assert kinds.count(MaxPool1D) == 2
        assert kinds.count(Dropout) == 3
        # pool+dropout directly after conv 1 and conv 4 only
        assert isinstance(net.layers[2], MaxPool1D) and isinstance(
            net.layers[3], Dropout
        )
        assert isinstance(net.layers[10], MaxPool1D) and isinstance(
            net.layers[11], Dropout
        )

    def test_forward_shape_contract(self):
        net = build_model(ModelConfig(), seed=0)
        scores = net.forward(np.zeros((1, 3, 128)))
        assert scores.shape == (1, 4)

    def test_feature_length_recurrence(self):
        # track floor((L - k) / s) + 1 through conv and pool blocks
        net = build_model(ModelConfig(), seed=0)
        length = 128
        expected = length
        plan = [(8, 2), (4, 4), (4, 1), (4, 1), (4, 1), (2, 2)]
        for k, s in plan:
            expected = (expected - k) // s + 1
        shapes = net.shapes((3, 128))
        assert shapes[11] == (64, expected)
        assert expected == 3
        # the 3-step LSTM, then dropout and the 4-class head
        assert shapes[-4:] == [(64, 3), (64,), (64,), (4,)]

    def test_too_small_window_reports_minimum(self):
        with pytest.raises(ConfigError) as err:
            build_model(ModelConfig(input_len=8), seed=0)
        net = build_model(ModelConfig(), seed=0)
        minimum = receptive_field(net)
        assert minimum == 94
        assert str(minimum) in str(err.value)
        assert net.shapes((3, minimum))[-1] == (4,)
        with pytest.raises(ContractError):
            net.shapes((3, minimum - 1))

    def test_huge_kernel_minimum_without_a_search(self):
        # the minimum is the receptive field, folded from the config's
        # (kernel, stride) pairs before any weight is allocated
        with pytest.raises(ConfigError, match="minimum is 2000086$"):
            build_model(ModelConfig(conv_kernels=(2_000_000, 4, 4, 4)), 0)

    def test_same_seed_same_parameters(self):
        a = build_model(ModelConfig(), seed=5).parameters()
        b = build_model(ModelConfig(), seed=5).parameters()
        assert set(a) == set(b)
        for key in a:
            np.testing.assert_array_equal(a[key], b[key])

    def test_five_convs_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig(conv_channels=(8, 8, 8, 8, 8))

    def test_toy_variant_fits_64(self):
        net = build_model(ModelConfig.toy(), seed=0)
        check_network(net)
        assert net.shapes((3, 64))[-1] == (4,)
        assert net.forward(np.zeros((1, 3, 64))).shape == (1, 4)


@st.composite
def model_configs(draw):
    """Small random stacks: kernels 1-9, strides 1-4, pools 1-5, widths 1-4."""
    def ints(lo, hi, n):
        return tuple(draw(st.lists(st.integers(lo, hi), min_size=n, max_size=n)))

    return ModelConfig(
        conv_channels=ints(1, 4, 4),
        conv_kernels=ints(1, 9, 4),
        conv_strides=ints(1, 4, 4),
        pool_kernels=ints(1, 5, 2),
        pool_strides=ints(1, 5, 2),
        lstm_hidden=draw(st.integers(1, 4)),
    )


class TestShapeWalk:
    @settings(max_examples=40, deadline=None)
    @given(cfg=model_configs())
    def test_walk_matches_forward_and_fold_matches_linear_search(self, cfg):
        minimum = reference_min_input_length(cfg)
        if minimum > 1:
            with pytest.raises(ConfigError, match=f"minimum is {minimum}$"):
                build_model(dataclasses.replace(cfg, input_len=minimum - 1), seed=0)
        net = build_model(dataclasses.replace(cfg, input_len=minimum), seed=0)
        depth, span, stride = classifier._front_end(net)
        assert (depth, span) == (12, minimum)
        with pytest.raises(ContractError):
            net.shapes((3, span - 1))
        for w in range(span, span + 51):
            shapes = net.shapes((3, w))
            out, seen = np.zeros((1, 3, w)), []
            for layer in net.layers:
                out = layer.forward(out)
                seen.append(out.shape[1:])
            assert shapes == seen
            features = reference_feature_length(cfg, w)
            assert shapes[depth - 1] == (cfg.conv_channels[3], features)
            assert features == (w - span) // stride + 1


class TestPredictEvaluate:
    def test_zeroed_head_gives_uniform_probabilities(self):
        net = build_model(ModelConfig.toy(), seed=1)
        head = net.layers[-1]
        head.params["w"] = np.zeros_like(head.params["w"])
        head.params["b"] = np.zeros_like(head.params["b"])
        x, _ = make_set(1, w=64)
        probs, _ = predict(net, as_window(x[0]))
        np.testing.assert_array_equal(probs, [0.25, 0.25, 0.25, 0.25])

    def test_wrong_epoch_length_rejected(self):
        from kinemotion.errors import ContractError

        net = build_model(ModelConfig.toy(), seed=3)
        x, _ = make_set(1, w=48)
        with pytest.raises(ContractError, match="window"):
            predict(net, as_window(x[0]))
        with pytest.raises(ContractError, match="window 64"):
            predict_proba(net, x)

    def test_head_other_than_four_scores_is_rejected(self):
        net = build_model(ModelConfig(), seed=0)
        net.layers[14] = Dense(64, 5)
        x, labels = make_set(1, w=128)
        shape = re.escape("shape (5,) per epoch, not (4,)")
        with pytest.raises(ContractError, match=shape):
            predict_proba(net, x)
        with pytest.raises(ContractError, match=shape):
            evaluate(net, x, labels, np.arange(len(x)))
        with pytest.raises(ContractError, match=shape):
            predict(net, as_window(x[0]))

    def test_probabilities_sum_to_one(self):
        net = build_model(ModelConfig.toy(), seed=2)
        for row in make_set(3, w=64, seed=3)[0]:
            probs, label = predict(net, as_window(row))
            assert abs(probs.sum() - 1.0) < 1e-12
            assert label in KEY_MOVEMENTS

    def test_accuracy_matches_scalar_loop(self):
        net = build_model(ModelConfig.toy(), seed=4)
        x, labels = make_set(6, w=64, seed=5)
        result = evaluate(net, x, labels, np.arange(len(x)))
        correct = sum(
            predict(net, as_window(row))[1] == KEY_MOVEMENTS[label]
            for row, label in zip(x, labels)
        )
        assert result.accuracy == correct / len(x)
        assert result.confusion.sum() == len(x)
        # rows select epochs of the array, in their order
        rows = np.array([5, 0, 17, 9])
        part = evaluate(net, x, labels, rows)
        np.testing.assert_array_equal(
            part.confusion, evaluate(net, x[rows], labels[rows], np.arange(4)).confusion
        )

    def test_confusion_row_sums_match_class_counts(self):
        rng = np.random.default_rng(6)
        net = build_model(ModelConfig.toy(), seed=6)
        counts = rng.integers(1, 8, size=4)
        labels = np.repeat(np.arange(4), counts)
        x = rng.normal(size=(len(labels), 3, 64))
        result = evaluate(net, x, labels, np.arange(len(x)))
        np.testing.assert_array_equal(result.confusion.sum(axis=1), counts)

    def test_perfect_and_constant_predictors(self):
        # oracle paths through the confusion bookkeeping, no model needed
        from kinemotion.classifier import N_CLASSES

        _, labels = make_set(5, w=8, seed=7)
        confusion = np.zeros((N_CLASSES, N_CLASSES), dtype=int)
        for label in labels:
            confusion[label, label] += 1
        perfect = EvalResult(
            accuracy=np.trace(confusion) / len(labels), confusion=confusion
        )
        assert perfect.accuracy == 1.0
        assert np.all(np.diag(np.diag(perfect.confusion)) == perfect.confusion)

        constant = np.zeros((N_CLASSES, N_CLASSES), dtype=int)
        for label in labels:
            constant[label, 0] += 1
        assert np.trace(constant) / len(labels) == 0.25


def random_series(rows, seed=0):
    rng = np.random.default_rng(seed)
    return TimeSeries3D(fs=50.0, samples=rng.normal(size=(rows, 3)))


def windows_of(series, w, stride):
    """The windows ``kinematics.window`` cuts, as one (N, 3, w) array."""
    windows = window(series, w, stride)
    return np.array([ep.samples.T for ep in windows]).reshape(len(windows), 3, w)


def assert_rows_agree(got, want):
    """Every probability within 5e-7 and every argmax label equal."""
    assert got.shape == want.shape
    if len(want):
        assert np.max(np.abs(got - want)) <= 5e-7
        np.testing.assert_array_equal(got.argmax(axis=1), want.argmax(axis=1))


# front ends with a total stride S of 16 (default), 4 (toy) and 12 (odd:
# conv 1 stride 2, pools 3 and 2), so the phase arithmetic also runs for an
# S other than 16 and for one that is not a power of two
STACKS = {
    "default": ModelConfig,
    "toy": ModelConfig.toy,
    "odd": lambda input_len: ModelConfig(
        input_len=input_len,
        conv_channels=(8, 8, 8, 8),
        conv_strides=(1, 2, 1, 1),
        pool_kernels=(3, 2),
        pool_strides=(3, 2),
        lstm_hidden=8,
    ),
}


class TestPredictWindows:
    """predict_windows against per-window predict_proba, the reference path."""

    @pytest.mark.parametrize("stack", list(STACKS))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_rows_match_per_window_predict_proba(self, stack, data):
        make = STACKS[stack]
        span = receptive_field(build_model(make(input_len=300), seed=0))
        w = data.draw(st.integers(span, 300), label="window")
        stride = data.draw(st.integers(1, 40) | st.integers(w + 1, w + 40),
                           label="stride")
        rows = data.draw(st.integers(max(1, w - 8), w + 400), label="rows")
        net = build_model(make(input_len=w), seed=w)
        series = random_series(rows, seed=rows)
        assert_rows_agree(
            predict_windows(net, series, stride),
            predict_proba(net, windows_of(series, w, stride)),
        )

    @pytest.mark.parametrize("w", [128, 256])
    @pytest.mark.parametrize("stride", [1, 7, 8, 15, 16, 17, 25, 33, 64, 999])
    def test_front_end_sees_at_most_one_pass_per_window(self, w, stride, monkeypatch):
        # phase passes pay only while windows overlap; with little overlap
        # (an odd stride of 17 at S = 16 gives 16 phases) or none (999) they
        # would compute more samples than running each window on its own
        net = build_model(ModelConfig(input_len=w), seed=w)
        series = random_series(20 * max(stride, 50) + 345, seed=stride)
        first, seen = net.layers[0], []
        forward = first.forward

        def counting(x, **kwargs):
            seen.append(x.shape[0] * x.shape[2])
            return forward(x, **kwargs)

        monkeypatch.setattr(first, "forward", counting)
        got = predict_windows(net, series, stride)
        monkeypatch.undo()
        assert_rows_agree(got, predict_proba(net, windows_of(series, w, stride)))
        assert sum(seen) <= len(got) * w

    def test_blocks_match_one_unblocked_pass(self, monkeypatch):
        net = build_model(ModelConfig(input_len=256), seed=21)
        # three and a bit front-end blocks per phase, two phases at stride 24
        series = random_series(3 * classifier.FRONT_END_BLOCK + 1234, seed=21)
        blocked = predict_windows(net, series, 24)
        monkeypatch.setattr(classifier, "FRONT_END_BLOCK", 10 * len(series))
        whole = predict_windows(net, series, 24)
        assert len(whole) == (len(series) - 256) // 24 + 1
        np.testing.assert_allclose(blocked, whole, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(blocked.argmax(axis=1), whole.argmax(axis=1))

    def test_stack_without_lstm_after_the_front_end_runs_whole_windows(self):
        # conv, relu, pool, then a dense head: stride 1 would take the phase
        # passes for an LSTM stack, but the projection needs an LSTM
        rng = np.random.default_rng(25)
        net = Network(
            [Conv1D(3, 4, 5, rng=rng), ReLU(), MaxPool1D(2, 2), Dense(56, 4, rng=rng)],
            input_len=32,
        )
        series = random_series(300, seed=25)
        calls = []
        forward = net.forward

        def counting(x, **kwargs):
            calls.append(len(x))
            return forward(x, **kwargs)

        net.forward = counting
        got = predict_windows(net, series, 1)
        del net.forward
        assert sum(calls) == len(got) == 300 - 32 + 1
        assert_rows_agree(got, predict_proba(net, windows_of(series, 32, 1)))

    @pytest.mark.parametrize("stride", [8, 999])  # phase passes, whole windows
    def test_lstm_narrower_than_the_front_end_is_rejected(self, stride):
        # a checkpoint's layers need not fit together
        net = build_model(ModelConfig(input_len=128), seed=26)
        net.layers[12] = LSTM(32, 64)
        with pytest.raises(ContractError, match="LSTM"):
            predict_windows(net, random_series(2000), stride)

    def test_window_shorter_than_the_receptive_field_is_rejected(self):
        # a checkpoint's header may declare a window its layers cannot take
        net = build_model(ModelConfig(), seed=24)
        net.input_len = receptive_field(net) - 1
        with pytest.raises(ContractError, match="receptive field 94"):
            predict_windows(net, random_series(500), 8)

    @pytest.mark.parametrize("stride", [8, 999])
    def test_head_other_than_four_scores_is_rejected(self, stride):
        net = build_model(ModelConfig(input_len=128), seed=27)
        net.layers[14] = Dense(64, 5)
        with pytest.raises(ContractError, match=r"to \(5,\), not 4 class scores"):
            predict_windows(net, random_series(2000), stride)


class TestTrain:
    def test_forward_backward_leave_parameters_and_initial_loss_near_log4(self):
        # only the optimiser step moves weights; an untrained net is near uniform
        net = build_model(ModelConfig.toy(), seed=8)
        before = {k: v.copy() for k, v in net.parameters().items()}
        x, targets = make_set(4, w=64, seed=8)
        scores = net.forward(x, train=True, rng=np.random.default_rng(8))
        loss, dscores = softmax_cross_entropy(scores, targets, np.ones(4))
        net.backward(dscores)
        after = net.parameters()
        for key in before:
            np.testing.assert_array_equal(before[key], after[key])
        assert loss == pytest.approx(np.log(4.0), rel=0.05)

    def test_training_is_bit_reproducible(self):
        train_set = make_set(4, w=64, seed=10)
        test_set = make_set(2, w=64, seed=11)
        cfg = TrainConfig(epochs=3, batch_size=8, seed=12)
        logs = []
        for _ in range(2):
            net = build_model(ModelConfig.toy(), seed=12)
            logs.append(train_on(net, train_set, test_set, cfg))
        assert logs[0].train_loss == logs[1].train_loss
        assert logs[0].train_acc == logs[1].train_acc
        assert logs[0].test_acc == logs[1].test_acc
        np.testing.assert_array_equal(logs[0].confusion, logs[1].confusion)

    def test_training_does_not_mutate_stored_dataset(self):
        x, labels = make_set(3, w=64, seed=13)
        snapshot = x.copy()
        net = build_model(ModelConfig.toy(), seed=13)
        cfg = TrainConfig(epochs=2, batch_size=4, seed=13)
        train(net, x, labels, np.arange(0, 12, 2), np.arange(1, 12, 2), cfg)
        np.testing.assert_array_equal(x, snapshot)

    def test_log_lengths_and_confusion_totals(self):
        net = build_model(ModelConfig.toy(), seed=15)
        test_set = make_set(2, w=64, seed=16)
        cfg = TrainConfig(epochs=4, batch_size=8, seed=15)
        log = train_on(net, make_set(3, w=64, seed=15), test_set, cfg)
        assert len(log.train_loss) == len(log.train_acc) == len(log.test_acc) == 4
        assert log.confusion.sum() == len(test_set[0])

    def test_non_finite_loss_aborts_with_location(self):
        from kinemotion.errors import TrainingDiverged

        net = build_model(ModelConfig.toy(), seed=19)
        head = net.layers[-1]
        head.params["b"] = np.full_like(head.params["b"], np.nan)
        cfg = TrainConfig(epochs=1, batch_size=4, seed=19)
        with pytest.raises(TrainingDiverged) as err:
            train_on(net, make_set(2, w=64, seed=19), make_set(1, w=64, seed=20), cfg)
        assert err.value.epoch == 1
        assert err.value.batch == 0

    def test_log_csv_round_trip(self):
        net = build_model(ModelConfig.toy(), seed=17)
        cfg = TrainConfig(epochs=2, batch_size=8, seed=17)
        log = train_on(net, make_set(2, w=64, seed=17), make_set(1, w=64, seed=18), cfg)
        lines = log.to_csv().strip().splitlines()
        assert lines[0] == "epoch,train_loss,train_acc,test_acc"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert float(first[1]) == log.train_loss[0]
        grid = log.confusion_to_csv().strip().splitlines()
        assert len(grid) == 5
