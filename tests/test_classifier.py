"""Architecture assembly, training-loop contracts, evaluation."""

import numpy as np
import pytest

from kinemotion.classifier import (
    EvalResult,
    ModelConfig,
    TrainConfig,
    build_model,
    evaluate,
    feature_length,
    min_input_length,
    predict,
    train,
)
from kinemotion.dataset import KEY_MOVEMENTS, LabeledEpoch
from kinemotion.errors import ConfigError
from kinemotion.kinematics import Epoch
from kinemotion.nn import Conv1D, Dropout, MaxPool1D


def make_set(n_per_class, w, seed=0):
    rng = np.random.default_rng(seed)
    return [
        LabeledEpoch(epoch=Epoch(values=rng.normal(size=(w, 3))), label=label)
        for label in KEY_MOVEMENTS
        for _ in range(n_per_class)
    ]


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
        cfg = ModelConfig()
        length = 128
        expected = length
        plan = [(8, 2), (4, 4), (4, 1), (4, 1), (4, 1), (2, 2)]
        for k, s in plan:
            expected = (expected - k) // s + 1
        assert feature_length(cfg) == expected
        assert expected == 3

    def test_too_small_window_reports_minimum(self):
        with pytest.raises(ConfigError) as err:
            build_model(ModelConfig(input_len=8), seed=0)
        minimum = min_input_length(ModelConfig(input_len=8))
        assert str(minimum) in str(err.value)
        assert feature_length(ModelConfig(input_len=minimum), minimum) >= 1
        assert feature_length(ModelConfig(input_len=8), minimum - 1) < 1

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
        cfg = ModelConfig.toy()
        assert feature_length(cfg) >= 1
        net = build_model(cfg, seed=0)
        assert net.forward(np.zeros((1, 3, 64))).shape == (1, 4)


class TestPredictEvaluate:
    def test_zeroed_head_gives_uniform_probabilities(self):
        net = build_model(ModelConfig.toy(), seed=1)
        head = net.layers[-1]
        head.params["w"] = np.zeros_like(head.params["w"])
        head.params["b"] = np.zeros_like(head.params["b"])
        item = make_set(1, w=64)[0]
        probs, _ = predict(net, item.epoch)
        np.testing.assert_array_equal(probs, [0.25, 0.25, 0.25, 0.25])

    def test_wrong_epoch_length_rejected(self):
        from kinemotion.errors import ContractError

        net = build_model(ModelConfig.toy(), seed=3)
        item = make_set(1, w=48)[0]
        with pytest.raises(ContractError, match="window"):
            predict(net, item.epoch)

    def test_mixed_epoch_lengths_rejected_without_declared_window(self):
        from kinemotion.classifier import predict_proba
        from kinemotion.errors import ContractError

        net = build_model(ModelConfig.toy(), seed=3)
        net.input_len = None
        items = make_set(1, w=64) + make_set(1, w=72)
        with pytest.raises(ContractError, match="window 64"):
            predict_proba(net, [item.epoch for item in items])

    def test_probabilities_sum_to_one(self):
        net = build_model(ModelConfig.toy(), seed=2)
        for item in make_set(3, w=64, seed=3):
            probs, label = predict(net, item.epoch)
            assert abs(probs.sum() - 1.0) < 1e-12
            assert label in KEY_MOVEMENTS

    def test_accuracy_matches_scalar_loop(self):
        net = build_model(ModelConfig.toy(), seed=4)
        test_set = make_set(6, w=64, seed=5)
        result = evaluate(net, test_set)
        correct = sum(
            predict(net, item.epoch)[1] == item.label for item in test_set
        )
        assert result.accuracy == correct / len(test_set)
        assert result.confusion.sum() == len(test_set)

    def test_confusion_row_sums_match_class_counts(self):
        rng = np.random.default_rng(6)
        net = build_model(ModelConfig.toy(), seed=6)
        counts = rng.integers(1, 8, size=4)
        test_set = []
        for label, count in zip(KEY_MOVEMENTS, counts):
            test_set += [
                LabeledEpoch(epoch=Epoch(values=rng.normal(size=(64, 3))), label=label)
                for _ in range(count)
            ]
        result = evaluate(net, test_set)
        np.testing.assert_array_equal(result.confusion.sum(axis=1), counts)

    def test_perfect_and_constant_predictors(self):
        # oracle paths through the confusion bookkeeping, no model needed
        from kinemotion.classifier import N_CLASSES
        from kinemotion.dataset import label_index

        test_set = make_set(5, w=8, seed=7)
        confusion = np.zeros((N_CLASSES, N_CLASSES), dtype=int)
        for item in test_set:
            confusion[label_index(item.label), label_index(item.label)] += 1
        perfect = EvalResult(
            accuracy=np.trace(confusion) / len(test_set), confusion=confusion
        )
        assert perfect.accuracy == 1.0
        assert np.all(np.diag(np.diag(perfect.confusion)) == perfect.confusion)

        constant = np.zeros((N_CLASSES, N_CLASSES), dtype=int)
        for item in test_set:
            constant[label_index(item.label), 0] += 1
        assert np.trace(constant) / len(test_set) == 0.25


class TestTrain:
    def test_zero_lr_leaves_parameters_and_loss_near_log4(self):
        net = build_model(ModelConfig.toy(), seed=8)
        before = {k: v.copy() for k, v in net.parameters().items()}
        cfg = TrainConfig(epochs=1, batch_size=8, lr=0.0, seed=8)
        log = train(net, make_set(4, w=64, seed=8), make_set(1, w=64, seed=9), cfg)
        after = net.parameters()
        for key in before:
            np.testing.assert_array_equal(before[key], after[key])
        assert log.train_loss[0] == pytest.approx(np.log(4.0), rel=0.05)

    def test_training_is_bit_reproducible(self):
        train_set = make_set(4, w=64, seed=10)
        test_set = make_set(2, w=64, seed=11)
        cfg = TrainConfig(epochs=3, batch_size=8, seed=12)
        logs = []
        for _ in range(2):
            net = build_model(ModelConfig.toy(), seed=12)
            logs.append(train(net, train_set, test_set, cfg))
        assert logs[0].train_loss == logs[1].train_loss
        assert logs[0].train_acc == logs[1].train_acc
        assert logs[0].test_acc == logs[1].test_acc
        np.testing.assert_array_equal(logs[0].confusion, logs[1].confusion)

    def test_training_does_not_mutate_stored_dataset(self):
        train_set = make_set(3, w=64, seed=13)
        snapshot = [item.epoch.values.copy() for item in train_set]
        net = build_model(ModelConfig.toy(), seed=13)
        cfg = TrainConfig(epochs=2, batch_size=4, seed=13)
        train(net, train_set, make_set(1, w=64, seed=14), cfg)
        for item, before in zip(train_set, snapshot):
            np.testing.assert_array_equal(item.epoch.values, before)

    def test_log_lengths_and_confusion_totals(self):
        net = build_model(ModelConfig.toy(), seed=15)
        test_set = make_set(2, w=64, seed=16)
        cfg = TrainConfig(epochs=4, batch_size=8, seed=15)
        log = train(net, make_set(3, w=64, seed=15), test_set, cfg)
        assert len(log.train_loss) == len(log.train_acc) == len(log.test_acc) == 4
        assert log.confusion.sum() == len(test_set)

    def test_non_finite_loss_aborts_with_location(self):
        from kinemotion.errors import TrainingDiverged

        net = build_model(ModelConfig.toy(), seed=19)
        head = net.layers[-1]
        head.params["b"] = np.full_like(head.params["b"], np.nan)
        cfg = TrainConfig(epochs=1, batch_size=4, seed=19)
        with pytest.raises(TrainingDiverged) as err:
            train(net, make_set(2, w=64, seed=19), make_set(1, w=64, seed=20), cfg)
        assert err.value.epoch == 1
        assert err.value.batch == 0

    def test_log_csv_round_trip(self):
        net = build_model(ModelConfig.toy(), seed=17)
        cfg = TrainConfig(epochs=2, batch_size=8, seed=17)
        log = train(net, make_set(2, w=64, seed=17), make_set(1, w=64, seed=18), cfg)
        lines = log.to_csv().strip().splitlines()
        assert lines[0] == "epoch,train_loss,train_acc,test_acc"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert float(first[1]) == log.train_loss[0]
        grid = log.confusion_to_csv().strip().splitlines()
        assert len(grid) == 5
