"""Network engine: layer oracles, loss, optimizer, gradient integrity."""

import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kinemotion.classifier import WINDOW_CHUNK
from kinemotion.errors import ContractError, InvalidDataError
from kinemotion.nn import (
    LSTM,
    Adam,
    Conv1D,
    Dense,
    Dropout,
    MaxPool1D,
    Network,
    ReLU,
    gradient_check,
    layer_from_spec,
    load_checkpoint,
    max_relative_error,
    save_checkpoint,
    softmax,
    softmax_cross_entropy,
)
from kinemotion.nn import layers
from kinemotion.nn.checkpoint import MAGIC


def brute_force_conv1d(x, w, b, stride):
    """Triple-loop direct convolution; the reference for Conv1D.forward."""
    out_ch, in_ch, k = w.shape
    l_out = (x.shape[1] - k) // stride + 1
    out = np.zeros((out_ch, l_out))
    for o in range(out_ch):
        for t in range(l_out):
            acc = 0.0
            for c in range(in_ch):
                for j in range(k):
                    acc += w[o, c, j] * x[c, t * stride + j]
            out[o, t] = acc + b[o]
    return out


def reference_conv1d_forward(conv, x):
    """The per-example batched product Conv1D.forward runs in eval mode:
    its output and its (B, C*K, L_out) column matrix."""
    l_out = conv.out_shape(x.shape[1:])[1]
    cols = np.empty((x.shape[0], conv.in_channels, conv.kernel, l_out))
    for j in range(conv.kernel):
        cols[:, :, j, :] = conv._tap(x, j, l_out)
    cols = cols.reshape(x.shape[0], -1, l_out)
    out = conv.params["w"].reshape(conv.out_channels, -1) @ cols
    out += conv.params["b"][:, None]
    return out, cols


def reference_conv1d_backward(conv, cols, in_shape, dout):
    """(dw, db, dx) over the columns of ``reference_conv1d_forward``: one
    tensordot for dw, a dcols product per example and one scatter per tap."""
    w = conv.params["w"]
    dw = np.tensordot(dout, cols, axes=([0, 2], [0, 2])).reshape(w.shape)
    l_out = dout.shape[2]
    dcols = (w.reshape(conv.out_channels, -1).T @ dout).reshape(
        in_shape[0], conv.in_channels, conv.kernel, l_out
    )
    dx = np.zeros(in_shape)
    for j in range(conv.kernel):
        conv._tap(dx, j, l_out)[...] += dcols[:, :, j, :]
    return dw, dout.sum(axis=(0, 2)), dx


def reference_recurrence(lstm, xw, train=False):
    """The gate loop LSTM.recurrence ran before it worked in preallocated
    buffers: fresh arrays every step.  Returns the final hidden state and,
    in train mode, the caches (acts, h_prev, c_prev, tanh_c) it kept."""
    n_steps, batch, _ = xw.shape
    hs = lstm.hidden_size
    wh = lstm.params["wh"]
    h = np.zeros((batch, hs))
    c = np.zeros((batch, hs))
    h_prev, c_prev, tanh_cs = np.empty((3, n_steps, batch, hs))
    acts = np.empty((n_steps, batch, 4 * hs))
    for t in range(n_steps):
        gates = xw[t] + h @ wh
        act = np.multiply(gates, 0.5)
        np.tanh(act, out=act)
        act += 1.0
        act *= 0.5
        np.tanh(gates[:, 2 * hs : 3 * hs], out=act[:, 2 * hs : 3 * hs])
        i, f, g, o = (act[:, k * hs : (k + 1) * hs] for k in range(4))
        c_next = f * c + i * g
        tanh_c = np.tanh(c_next)
        acts[t], h_prev[t], c_prev[t], tanh_cs[t] = act, h, c, tanh_c
        h, c = o * tanh_c, c_next
    return h, ((acts, h_prev, c_prev, tanh_cs) if train else None)


def assert_bits(actual, expected, err_msg=""):
    """Equal bit for bit: shapes, values, signed zeros."""
    assert actual.shape == expected.shape, err_msg
    np.testing.assert_array_equal(
        actual.view(np.int64), expected.view(np.int64), err_msg=err_msg
    )


def assert_relative(actual, expected, rtol=1e-12):
    """Largest deviation within rtol of the largest magnitude expected."""
    assert actual.shape == expected.shape
    assert np.abs(actual - expected).max() <= rtol * np.abs(expected).max()


class TestConv1D:
    def test_identity_kernel_passes_input_through(self):
        conv = Conv1D(3, 3, kernel=1, stride=1)
        conv.params["w"] = np.eye(3)[:, :, None].astype(float)
        conv.params["b"] = np.zeros(3)
        x = np.random.default_rng(0).normal(size=(1, 3, 10))
        np.testing.assert_array_equal(conv.forward(x), x)

    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_matches_brute_force(self, stride):
        rng = np.random.default_rng(stride)
        conv = Conv1D(4, 5, kernel=3, stride=stride, rng=rng)
        x = rng.normal(size=(4, 17))
        expected = brute_force_conv1d(x, conv.params["w"], conv.params["b"], stride)
        np.testing.assert_allclose(conv.forward(x[None])[0], expected, rtol=1e-12)

    def test_wrong_channel_count_names_layer(self):
        conv = Conv1D(4, 5, kernel=3)
        with pytest.raises(ContractError, match="Conv1D"):
            conv.forward(np.zeros((1, 3, 17)))

    def test_too_short_input_rejected(self):
        conv = Conv1D(2, 2, kernel=8)
        with pytest.raises(ContractError):
            conv.forward(np.zeros((1, 2, 5)))

    @settings(max_examples=150, deadline=None)
    @given(
        batch=st.integers(1, 17),
        in_ch=st.integers(1, 8),
        out_ch=st.integers(1, 8),
        kernel=st.integers(1, 9),
        stride=st.integers(1, 4),
        l_out=st.integers(1, 40),
        unread=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_time_major_training_matches_reference(
        self, batch, in_ch, out_ch, kernel, stride, l_out, unread, seed
    ):
        # unread trailing samples lie past the last window (when < stride)
        length = (l_out - 1) * stride + kernel + unread % stride
        rng = np.random.default_rng(seed)
        conv = Conv1D(in_ch, out_ch, kernel, stride, rng=rng)
        conv.params["b"] = rng.normal(size=out_ch)
        x = rng.normal(size=(batch, in_ch, length))
        dout = rng.normal(size=(batch, out_ch, l_out))
        expected, cols = reference_conv1d_forward(conv, x)
        dw, db, dx = reference_conv1d_backward(conv, cols, x.shape, dout)

        trained = conv.forward(x, train=True)
        evaluated = conv.forward(x)
        assert conv._cache is None
        assert evaluated.tobytes() == expected.tobytes()
        assert trained.transpose(2, 0, 1).flags.c_contiguous  # a time-major view
        assert_relative(trained, evaluated)
        conv.forward(x, train=True)
        grad = conv.backward(dout)
        assert grad.transpose(2, 0, 1).flags.c_contiguous
        assert_relative(grad, dx)
        assert_relative(conv.grads["w"], dw)
        assert_relative(conv.grads["b"], db)
        grads = conv.grads
        assert conv.backward(dout, input_grad=False) is None
        for key in grads:
            assert conv.grads[key].tobytes() == grads[key].tobytes()


class TestMaxPool:
    def test_values_and_tie_breaking(self):
        pool = MaxPool1D(kernel=2, stride=2)
        x = np.array([[1.0, 3.0, 5.0, 5.0], [2.0, 2.0, 0.0, -1.0]])
        out = pool.forward(x[None], train=True)[0]
        np.testing.assert_array_equal(out, [[3.0, 5.0], [2.0, 0.0]])
        # the tied window routed its gradient to the earliest position
        dx = pool.backward(np.ones((1, 2, 2)))[0]
        np.testing.assert_array_equal(dx, [[0, 1, 1, 0], [1, 0, 1, 0]])


class TestDropout:
    def test_eval_mode_is_identity(self):
        drop = Dropout(0.5)
        x = np.random.default_rng(0).normal(size=(4, 6))
        np.testing.assert_array_equal(drop.forward(x, train=False), x)

    def test_train_mode_needs_rng(self):
        with pytest.raises(ContractError):
            Dropout(0.5).forward(np.zeros((2, 2)), train=True)

    def test_mask_is_drawn_batch_major_and_kept_in_the_input_layout(self):
        # a time-major (B, C, L) view draws the (B, C, L) mask a C-contiguous
        # input draws, and keeps it, and the output, in its own layout
        x = np.random.default_rng(2).normal(size=(7, 5, 6))  # (L, B, C)
        view = x.transpose(1, 2, 0)
        drop = Dropout(0.25)
        out = drop.forward(view, train=True, rng=np.random.default_rng(3))
        mask = (np.random.default_rng(3).random((5, 6, 7)) >= 0.25) / 0.75
        assert out.tobytes() == (view * mask).tobytes()
        assert out.transpose(2, 0, 1).flags.c_contiguous
        assert drop._cache.transpose(2, 0, 1).flags.c_contiguous

    def test_inverted_scaling_preserves_expectation(self):
        # mean over 10^4 masks approaches the input within 2% per entry
        drop = Dropout(0.5)
        rng = np.random.default_rng(123)
        x = np.array([1.0, -2.0, 3.5, 0.7, -1.2])
        acc = np.zeros_like(x)
        n = 10_000
        for _ in range(n):
            acc += drop.forward(x, train=True, rng=rng)
        np.testing.assert_allclose(acc / n, x, rtol=0.02)


class TestLSTM:
    def test_zero_weights_give_zero_hidden(self):
        # gates sigmoid(0)=0.5, candidate tanh(0)=0, so c and h stay 0
        lstm = LSTM(3, 4)
        for key in lstm.params:
            lstm.params[key] = np.zeros_like(lstm.params[key])
        out = lstm.forward(np.ones((1, 3, 5)))[0]
        np.testing.assert_array_equal(out, np.zeros(4))

    def test_single_step_matches_scalar_reference(self):
        lstm = LSTM(2, 2, rng=np.random.default_rng(8))
        x = np.array([[0.3], [-1.2]])
        out = lstm.forward(x[None])[0]

        def sigmoid(v):
            return 1.0 / (1.0 + np.exp(-v))

        gates = x[:, 0] @ lstm.params["wx"] + lstm.params["b"]
        i, f, g, o = gates[0:2], gates[2:4], gates[4:6], gates[6:8]
        c = sigmoid(i) * np.tanh(g)
        expected = sigmoid(o) * np.tanh(c)
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_forget_gate_bias_initialized_to_one(self):
        lstm = LSTM(3, 5)
        b = lstm.params["b"]
        np.testing.assert_array_equal(b[5:10], np.ones(5))
        np.testing.assert_array_equal(b[:5], np.zeros(5))
        np.testing.assert_array_equal(b[10:], np.zeros(10))

    def test_empty_sequence_rejected(self):
        lstm = LSTM(3, 4)
        with pytest.raises(ContractError):
            lstm.forward(np.zeros((1, 3, 0)))

    def test_eval_forward_matches_train_forward_and_keeps_no_cache(self):
        lstm = LSTM(5, 6, rng=np.random.default_rng(9))
        x = np.random.default_rng(10).normal(size=(4, 5, 7))
        trained = lstm.forward(x, train=True)
        assert lstm._cache is not None
        evaluated = lstm.forward(x)
        assert lstm._cache is None
        np.testing.assert_array_equal(evaluated, trained)

    def test_recurrence_on_gathered_projections_matches_forward(self):
        # project a feature sequence once, then run windows of it by gathering
        lstm = LSTM(5, 6, rng=np.random.default_rng(11))
        feats = np.random.default_rng(12).normal(size=(5, 40))
        xw = feats.T @ lstm.params["wx"] + lstm.params["b"]
        starts, steps = np.array([0, 3, 17, 33]), 7
        rows = np.arange(steps)[:, None] + starts
        gathered = lstm.recurrence(xw, rows=rows)
        assert_bits(gathered, lstm.recurrence(xw[rows]))
        windows = np.stack([feats[:, s : s + steps] for s in starts])
        np.testing.assert_allclose(gathered, lstm.forward(windows), rtol=0, atol=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(
        steps=st.integers(1, 12),
        batch=st.integers(1, WINDOW_CHUNK + 1),
        hidden=st.sampled_from([1, 3, 8, 64]),
        inputs=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_buffered_recurrence_matches_reference(
        self, steps, batch, hidden, inputs, seed
    ):
        # the gate loop in preallocated buffers computes every value of the
        # loop that allocated fresh arrays each step, bit for bit: the final
        # state in eval and train mode, the train caches and backward's
        # gradients, and the state from gathered rows of a projection table
        data = np.random.default_rng(seed)
        lstm = LSTM(inputs, hidden, rng=data)
        lstm.params["b"] += data.normal(size=4 * hidden)
        x = 2.0 * data.normal(size=(batch, inputs, steps))
        dout = data.normal(size=(batch, hidden))
        xs = np.ascontiguousarray(x.transpose(2, 0, 1)).reshape(steps * batch, -1)
        xw = lstm.project(xs).reshape(steps, batch, -1)

        want, _ = reference_recurrence(lstm, xw)
        assert_bits(lstm.recurrence(xw), want)
        assert lstm._cache is None

        assert_bits(lstm.forward(x, train=True), want)
        caches = lstm._cache[1:]
        dx = lstm.backward(dout)
        grads = lstm.grads
        _, want_caches = reference_recurrence(lstm, xw, train=True)
        for name, got, ref in zip(("acts", "h_prev", "c_prev", "tanh_c"), caches,
                                  want_caches):
            assert_bits(got, ref, err_msg=name)
        lstm._cache = (xs, *want_caches)
        assert_bits(dx, lstm.backward(dout))
        for key, grad in grads.items():
            assert_bits(grad, lstm.grads[key], err_msg=key)

        table = data.normal(size=(steps + 20, 4 * hidden))
        rows = np.arange(steps)[:, None] + data.integers(0, 21, size=batch)
        want, _ = reference_recurrence(lstm, table[rows])
        assert_bits(lstm.recurrence(table, rows=rows), want)


class TestDense:
    def test_hand_computed_gradients(self):
        dense = Dense(2, 2)
        dense.params["w"] = np.array([[1.0, 2.0], [3.0, 4.0]])
        dense.params["b"] = np.array([0.5, -0.5])
        x = np.array([2.0, -1.0])
        out = dense.forward(x[None], train=True)[0]
        np.testing.assert_array_equal(out, [2 - 3 + 0.5, 4 - 4 - 0.5])
        dout = np.array([1.0, -2.0])
        dx = dense.backward(dout[None])[0]
        np.testing.assert_array_equal(dense.grads["w"], np.outer(x, dout))
        np.testing.assert_array_equal(dense.grads["b"], dout)
        np.testing.assert_array_equal(dx, dout @ dense.params["w"].T)

    def test_backward_restores_2d_input_shape(self):
        dense = Dense(6, 2, rng=np.random.default_rng(0))
        x = np.arange(6.0).reshape(1, 2, 3)
        dense.forward(x, train=True)
        dx = dense.backward(np.array([[1.0, -1.0]]))
        assert dx.shape == (1, 2, 3)


class TestSoftmaxCrossEntropy:
    def test_uniform_scores_give_log4(self):
        loss, _ = softmax_cross_entropy(np.zeros((1, 4)), [0])
        assert loss == pytest.approx(np.log(4.0), rel=1e-12)

    def test_saturated_case(self):
        loss, _ = softmax_cross_entropy(np.array([[100.0, 0.0, 0.0, 0.0]]), [0])
        assert loss < 1e-6

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            scores = rng.normal(size=4) * 3
            weights = rng.uniform(0.5, 2.0, size=4)
            target = int(rng.integers(4))
            loss, dscores = softmax_cross_entropy(scores[None], [target], weights)

            exp = [np.exp(s) for s in scores]
            z = sum(exp)
            probs = [e / z for e in exp]
            ref_loss = -weights[target] * np.log(probs[target])
            ref_grad = [
                weights[target] * (probs[j] - (1.0 if j == target else 0.0))
                for j in range(4)
            ]
            assert abs(loss - ref_loss) < 1e-12
            np.testing.assert_allclose(dscores[0], ref_grad, atol=1e-12)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            p = softmax(rng.normal(size=4) * 10)
            assert np.all(p > 0) and np.all(p < 1)
            assert abs(p.sum() - 1.0) < 1e-12

    def test_target_out_of_range(self):
        with pytest.raises(ContractError):
            softmax_cross_entropy(np.zeros((1, 4)), [4])

    def test_batch_is_mean_of_single_examples(self):
        rng = np.random.default_rng(22)
        scores = rng.normal(size=(6, 4)) * 3
        targets = rng.integers(4, size=6)
        weights = rng.uniform(0.5, 2.0, size=4)
        loss, dscores = softmax_cross_entropy(scores, targets, weights)
        singles = [
            softmax_cross_entropy(scores[b : b + 1], targets[b : b + 1], weights)
            for b in range(6)
        ]
        assert loss == pytest.approx(np.mean([l for l, _ in singles]), rel=1e-12)
        np.testing.assert_allclose(
            dscores, np.concatenate([d for _, d in singles]) / 6, rtol=1e-12
        )

    def test_targets_must_match_batch(self):
        with pytest.raises(ContractError):
            softmax_cross_entropy(np.zeros((2, 4)), [0])
        with pytest.raises(ContractError):
            softmax_cross_entropy(np.zeros(4), [0])


class TestAdam:
    def test_zero_gradient_leaves_parameters(self):
        params = {"w": np.array([1.0, -2.0])}
        grads = {"w": np.zeros(2)}
        opt = Adam()
        opt.step(params, grads)
        np.testing.assert_array_equal(params["w"], [1.0, -2.0])
        assert opt.t == 1

    def test_first_step_closed_form(self):
        # g=1: m_hat = v_hat = 1, so the update is -lr / (1 + eps)
        params = {"w": np.array([0.0])}
        opt = Adam(lr=1e-3)
        opt.step(params, {"w": np.array([1.0])})
        expected = -1e-3 / (1.0 + 1e-8)
        assert params["w"][0] == pytest.approx(expected, rel=1e-12)

    def test_descends_quadratic(self):
        params = {"theta": np.array([1.0])}
        opt = Adam(lr=1e-3)
        previous = abs(params["theta"][0])
        for _ in range(10):
            grads = {"theta": 2.0 * params["theta"]}
            opt.step(params, grads)
            current = abs(params["theta"][0])
            assert current < previous
            previous = current

    def test_shape_mismatch_rejected(self):
        opt = Adam()
        with pytest.raises(ContractError):
            opt.step({"w": np.zeros(3)}, {"w": np.zeros(2)})

    def test_shape_mismatch_updates_no_parameter(self):
        params = {"a": np.zeros(2), "w": np.zeros(3)}
        opt = Adam()
        with pytest.raises(ContractError, match="at w"):
            opt.step(params, {"a": np.ones(2), "w": np.zeros(2)})
        np.testing.assert_array_equal(params["a"], [0.0, 0.0])
        assert opt.t == 0


def toy_network(seed, input_len=12):
    rng = np.random.default_rng(seed)
    return Network(
        [
            Conv1D(3, 4, kernel=3, stride=1, rng=rng),
            ReLU(),
            LSTM(4, 5, rng=rng),
            Dense(5, 4, rng=rng),
        ],
        input_len=input_len,
    )


class TestGradientCheck:
    def test_toy_stack(self):
        rng = np.random.default_rng(0)
        net = toy_network(0)
        x = rng.normal(size=(1, 3, 12))
        assert gradient_check(net, x, targets=[2]) < 1e-4

    def test_linear_model_is_nearly_exact(self):
        # a pure dense layer has no kinks, so central differences agree
        # with the analytic gradient almost to roundoff
        rng = np.random.default_rng(1)
        net = Network([Dense(6, 4, rng=rng)])
        x = rng.normal(size=(1, 6))
        assert gradient_check(net, x, targets=[1]) < 1e-7

    def test_detects_perturbed_gradient(self):
        rng = np.random.default_rng(3)
        net = toy_network(3)
        x = rng.normal(size=(1, 3, 12))
        scores = net.forward(x, train=True, rng=np.random.default_rng(0))
        _, dscores = softmax_cross_entropy(scores, [2])
        analytic = {k: v.copy() for k, v in net.backward(dscores).items()}
        # corrupt the largest entry by 1%; the checker must flag >= 0.9%
        key = max(analytic, key=lambda k: np.abs(analytic[k]).max())
        flat = analytic[key].ravel()
        idx = int(np.abs(flat).argmax())
        perturbed = {k: v.copy() for k, v in analytic.items()}
        perturbed[key].ravel()[idx] *= 1.01
        assert max_relative_error(analytic, perturbed) >= 0.009

    def test_includes_pool_and_dropout_layers(self):
        rng = np.random.default_rng(5)
        net = Network(
            [
                Conv1D(3, 4, kernel=3, stride=1, rng=rng),
                ReLU(),
                MaxPool1D(kernel=2, stride=2),
                Dropout(0.3),
                LSTM(4, 4, rng=rng),
                Dense(4, 4, rng=rng),
            ]
        )
        x = rng.normal(size=(1, 3, 14))
        assert gradient_check(net, x, targets=[0], rng_seed=7) < 1e-4


class TestBatchedEngine:
    """A batch of B is B examples: gradients of the batch-mean loss."""

    def test_batched_gradients_equal_mean_of_single_example_gradients(self):
        from kinemotion.classifier import ModelConfig, build_model

        batch = 5
        net = build_model(ModelConfig(dropout=0.0), seed=23)
        rng = np.random.default_rng(23)
        x = rng.normal(size=(batch, 3, 128))
        targets = rng.integers(4, size=batch)
        scores = net.forward(x, train=True, rng=rng)
        _, dscores = softmax_cross_entropy(scores, targets)
        batched = {k: v.copy() for k, v in net.backward(dscores).items()}

        mean = {k: np.zeros_like(v) for k, v in batched.items()}
        for b in range(batch):
            single = net.forward(x[b : b + 1], train=True, rng=rng)
            np.testing.assert_allclose(single[0], scores[b], rtol=1e-12, atol=1e-14)
            _, dsingle = softmax_cross_entropy(single, targets[b : b + 1])
            for key, g in net.backward(dsingle).items():
                mean[key] += g / batch
        for key, g in batched.items():
            scale = np.abs(mean[key]).max()
            assert scale > 0, key
            assert np.abs(g - mean[key]).max() <= 1e-12 * scale, key

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gradient_check_at_batch_three_with_dropout(self, seed):
        # the toy architecture with its default dropout 0.5; the pinned
        # generator fixes every mask, and class weights of 0.01 keep the
        # tiny entries above the metric's floor, as in criterion 4
        from kinemotion.classifier import ModelConfig, build_model

        net = build_model(ModelConfig.toy(input_len=64), seed=seed)
        assert any(isinstance(l, Dropout) and l.p > 0 for l in net.layers)
        x = np.random.default_rng(seed).normal(size=(3, 3, 64))
        err = gradient_check(
            net, x, targets=[0, 3, 1], class_weights=(0.01,) * 4, rng_seed=11
        )
        assert err < 1e-4

    def test_maxpool_overlapping_windows_route_every_gradient(self):
        pool = MaxPool1D(kernel=3, stride=1)
        x = np.array([[[1.0, 4.0, 2.0, 0.0, 3.0]]])
        np.testing.assert_array_equal(pool.forward(x, train=True), [[[4.0, 4.0, 3.0]]])
        dx = pool.backward(np.array([[[1.0, 2.0, 5.0]]]))
        np.testing.assert_array_equal(dx, [[[0.0, 3.0, 0.0, 0.0, 5.0]]])


def contiguous_step(net, optimizer, x, targets, rng):
    """One training step (forward, loss, backward, Adam) with every activation
    and input gradient copied C-contiguous before the next layer reads it, as
    each layer returned them before train-mode activations stayed time-major.
    Returns the scores and a copy of the gradients."""
    out = x
    for layer in net.layers:
        out = np.ascontiguousarray(layer.forward(out, train=True, rng=rng))
    _, grad = softmax_cross_entropy(out, targets)
    for i, layer in reversed(list(enumerate(net.layers))):
        if i == 0:
            layer.backward(grad, input_grad=False)
        else:
            grad = np.ascontiguousarray(layer.backward(grad))
    grads = {key: g.copy() for key, g in net.gradients().items()}
    optimizer.step(net.parameters(), grads)
    return out, grads


def recording(method, seen, label):
    """``method``, appending ``(label, result)`` to ``seen`` on every call."""

    def call(*args, **kwargs):
        result = method(*args, **kwargs)
        seen.append((label, result))
        return result

    return call


class TestTimeMajorTraining:
    """Train-mode activations are time-major views; the bits do not move."""

    @pytest.mark.parametrize("batch", [1, 16, 17])
    @pytest.mark.parametrize("window", [128, 256])
    def test_step_matches_contiguous_reference(self, window, batch):
        from kinemotion.classifier import ModelConfig, build_model

        cfg = ModelConfig(input_len=window)
        assert cfg.dropout > 0
        net, ref = (build_model(cfg, seed=window + batch) for _ in range(2))
        data = np.random.default_rng(batch)
        x = data.normal(size=(batch, 3, window))
        targets = data.integers(4, size=batch)
        optimizer = Adam()

        scores = net.forward(x, train=True, rng=np.random.default_rng(5))
        _, dscores = softmax_cross_entropy(scores, targets)
        grads = {key: g.copy() for key, g in net.backward(dscores).items()}
        optimizer.step(net.parameters(), grads)
        ref_scores, ref_grads = contiguous_step(
            ref, Adam(), x, targets, np.random.default_rng(5)
        )

        bits = np.testing.assert_array_equal
        bits(scores.view(np.int64), ref_scores.view(np.int64))
        ref_params = ref.parameters()
        for key, p in net.parameters().items():
            bits(grads[key].view(np.int64), ref_grads[key].view(np.int64), err_msg=key)
            bits(p.view(np.int64), ref_params[key].view(np.int64), err_msg=key)

    def test_train_activations_and_gradients_stay_time_major(self, monkeypatch):
        from kinemotion.classifier import ModelConfig, build_model

        net = build_model(ModelConfig(), seed=4)
        seen = []
        for i, layer in enumerate(net.layers):
            for name in ("forward", "backward"):
                method = recording(getattr(layer, name), seen, (i, name))
                monkeypatch.setattr(layer, name, method)
        x = np.random.default_rng(4).normal(size=(16, 3, 128))
        scores = net.forward(x, train=True, rng=np.random.default_rng(6))
        net.backward(softmax_cross_entropy(scores, np.arange(16) % 4)[1])
        maps = {label: a for label, a in seen if a is not None and a.ndim == 3}
        # conv 0 to the last dropout forward, and LSTM to layer 1 backward
        assert sorted(maps) == sorted(
            [(i, "forward") for i in range(12)] + [(i, "backward") for i in range(1, 13)]
        )
        for label, a in maps.items():
            assert a.transpose(2, 0, 1).flags.c_contiguous, label
        seen.clear()
        net.forward(x)
        for label, a in seen:  # eval mode keeps the (B, C, L) order
            assert a.ndim == 2 or a.flags.c_contiguous, label


class TestNetworkDeterminism:
    def test_eval_forward_is_bit_identical(self):
        rng = np.random.default_rng(10)
        net = toy_network(10)
        x = rng.normal(size=(1, 3, 12))
        a = net.forward(x)
        b = net.forward(x)
        np.testing.assert_array_equal(a, b)

    def test_backward_needs_a_train_mode_forward(self, monkeypatch):
        net = toy_network(13)
        x = np.random.default_rng(13).normal(size=(2, 3, 12))
        dscores = np.ones((2, 4))
        ran = []
        for layer in net.layers:
            monkeypatch.setattr(layer, "backward", lambda *a, **kw: ran.append(a))
        with pytest.raises(ContractError, match="backward needs a train-mode forward"):
            net.backward(dscores)  # a fresh network
        net.forward(x, train=True, rng=np.random.default_rng(0))
        net.forward(x)  # an eval-mode pass drops every cache
        with pytest.raises(ContractError, match="backward needs a train-mode forward"):
            net.backward(dscores)
        assert ran == []

    @pytest.mark.parametrize(
        "make",
        [
            lambda: Conv1D(3, 4, kernel=3, stride=2),
            ReLU,
            lambda: MaxPool1D(kernel=2, stride=2),
            lambda: LSTM(3, 5),
            lambda: Dense(27, 4),
        ],
        ids=["conv1d", "relu", "maxpool1d", "lstm", "dense"],
    )
    def test_layer_backward_without_its_cache_names_the_layer(self, make):
        layer = make()
        x = np.random.default_rng(14).normal(size=(2, 3, 9))
        dout = np.ones_like(layer.forward(x, train=True))
        layer.backward(dout)  # a train-mode forward kept what backward reads
        message = rf"^{type(layer).__name__}\(.*\): backward needs a train-mode forward"
        layer.forward(x)  # an eval-mode forward keeps nothing
        assert layer._cache is None
        with pytest.raises(ContractError, match=message):
            layer.backward(dout)
        layer.forward(x, train=True)
        Network([layer]).forward(x)  # an eval-mode pass clears every cache
        with pytest.raises(ContractError, match=message):
            layer.backward(dout)
        with pytest.raises(ContractError, match=message):
            make().backward(dout)  # a fresh layer

    def test_dropout_backward_after_eval_pass_is_identity(self):
        drop = Dropout(0.5)
        x = np.random.default_rng(15).normal(size=(2, 3, 9))
        drop.forward(x, train=True, rng=np.random.default_rng(0))
        Network([drop]).forward(x)
        assert drop.backward(x) is x

    def test_backward_shapes_match_parameters(self):
        rng = np.random.default_rng(11)
        net = toy_network(11)
        x = rng.normal(size=(1, 3, 12))
        scores = net.forward(x, train=True, rng=rng)
        _, dscores = softmax_cross_entropy(scores, [0])
        grads = net.backward(dscores)
        params = net.parameters()
        assert set(grads) == set(params)
        for key in grads:
            assert grads[key].shape == params[key].shape

    def test_backward_skips_only_the_input_gradient_of_layer_0(self, monkeypatch):
        net = toy_network(12)
        x = np.random.default_rng(12).normal(size=(4, 3, 12))
        scores = net.forward(x, train=True, rng=np.random.default_rng(3))
        _, dscores = softmax_cross_entropy(scores, [0, 1, 2, 3])
        first, returned = net.layers[0], []
        backward = first.backward
        monkeypatch.setattr(
            first, "backward", lambda *a, **kw: returned.append(backward(*a, **kw))
        )
        grads = {k: v.copy() for k, v in net.backward(dscores).items()}
        monkeypatch.undo()
        assert returned == [None]
        # reference: every layer's backward, layer 0's input gradient included
        grad = dscores
        for layer in reversed(net.layers):
            grad = layer.backward(grad)
        assert grad.shape == x.shape
        for key, g in net.gradients().items():
            assert grads[key].tobytes() == g.tobytes()


ONE_OF_EACH_KIND = [
    Conv1D(3, 4, kernel=3, stride=2),
    ReLU(),
    MaxPool1D(kernel=2, stride=2),
    Dropout(0.25),
    LSTM(4, 5),
    Dense(5, 4),
]


class TestLayerSpec:
    def test_covers_every_kind(self):
        assert sorted(l.spec()["kind"] for l in ONE_OF_EACH_KIND) == sorted(layers._KINDS)

    @pytest.mark.parametrize("layer", ONE_OF_EACH_KIND, ids=repr)
    def test_spec_rebuilds_an_equal_layer(self, layer):
        rebuilt = layer_from_spec(layer.spec())
        assert rebuilt.spec() == layer.spec()
        assert repr(rebuilt) == repr(layer)
        assert {k: v.shape for k, v in rebuilt.params.items()} == {
            k: v.shape for k, v in layer.params.items()
        }

    def test_spec_and_repr_read_the_constructor_arguments(self):
        conv = ONE_OF_EACH_KIND[0]
        assert conv.spec() == {
            "kind": "conv1d", "in_channels": 3, "out_channels": 4, "kernel": 3, "stride": 2
        }
        assert repr(conv) == "Conv1D(in_channels=3, out_channels=4, kernel=3, stride=2)"


class TestCheckpoint:
    def test_round_trip_restores_forward(self, tmp_path):
        rng = np.random.default_rng(12)
        net = toy_network(12)
        x = rng.normal(size=(1, 3, 12))
        expected = net.forward(x)
        path = tmp_path / "model.knm"
        save_checkpoint(path, net, seed=12)
        ckpt = load_checkpoint(path)
        np.testing.assert_array_equal(ckpt.net.forward(x), expected)
        assert ckpt.seed == 12
        assert ckpt.net.input_len == 12
        assert path.read_bytes()[:4] == MAGIC

    @staticmethod
    def write_with_header(path, header, payload=b""):
        blob = json.dumps(header).encode("utf-8")
        path.write_bytes(MAGIC + struct.pack("<I", len(blob)) + blob + payload)

    def test_rejects_file_shorter_than_header_length_field(self, tmp_path):
        from kinemotion.errors import InvalidDataError

        path = tmp_path / "short.knm"
        path.write_bytes(MAGIC + b"\0\0")
        with pytest.raises(InvalidDataError):
            load_checkpoint(path)

    def test_rejects_header_length_past_end_of_file(self, tmp_path):
        from kinemotion.errors import InvalidDataError

        path = tmp_path / "long_header.knm"
        path.write_bytes(MAGIC + struct.pack("<I", 1000) + b'{"seed": 0}')
        with pytest.raises(InvalidDataError, match="past the end"):
            load_checkpoint(path)

    @pytest.mark.parametrize("missing", ["seed", "layers"])
    def test_rejects_header_missing_key(self, tmp_path, missing):
        from kinemotion.errors import InvalidDataError

        path = tmp_path / "model.knm"
        save_checkpoint(path, toy_network(24), seed=24)
        raw = path.read_bytes()
        header_len = int.from_bytes(raw[4:8], "little")
        header = json.loads(raw[8 : 8 + header_len])
        del header[missing]
        self.write_with_header(path, header, raw[8 + header_len :])
        with pytest.raises(InvalidDataError, match=missing):
            load_checkpoint(path)

    def test_rejects_layer_spec_missing_field(self, tmp_path):
        from kinemotion.errors import InvalidDataError

        path = tmp_path / "model.knm"
        header = {
            "seed": 0,
            "layers": [{"kind": "conv1d", "in_channels": 3, "out_channels": 4}],
        }
        self.write_with_header(path, header)
        with pytest.raises(InvalidDataError, match="kernel"):
            load_checkpoint(path)

    @classmethod
    def saved_toy(cls, tmp_path):
        """A toy checkpoint on disk, with its header and payload bytes."""
        path = tmp_path / "model.knm"
        save_checkpoint(path, toy_network(24), seed=24)
        raw = path.read_bytes()
        header_len = int.from_bytes(raw[4:8], "little")
        return path, json.loads(raw[8 : 8 + header_len]), raw[8 + header_len :]

    def test_rejects_trailing_bytes(self, tmp_path):
        from kinemotion.errors import InvalidDataError

        path, header, payload = self.saved_toy(tmp_path)
        self.write_with_header(path, header, payload + b"\0")
        with pytest.raises(InvalidDataError, match="trailing"):
            load_checkpoint(path)

    def test_rejects_nan_weight(self, tmp_path):
        from kinemotion.errors import InvalidDataError

        path, header, payload = self.saved_toy(tmp_path)
        nan = struct.pack("<d", float("nan"))
        self.write_with_header(path, header, payload[:8] + nan + payload[16:])
        with pytest.raises(InvalidDataError, match="non-finite"):
            load_checkpoint(path)

    def test_payload_must_hold_exactly_the_layers_parameters(self, tmp_path):
        path, header, payload = self.saved_toy(tmp_path)
        longer = payload + bytes(range(1, 17))
        for size in range(len(longer) + 1):
            self.write_with_header(path, header, longer[:size])
            if size == len(payload):
                load_checkpoint(path)
                continue
            message = "truncated" if size < len(payload) else "trailing"
            with pytest.raises(InvalidDataError, match=message):
                load_checkpoint(path)

    def test_rejects_layers_larger_than_the_payload_before_allocating(self, tmp_path):
        # at 4e12 weights (29 TiB), np.zeros would raise MemoryError
        path, header, payload = self.saved_toy(tmp_path)
        header["layers"][3] = {"kind": "dense", "in_features": 10**12, "out_features": 4}
        self.write_with_header(path, header, payload)
        with pytest.raises(InvalidDataError, match="truncated parameter payload"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "spec",
        [
            ["relu"],
            {},
            {"kind": "conv2d"},
            {"kind": ["relu"]},
            {"kind": "maxpool1d", "kernel": 2.0, "stride": 1},
            {"kind": "maxpool1d", "kernel": True, "stride": 1},
            {"kind": "dropout", "p": "0.5"},
        ],
        ids=["not-a-dict", "no-kind", "unknown-kind", "unhashable-kind",
             "float-kernel", "bool-kernel", "string-p"],
    )
    def test_rejects_malformed_layer_spec(self, tmp_path, spec):
        path, header, payload = self.saved_toy(tmp_path)
        header["layers"][1] = spec  # the ReLU, which holds no parameters
        self.write_with_header(path, header, payload)
        with pytest.raises(InvalidDataError, match="malformed checkpoint header"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_save_refuses_non_finite_weight(self, tmp_path, value):
        net = toy_network(24)
        net.layers[-1].params["b"][1] = value
        with pytest.raises(ContractError, match="non-finite weight"):
            save_checkpoint(tmp_path / "model.knm", net, seed=24)
        assert not (tmp_path / "model.knm").exists()

    def test_save_refuses_network_without_window(self, tmp_path):
        net = toy_network(24, input_len=None)
        with pytest.raises(ContractError, match="window"):
            save_checkpoint(tmp_path / "model.knm", net, seed=24)
        assert not (tmp_path / "model.knm").exists()

    @pytest.mark.parametrize(
        "window", [None, 0, -12, True, 12.0, "12", [12]],
        ids=["missing", "zero", "negative", "bool", "float", "string", "list"],
    )
    def test_rejects_window_that_is_not_a_positive_int(self, tmp_path, window):
        from kinemotion.errors import InvalidDataError

        path, header, payload = self.saved_toy(tmp_path)
        if window is None:
            del header["input_len"]  # the layout written before the window moved
        else:
            header["input_len"] = window
        self.write_with_header(path, header, payload)
        with pytest.raises(InvalidDataError, match="input_len"):
            load_checkpoint(path)

    @pytest.mark.parametrize("seed", [float("inf"), float("-inf"), 12.7, "12", True])
    def test_rejects_non_finite_seed(self, tmp_path, seed):
        from kinemotion.errors import InvalidDataError

        path, header, payload = self.saved_toy(tmp_path)
        header["seed"] = seed
        self.write_with_header(path, header, payload)
        with pytest.raises(InvalidDataError, match="malformed checkpoint header"):
            load_checkpoint(path)

    @staticmethod
    def loads_or_rejects(path):
        """A checkpoint file either loads with its window or raises InvalidDataError."""
        from kinemotion.errors import InvalidDataError

        try:
            ckpt = load_checkpoint(path)
        except InvalidDataError:
            return
        assert type(ckpt.net.input_len) is int and ckpt.net.input_len >= 1

    def test_every_truncation_loads_or_is_rejected(self, tmp_path):
        path, _, _ = self.saved_toy(tmp_path)
        raw = path.read_bytes()
        for size in range(len(raw)):
            path.write_bytes(raw[:size])
            self.loads_or_rejects(path)

    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_single_byte_mutation_loads_or_is_rejected(self, tmp_path, data):
        path, _, _ = self.saved_toy(tmp_path)
        raw = bytearray(path.read_bytes())
        # half the mutations land in the magic, length field and JSON header
        header_end = 8 + int.from_bytes(raw[4:8], "little")
        where = data.draw(
            st.integers(0, header_end - 1) | st.integers(0, len(raw) - 1), label="where"
        )
        raw[where] = data.draw(
            st.integers(0, 255).filter(lambda b: b != raw[where]), label="byte"
        )
        path.write_bytes(bytes(raw))
        self.loads_or_rejects(path)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "bogus.knm"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        from kinemotion.errors import InvalidDataError

        with pytest.raises(InvalidDataError):
            load_checkpoint(path)
