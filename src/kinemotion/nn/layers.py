"""Layer implementations: forward passes, exact backward passes, init.

Conventions
-----------
* Everything is float64 and carries a leading batch axis B: a single
  example is a batch of one.
* Convolutional-front-end activations are shaped (B, channels, length);
  the LSTM consumes that layout directly and emits its final hidden
  state as (B, hidden) for the dense head, which returns (B, out).
* ``forward(x, train=..., rng=...)`` caches whatever the matching
  ``backward(dout)`` needs; backward must follow a forward on the same
  instance and returns the gradient w.r.t. the layer input while
  filling ``self.grads`` (same keys/shapes as ``self.params``), summed
  over the batch.  The loss divides by B, so the sum is the gradient
  of the batch-mean loss.
* ``out_shape(shape)`` maps one example's input shape to its output
  shape (no batch axis) or raises ContractError naming the layer: the
  one shape rule, which ``forward`` enforces and ``Network.shapes`` walks.
"""

from __future__ import annotations

import numpy as np

from ..errors import ContractError


def _he_uniform(rng, shape, fan_in):
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape)


class Layer:
    """Common surface: params/grads dicts, forward/backward, spec dict."""

    def __init__(self):
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self._cache = None

    def forward(self, x, train=False, rng=None):
        raise NotImplementedError

    def backward(self, dout):
        raise NotImplementedError

    def spec(self) -> dict:
        raise NotImplementedError

    def out_shape(self, shape: tuple) -> tuple:
        """Output shape of one example of input ``shape``; kept by default."""
        return shape

    def _refuse(self, shape, expected):
        raise ContractError(f"{self!r}: expected input shape {expected}, got {shape}")


class _Window(Layer):
    """A valid (unpadded) window of ``kernel`` samples, ``stride`` apart."""

    def __init__(self, kernel, stride):
        super().__init__()
        if kernel < 1 or stride < 1:
            raise ContractError(f"{type(self).__name__} kernel and stride must be >= 1")
        self.kernel = kernel
        self.stride = stride

    def _length(self, length):  # window positions within length samples
        if length < self.kernel:
            raise ContractError(f"{self!r}: input length {length} shorter than kernel")
        return (length - self.kernel) // self.stride + 1

    def _tap(self, x, j, l_out):
        """x[b, c, t*stride + j] for t < l_out: window position j, as a view."""
        return x[:, :, j : j + l_out * self.stride : self.stride]


class Conv1D(_Window):
    """Valid (no padding) 1-D convolution over (B, channels, length) input."""

    def __init__(self, in_channels, out_channels, kernel, stride=1, rng=None):
        super().__init__(kernel, stride)
        if min(in_channels, out_channels) < 1:
            raise ContractError("conv channels must be >= 1")
        self.in_channels = in_channels
        self.out_channels = out_channels
        rng = rng or np.random.default_rng(0)
        fan_in = in_channels * kernel
        self.params = {
            "w": _he_uniform(rng, (out_channels, in_channels, kernel), fan_in),
            "b": np.zeros(out_channels),
        }

    def __repr__(self):
        return (
            f"Conv1D({self.in_channels}->{self.out_channels}, "
            f"k={self.kernel}, s={self.stride})"
        )

    def out_shape(self, shape):
        if len(shape) != 2 or shape[0] != self.in_channels:
            self._refuse(shape, f"({self.in_channels}, L)")
        return (self.out_channels, self._length(shape[1]))

    def forward(self, x, train=False, rng=None):
        l_out = self.out_shape(x.shape[1:])[1]
        # cols[b, c*K + j, t] = x[b, c, t*stride + j], one strided copy per tap
        cols = np.empty((x.shape[0], self.in_channels, self.kernel, l_out))
        for j in range(self.kernel):
            cols[:, :, j, :] = self._tap(x, j, l_out)
        cols = cols.reshape(x.shape[0], -1, l_out)
        w = self.params["w"].reshape(self.out_channels, -1)
        self._cache = (cols, x.shape)
        out = w @ cols
        out += self.params["b"][:, None]
        return out

    def backward(self, dout, input_grad=True):
        # input_grad=False (the network's first layer) skips dx, returning None
        cols, in_shape = self._cache
        w = self.params["w"]
        self.grads = {
            "w": np.tensordot(dout, cols, axes=([0, 2], [0, 2])).reshape(w.shape),
            "b": dout.sum(axis=(0, 2)),
        }
        if not input_grad:
            return None
        l_out = dout.shape[2]
        dcols = (w.reshape(self.out_channels, -1).T @ dout).reshape(
            in_shape[0], self.in_channels, self.kernel, l_out
        )
        dx = np.zeros(in_shape)
        for j in range(self.kernel):
            self._tap(dx, j, l_out)[...] += dcols[:, :, j, :]
        return dx

    def spec(self):
        return {
            "kind": "conv1d",
            "in_channels": self.in_channels,
            "out_channels": self.out_channels,
            "kernel": self.kernel,
            "stride": self.stride,
        }


class ReLU(Layer):
    def __repr__(self):
        return "ReLU()"

    def forward(self, x, train=False, rng=None):
        self._cache = x > 0
        return np.maximum(x, 0.0)

    def backward(self, dout):
        self.grads = {}
        return dout * self._cache

    def spec(self):
        return {"kind": "relu"}


class MaxPool1D(_Window):
    """Max pooling over the length axis; ties go to the earliest index."""

    def __repr__(self):
        return f"MaxPool1D(k={self.kernel}, s={self.stride})"

    def out_shape(self, shape):
        if len(shape) != 2:
            self._refuse(shape, "(C, L)")
        return (shape[0], self._length(shape[1]))

    def forward(self, x, train=False, rng=None):
        l_out = self.out_shape(x.shape[1:])[1]
        out = self._tap(x, 0, l_out)
        for j in range(1, self.kernel):
            out = np.maximum(out, self._tap(x, j, l_out))
        self._cache = (x, out)
        return out

    def backward(self, dout):
        x, out = self._cache
        self.grads = {}
        dx = np.zeros(x.shape)
        l_out = out.shape[2]
        unrouted = np.ones(out.shape, dtype=bool)
        for j in range(self.kernel):
            # the earliest position holding the max takes the gradient
            hit = (self._tap(x, j, l_out) == out) & unrouted
            unrouted &= ~hit
            self._tap(dx, j, l_out)[...] += dout * hit
        return dx

    def spec(self):
        return {"kind": "maxpool1d", "kernel": self.kernel, "stride": self.stride}


class Dropout(Layer):
    """Inverted dropout: scales by 1/(1-p) in train mode, identity in eval.

    One mask is drawn per call, covering the whole batch.
    """

    def __init__(self, p):
        super().__init__()
        if not (0.0 <= p < 1.0):
            raise ContractError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p

    def __repr__(self):
        return f"Dropout(p={self.p})"

    def forward(self, x, train=False, rng=None):
        if not train or self.p == 0.0:
            self._cache = None
            return x
        if rng is None:
            raise ContractError("train-mode dropout needs a random generator")
        mask = (rng.random(x.shape) >= self.p) / (1.0 - self.p)
        self._cache = mask
        return x * mask

    def backward(self, dout):
        self.grads = {}
        return dout if self._cache is None else dout * self._cache

    def spec(self):
        return {"kind": "dropout", "p": self.p}


class LSTM(Layer):
    """Unidirectional LSTM over a (B, features, timesteps) activation map.

    Processes timesteps left to right from zero initial state and
    returns the final hidden state (B, hidden); gate pre-activations
    are packed [input, forget, candidate, output].  ``forward`` is the
    input projection (:meth:`project`) of every timestep as one matrix
    product, followed by :meth:`recurrence`, where only the recurrent
    (B, 4H) product runs per step.  The projection of a timestep reads
    that timestep only, so a caller holding the projections of a
    feature sequence can run :meth:`recurrence` on gathered rows of
    them directly (``classifier.predict_windows`` does).  Initial
    weights are uniform +-1/sqrt(fan_in) and the forget-gate bias
    starts at 1.
    """

    def __init__(self, input_size, hidden_size, rng=None):
        super().__init__()
        if input_size < 1 or hidden_size < 1:
            raise ContractError("LSTM sizes must be >= 1")
        self.input_size = input_size
        self.hidden_size = hidden_size
        rng = rng or np.random.default_rng(0)
        h = hidden_size
        bound_x = 1.0 / np.sqrt(input_size)
        bound_h = 1.0 / np.sqrt(h)
        bias = np.zeros(4 * h)
        bias[h : 2 * h] = 1.0
        self.params = {
            "wx": rng.uniform(-bound_x, bound_x, size=(input_size, 4 * h)),
            "wh": rng.uniform(-bound_h, bound_h, size=(h, 4 * h)),
            "b": bias,
        }

    def __repr__(self):
        return f"LSTM({self.input_size}->{self.hidden_size})"

    def out_shape(self, shape):
        if len(shape) != 2 or shape[0] != self.input_size or shape[1] < 1:
            self._refuse(shape, f"({self.input_size}, T >= 1)")
        return (self.hidden_size,)

    def forward(self, x, train=False, rng=None):
        self.out_shape(x.shape[1:])
        batch, _, n_steps = x.shape
        # time-major inputs: xs[t] is the (B, in) slice of timestep t
        xs = np.ascontiguousarray(x.transpose(2, 0, 1)).reshape(n_steps * batch, -1)
        h = self.recurrence(self.project(xs).reshape(n_steps, batch, -1), train=train)
        if train:
            self._cache = (xs, *self._cache)
        return h

    def project(self, rows):
        """Input projections ``x_t @ wx + b`` (n, 4H) of the (n, in) inputs ``rows``."""
        return rows @ self.params["wx"] + self.params["b"]

    def recurrence(self, xw, train=False):
        """Final hidden state (B, H) from projected inputs xw (T, B, 4H).

        ``xw[t]`` is ``x_t @ wx + b`` for timestep t.  A train-mode call
        keeps the per-step activations and states that ``backward``
        needs; an eval-mode call keeps none.
        """
        n_steps, batch, _ = xw.shape
        hs = self.hidden_size
        wh = self.params["wh"]
        h = np.zeros((batch, hs))
        c = np.zeros((batch, hs))
        if train:  # per step: the state entering it, and what it computed
            h_prev, c_prev, tanh_cs = np.empty((3, n_steps, batch, hs))
            acts = np.empty((n_steps, batch, 4 * hs))
        for t in range(n_steps):
            gates = xw[t] + h @ wh
            # i, f, g, o after nonlinearity: sigmoid(z) = (tanh(z / 2) + 1) / 2
            # over all four in place, then tanh over g
            act = np.multiply(gates, 0.5)
            np.tanh(act, out=act)
            act += 1.0
            act *= 0.5
            np.tanh(gates[:, 2 * hs : 3 * hs], out=act[:, 2 * hs : 3 * hs])
            i, f, g, o = (act[:, k * hs : (k + 1) * hs] for k in range(4))
            c_next = f * c + i * g
            tanh_c = np.tanh(c_next)
            if train:
                acts[t], h_prev[t], c_prev[t], tanh_cs[t] = act, h, c, tanh_c
            h, c = o * tanh_c, c_next
        self._cache = (acts, h_prev, c_prev, tanh_cs) if train else None
        return h

    def backward(self, dout):
        xs, acts, h_prev, c_prev, tanh_c = self._cache
        n_steps, batch, _ = acts.shape
        hs = self.hidden_size
        wx, wh = self.params["wx"], self.params["wh"]
        dgates = np.empty_like(acts)
        dh = dout
        dc = np.zeros((batch, hs))
        for t in range(n_steps - 1, -1, -1):
            i, f, g, o = (acts[t, :, k * hs : (k + 1) * hs] for k in range(4))
            dc = dc + dh * o * (1.0 - tanh_c[t] ** 2)
            d = dgates[t]
            d[:, :hs] = dc * g * i * (1.0 - i)
            d[:, hs : 2 * hs] = dc * c_prev[t] * f * (1.0 - f)
            d[:, 2 * hs : 3 * hs] = dc * i * (1.0 - g**2)
            d[:, 3 * hs :] = dh * tanh_c[t] * o * (1.0 - o)
            dh = d @ wh.T
            dc = dc * f
        flat = dgates.reshape(n_steps * batch, 4 * hs)
        self.grads = {
            "wx": xs.T @ flat,
            "wh": h_prev.reshape(n_steps * batch, hs).T @ flat,
            "b": flat.sum(axis=0),
        }
        dxs = (flat @ wx.T).reshape(n_steps, batch, self.input_size)
        return dxs.transpose(1, 2, 0)

    def spec(self):
        return {
            "kind": "lstm",
            "input_size": self.input_size,
            "hidden_size": self.hidden_size,
        }


class Dense(Layer):
    """Fully connected layer; each example's trailing axes are flattened."""

    def __init__(self, in_features, out_features, rng=None):
        super().__init__()
        if in_features < 1 or out_features < 1:
            raise ContractError("dense sizes must be >= 1")
        self.in_features = in_features
        self.out_features = out_features
        rng = rng or np.random.default_rng(0)
        self.params = {
            "w": _he_uniform(rng, (in_features, out_features), in_features),
            "b": np.zeros(out_features),
        }

    def __repr__(self):
        return f"Dense({self.in_features}->{self.out_features})"

    def out_shape(self, shape):
        if not shape or np.prod(shape) != self.in_features:
            self._refuse(shape, f"({self.in_features},)")
        return (self.out_features,)

    def forward(self, x, train=False, rng=None):
        self.out_shape(x.shape[1:])
        flat = x.reshape(x.shape[0], self.in_features)
        self._cache = (flat, x.shape)
        return flat @ self.params["w"] + self.params["b"]

    def backward(self, dout):
        flat, in_shape = self._cache
        self.grads = {
            "w": flat.T @ dout,
            "b": dout.sum(axis=0),
        }
        return (dout @ self.params["w"].T).reshape(in_shape)

    def spec(self):
        return {"kind": "dense", "in": self.in_features, "out": self.out_features}


class _Unset:
    """Generator stand-in for layers whose weights are loaded next: it
    allocates each parameter as zeros and draws nothing."""

    @staticmethod
    def uniform(low, high, size):
        return np.zeros(size)


_LAYER_KINDS = {
    "conv1d": lambda s, rng: Conv1D(
        s["in_channels"], s["out_channels"], s["kernel"], s["stride"], rng=rng
    ),
    "relu": lambda s, rng: ReLU(),
    "maxpool1d": lambda s, rng: MaxPool1D(s["kernel"], s["stride"]),
    "dropout": lambda s, rng: Dropout(s["p"]),
    "lstm": lambda s, rng: LSTM(s["input_size"], s["hidden_size"], rng=rng),
    "dense": lambda s, rng: Dense(s["in"], s["out"], rng=rng),
}


def layer_from_spec(spec: dict) -> Layer:
    """Rebuild a layer from its ``spec()`` dict (checkpoint loading).

    Parameters are allocated at their shapes as zeros, not initialised:
    the caller sets every one of them.
    """
    try:
        factory = _LAYER_KINDS[spec["kind"]]
    except KeyError:
        raise ContractError(f"unknown layer kind {spec.get('kind')!r}") from None
    return factory(spec, _Unset)


class Network:
    """An ordered layer stack with batched forward/backward.

    ``input_len`` optionally declares the window length the stack was
    built for; layers themselves accept any length their kernels allow,
    so consumers that require a fixed window check this attribute.
    """

    def __init__(self, layers, input_len=None):
        self.layers = list(layers)
        self.input_len = input_len

    def __repr__(self):
        return "Network[" + ", ".join(repr(l) for l in self.layers) + "]"

    def forward(self, x, train=False, rng=None):
        """(B, classes) scores for a (B, C, L) batch.

        An eval-mode pass drops each layer's cache as soon as the layer
        has run, so activations are freed as the pass goes; ``backward``
        needs a train-mode pass.
        """
        out = np.asarray(x, dtype=np.float64)
        for layer in self.layers:
            out = layer.forward(out, train=train, rng=rng)
            if not train:
                layer._cache = None
        return out

    def backward(self, dout):
        """Backpropagate from the output gradient; returns the grad bundle.

        Must follow a forward pass on this instance; every gradient is
        checked shape-congruent with its parameter.
        """
        grad = dout
        for i, layer in reversed(list(enumerate(self.layers))):
            if i == 0 and isinstance(layer, Conv1D):  # no one reads d(loss)/d(input)
                layer.backward(grad, input_grad=False)
            else:
                grad = layer.backward(grad)
        bundle = self.gradients()
        params = self.parameters()
        for key, g in bundle.items():
            if g.shape != params[key].shape:
                raise ContractError(f"gradient/parameter shape mismatch at {key}")
        return bundle

    def parameters(self) -> dict[str, np.ndarray]:
        """All trainable tensors keyed ``<layer index>.<name>``."""
        return {
            f"{i}.{name}": arr
            for i, layer in enumerate(self.layers)
            for name, arr in layer.params.items()
        }

    def gradients(self) -> dict[str, np.ndarray]:
        """Gradients from the latest backward, keyed like parameters()."""
        return {
            f"{i}.{name}": arr
            for i, layer in enumerate(self.layers)
            for name, arr in layer.grads.items()
        }

    def set_parameters(self, bundle: dict):
        for key, value in bundle.items():
            idx, _, name = key.partition(".")
            layer = self.layers[int(idx)]
            if name not in layer.params:
                raise ContractError(f"no parameter {key!r} in this network")
            if layer.params[name].shape != value.shape:
                raise ContractError(f"shape mismatch loading {key!r}")
            layer.params[name] = np.array(value, dtype=np.float64)

    def specs(self) -> list[dict]:
        return [layer.spec() for layer in self.layers]

    def shapes(self, input_shape) -> list[tuple]:
        """Each layer's per-example output shape, by the layers' ``out_shape``."""
        shapes = [tuple(input_shape)]
        for layer in self.layers:
            shapes.append(layer.out_shape(shapes[-1]))
        return shapes[1:]
