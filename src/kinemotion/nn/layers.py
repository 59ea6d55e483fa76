"""Layer implementations: forward passes, exact backward passes, init.

Conventions
-----------
* Everything is float64 and carries a leading batch axis B: a single
  example is a batch of one.
* Convolutional-front-end activations are shaped (B, channels, length);
  the LSTM consumes that layout directly and emits its final hidden
  state as (B, hidden) for the dense head, which returns (B, out).  In
  train mode, activations and gradients from conv 0 to the LSTM are
  views of time-major (length, B, channels) memory, which ``Conv1D``
  and ``LSTM`` read as (length*B, channels) rows without a copy.
* ``forward(x, train=..., rng=...)`` caches whatever the matching
  ``backward(dout)`` needs; backward must follow a train-mode forward
  on the same instance (a missing cache raises ContractError naming the
  layer) and returns the gradient w.r.t. the layer input while filling
  ``self.grads`` (same keys/shapes as ``self.params``), summed over the
  batch.  The loss divides by B, so the sum is the gradient of the
  batch-mean loss.  A train-mode ``Conv1D`` keeps its time-major input
  columns; an eval-mode forward of any layer keeps nothing.
* ``out_shape(shape)`` maps one example's input shape to its output
  shape (no batch axis) or raises ContractError naming the layer: the
  one shape rule, which ``forward`` enforces and ``Network.shapes`` walks.
* A weighted layer draws each weight from ``rng`` before it allocates a
  bias, and no bias is larger than the weight drawn before it: the
  checkpoint loader's generator stand-in bounds what a header can
  allocate by that order.
"""

from __future__ import annotations

import numpy as np

from ..errors import ContractError


def _he_uniform(rng, shape, fan_in):
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape)


class Layer:
    """Common surface: params/grads dicts, forward/backward, spec dict.

    ``FIELDS`` names the constructor arguments in order, each kept as
    the attribute of that name; ``spec()``, ``repr`` and
    :func:`layer_from_spec` are all read from it.
    """

    FIELDS: tuple[str, ...] = ()

    def __init__(self):
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self._cache = None

    def forward(self, x, train=False, rng=None):
        raise NotImplementedError

    def backward(self, dout):
        raise NotImplementedError

    def spec(self) -> dict:
        """The layer's kind and constructor arguments, as a checkpoint holds them."""
        fields = {field: getattr(self, field) for field in self.FIELDS}
        return {"kind": type(self).__name__.lower(), **fields}

    def __repr__(self):
        args = ", ".join(f"{field}={getattr(self, field)!r}" for field in self.FIELDS)
        return f"{type(self).__name__}({args})"

    def out_shape(self, shape: tuple) -> tuple:
        """Output shape of one example of input ``shape``; kept by default."""
        return shape

    def _cached(self):  # what the latest train-mode forward kept for backward
        if self._cache is None:
            raise ContractError(f"{self!r}: backward needs a train-mode forward")
        return self._cache

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

    FIELDS = ("in_channels", "out_channels", "kernel", "stride")

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

    def out_shape(self, shape):
        if len(shape) != 2 or shape[0] != self.in_channels:
            self._refuse(shape, f"({self.in_channels}, L)")
        return (self.out_channels, self._length(shape[1]))

    def forward(self, x, train=False, rng=None):
        l_out = self.out_shape(x.shape[1:])[1]
        batch = x.shape[0]
        w = self.params["w"].reshape(self.out_channels, -1)
        if train:
            # time-major columns: cols[t*B + b, c*K + j] = x[b, c, t*stride + j]
            xt = np.ascontiguousarray(x.transpose(2, 0, 1))
            cols = np.empty((l_out, batch, self.in_channels, self.kernel))
            for j in range(self.kernel):
                cols[..., j] = xt[j : j + l_out * self.stride : self.stride]
            cols = cols.reshape(l_out * batch, -1)
            self._cache = (cols, x.shape)
            out = cols @ w.T
            out += self.params["b"]
            return out.reshape(l_out, batch, -1).transpose(1, 2, 0)
        self._cache = None
        # cols[b, c*K + j, t] = x[b, c, t*stride + j], one strided copy per tap
        cols = np.empty((batch, self.in_channels, self.kernel, l_out))
        for j in range(self.kernel):
            cols[:, :, j, :] = self._tap(x, j, l_out)
        out = w @ cols.reshape(batch, -1, l_out)
        out += self.params["b"][:, None]
        return out

    def backward(self, dout, input_grad=True):
        # input_grad=False (the network's first layer) skips dx, returning None
        cols, (batch, _, length) = self._cached()
        l_out = dout.shape[2]
        # rows like cols; a copy only if dout is not a time-major view
        d2 = np.ascontiguousarray(dout.transpose(2, 0, 1)).reshape(l_out * batch, -1)
        self.grads = {"w": (d2.T @ cols).reshape(self.params["w"].shape),
                      "b": d2.sum(axis=0)}
        if not input_grad:
            return None
        w = self.params["w"].reshape(self.out_channels, -1)
        dcols = (d2 @ w).reshape(l_out, batch, self.in_channels, self.kernel)
        dx = np.zeros((length, batch, self.in_channels))
        for j in range(self.kernel):
            dx[j : j + l_out * self.stride : self.stride] += dcols[..., j]
        return dx.transpose(1, 2, 0)


class ReLU(Layer):
    def forward(self, x, train=False, rng=None):
        self._cache = x > 0 if train else None
        return np.maximum(x, 0.0)

    def backward(self, dout):
        return dout * self._cached()


class MaxPool1D(_Window):
    """Max pooling over the length axis; ties go to the earliest index."""

    FIELDS = ("kernel", "stride")

    def out_shape(self, shape):
        if len(shape) != 2:
            self._refuse(shape, "(C, L)")
        return (shape[0], self._length(shape[1]))

    def forward(self, x, train=False, rng=None):
        l_out = self.out_shape(x.shape[1:])[1]
        out = self._tap(x, 0, l_out)
        for j in range(1, self.kernel):
            out = np.maximum(out, self._tap(x, j, l_out))
        self._cache = (x, out) if train else None
        return out

    def backward(self, dout):
        x, out = self._cached()
        dx, unrouted = np.zeros_like(x), np.ones_like(out, dtype=bool)  # in x's layout
        l_out = out.shape[2]
        for j in range(self.kernel):
            # the earliest position holding the max takes the gradient
            hit = (self._tap(x, j, l_out) == out) & unrouted
            unrouted &= ~hit
            self._tap(dx, j, l_out)[...] += dout * hit
        return dx


class Dropout(Layer):
    """Inverted dropout: scales by 1/(1-p) in train mode, identity in eval.

    One mask is drawn per call, covering the whole batch.
    """

    FIELDS = ("p",)

    def __init__(self, p):
        super().__init__()
        if not (0.0 <= p < 1.0):
            raise ContractError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p

    def forward(self, x, train=False, rng=None):
        if not train or self.p == 0.0:
            self._cache = None
            return x
        if rng is None:
            raise ContractError("train-mode dropout needs a random generator")
        keep = np.greater_equal(rng.random(x.shape), self.p, out=np.empty_like(x, bool))
        self._cache = keep / (1.0 - self.p)  # the (B, C, L) draw, in x's layout
        return x * self._cache

    def backward(self, dout):
        return dout if self._cache is None else dout * self._cache


class LSTM(Layer):
    """Unidirectional LSTM over a (B, features, timesteps) activation map.

    Processes timesteps left to right from zero initial state and
    returns the final hidden state (B, hidden); gate pre-activations
    are packed [input, forget, candidate, output].  ``forward`` is the
    input projection (:meth:`project`) of every timestep as one matrix
    product, followed by :meth:`recurrence`, where only the recurrent
    (B, 4H) product runs per step, in buffers allocated once per call.
    The projection of a timestep reads that timestep only, so a caller
    holding the projections of a feature sequence can have
    :meth:`recurrence` gather each step's rows of them directly
    (``classifier.predict_windows`` does).  Initial weights are uniform
    +-1/sqrt(fan_in) and the forget-gate bias starts at 1.
    """

    FIELDS = ("input_size", "hidden_size")

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
        self.params = {
            "wx": rng.uniform(-bound_x, bound_x, size=(input_size, 4 * h)),
            "wh": rng.uniform(-bound_h, bound_h, size=(h, 4 * h)),
            "b": np.zeros(4 * h),
        }
        self.params["b"][h : 2 * h] = 1.0

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

    def recurrence(self, xw, train=False, rows=None):
        """Final hidden state (B, H) from projected inputs xw (T, B, 4H).

        ``xw[t]`` is ``x_t @ wx + b`` for timestep t.  With ``rows``, a
        (T, B) index array, ``xw`` is instead a table of projections
        (n, 4H) and step t reads its rows ``rows[t]``, gathered into a
        buffer, so no (T, B, 4H) copy of the table is made.  A
        train-mode call keeps the per-step activations and states that
        ``backward`` needs; an eval-mode call keeps none.  Every step
        works in (B, 4H) and (B, H) buffers allocated once per call.
        """
        n_steps, batch = (xw if rows is None else rows).shape[:2]
        hs = self.hidden_size
        wh = self.params["wh"]
        h, c, ig = np.zeros((3, batch, hs))
        gates = np.empty((batch, 4 * hs))
        gates_g = gates[:, 2 * hs : 3 * hs]
        gathered = None if rows is None else np.empty_like(gates)
        # per kept step: the activations i, f, g, o and tanh(c); a train-mode
        # call keeps every step's, an eval-mode one reuses one step's buffers
        kept = n_steps if train else 1
        acts = np.empty((kept, batch, 4 * hs))
        tanh_cs = np.empty((kept, batch, hs))
        views = [(act, tanh_c, *(act[:, k * hs : (k + 1) * hs] for k in range(4)))
                 for act, tanh_c in zip(acts, tanh_cs)]
        if train:  # per step: the state entering it
            h_prev, c_prev = np.empty((2, n_steps, batch, hs))
        for t in range(n_steps):
            act, tanh_c, i, f, g, o = views[t if train else 0]
            if rows is None:
                x_t = xw[t]
            else:  # rows are in range: "clip" skips the copy "raise" makes with out=
                x_t = np.take(xw, rows[t], axis=0, out=gathered, mode="clip")
            np.matmul(h, wh, out=gates)
            gates += x_t
            # i, f, g, o after nonlinearity: sigmoid(z) = (tanh(z / 2) + 1) / 2
            # over all four in place, then tanh over g
            np.multiply(gates, 0.5, out=act)
            np.tanh(act, out=act)
            act += 1.0
            act *= 0.5
            np.tanh(gates_g, out=g)
            if train:
                h_prev[t], c_prev[t] = h, c
            # c = f * c + i * g; h = o * tanh(c)
            np.multiply(f, c, out=c)
            np.multiply(i, g, out=ig)
            c += ig
            np.tanh(c, out=tanh_c)
            np.multiply(o, tanh_c, out=h)
        self._cache = (acts, h_prev, c_prev, tanh_cs) if train else None
        return h

    def backward(self, dout):
        xs, acts, h_prev, c_prev, tanh_c = self._cached()
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


class Dense(Layer):
    """Fully connected layer; each example's trailing axes are flattened."""

    FIELDS = ("in_features", "out_features")

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

    def out_shape(self, shape):
        if not shape or np.prod(shape) != self.in_features:
            self._refuse(shape, f"({self.in_features},)")
        return (self.out_features,)

    def forward(self, x, train=False, rng=None):
        self.out_shape(x.shape[1:])
        flat = x.reshape(x.shape[0], self.in_features)
        self._cache = (flat, x.shape) if train else None
        return flat @ self.params["w"] + self.params["b"]

    def backward(self, dout):
        flat, in_shape = self._cached()
        self.grads = {"w": flat.T @ dout, "b": dout.sum(axis=0)}
        return (dout @ self.params["w"].T).reshape(in_shape)


_KINDS = {
    cls.__name__.lower(): cls for cls in (Conv1D, ReLU, MaxPool1D, Dropout, LSTM, Dense)
}
_WEIGHTED = (Conv1D, LSTM, Dense)


def layer_from_spec(spec: dict, rng=None) -> Layer:
    """Rebuild a layer from its ``spec()`` dict (checkpoint loading).

    Every field is an int, except ``Dropout.p``, which may also be a
    float.  A spec that is not a dict, names no known kind or has a
    mistyped field raises ContractError; a missing field raises
    KeyError, and an unhashable kind TypeError.  Weighted layers draw
    their weights from ``rng``.
    """
    if not isinstance(spec, dict) or spec.get("kind") not in _KINDS:
        raise ContractError(f"not a layer spec: {spec!r}")
    cls = _KINDS[spec["kind"]]
    args = [spec[field] for field in cls.FIELDS]
    for field, arg in zip(cls.FIELDS, args):
        if type(arg) not in ((int, float) if field == "p" else (int,)):
            raise ContractError(f"{cls.__name__} {field} has the wrong type: {arg!r}")
    return cls(*args, rng=rng) if cls in _WEIGHTED else cls(*args)


class Network:
    """An ordered layer stack with batched forward/backward.

    ``input_len`` optionally declares the window length the stack was
    built for; layers themselves accept any length their kernels allow,
    so consumers that require a fixed window check this attribute.
    """

    def __init__(self, layers, input_len=None):
        self.layers = list(layers)
        self.input_len = input_len
        self._train_pass = False  # the latest forward kept what backward reads

    def __repr__(self):
        return "Network[" + ", ".join(repr(l) for l in self.layers) + "]"

    def forward(self, x, train=False, rng=None):
        """(B, classes) scores for a (B, C, L) batch.

        An eval-mode pass keeps no layer state: every layer sets its
        cache to None, so activations are freed as the pass goes, and
        concurrent eval passes over one network write nothing but those
        Nones; ``backward`` needs a train-mode pass.
        """
        self._train_pass = False
        out = np.asarray(x, dtype=np.float64)
        for layer in self.layers:
            out = layer.forward(out, train=train, rng=rng)
        self._train_pass = bool(train)
        return out

    def backward(self, dout):
        """Backpropagate from the output gradient; returns the grad bundle.

        Must follow a train-mode forward pass on this instance, or raises
        ContractError before any layer runs.  The bundle is keyed like
        ``parameters()``; ``Adam.step`` checks each gradient's shape
        against its parameter.
        """
        if not self._train_pass:
            raise ContractError("backward needs a train-mode forward")
        grad = dout
        for i, layer in reversed(list(enumerate(self.layers))):
            if i == 0 and isinstance(layer, Conv1D):  # no one reads d(loss)/d(input)
                layer.backward(grad, input_grad=False)
            else:
                grad = layer.backward(grad)
        return self.gradients()

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

    def shapes(self, input_shape) -> list[tuple]:
        """Each layer's per-example output shape, by the layers' ``out_shape``."""
        shapes = [tuple(input_shape)]
        for layer in self.layers:
            shapes.append(layer.out_shape(shapes[-1]))
        return shapes[1:]
