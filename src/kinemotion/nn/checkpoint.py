"""Single-file model checkpoints.

Layout: the magic string ``KNM2``, a little-endian uint32 header
length, a JSON header (creation ``seed``, input window ``input_len``
and the ``layers``' specs), then every parameter as raw little-endian
float64 in ``Network.parameters()`` order.  The layer specs fix every
parameter's shape, so the payload is exactly 8 bytes per parameter
value of the layers the header names.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import ContractError, InvalidDataError
from .layers import Network, layer_from_spec

MAGIC = b"KNM2"


@dataclass
class Checkpoint:
    net: Network
    seed: int


def _is_window(value) -> bool:
    return type(value) is int and value >= 1


class _Zeros:
    """Generator stand-in for layers whose weights are loaded next.

    It allocates each weight as zeros and draws nothing.  A weight that
    would take the values allocated through it past ``limit`` raises
    ContractError before it is allocated, leaving ``left`` negative.
    Every layer draws its weights before it allocates a bias no larger
    than one of them, so layers built through one stand-in allocate at
    most ``2 * limit`` values.
    """

    def __init__(self, limit):
        self.left = limit

    def uniform(self, low, high, size):
        self.left -= math.prod(size)
        if self.left < 0:
            raise ContractError(f"layer weights of shape {size} exceed the payload")
        return np.zeros(size)


def save_checkpoint(path, net: Network, seed: int) -> None:
    if not _is_window(net.input_len):
        raise ContractError(f"network declares no input window: {net.input_len!r}")
    params = net.parameters()
    for key, value in params.items():
        if not np.isfinite(value).all():  # load_checkpoint would reject the file
            raise ContractError(f"non-finite weight in {key!r}")
    header = {
        "seed": int(seed),
        "input_len": net.input_len,
        "layers": [layer.spec() for layer in net.layers],
    }
    blob = json.dumps(header).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for value in params.values():
            fh.write(np.ascontiguousarray(value, dtype="<f8").tobytes())


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint; any malformed file raises InvalidDataError."""
    path = Path(path)
    raw = path.read_bytes()
    if raw[:4] != MAGIC:
        raise InvalidDataError(f"{path}: not a {MAGIC.decode()} checkpoint")
    if len(raw) < 8:
        raise InvalidDataError(f"{path}: truncated checkpoint header")
    (header_len,) = struct.unpack("<I", raw[4:8])
    start = 8 + header_len
    if start > len(raw):
        raise InvalidDataError(f"{path}: header length {header_len} runs past the end")
    try:
        header = json.loads(raw[8:start].decode("utf-8"))
    except ValueError as exc:  # covers UnicodeDecodeError and JSONDecodeError
        raise InvalidDataError(f"{path}: corrupt checkpoint header: {exc}") from None

    zeros = _Zeros((len(raw) - start) // 8)
    try:
        seed = header["seed"]
        net = Network([layer_from_spec(spec, zeros) for spec in header["layers"]])
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        if zeros.left < 0:
            raise InvalidDataError(
                f"{path}: truncated parameter payload: {exc}"
            ) from None
        raise InvalidDataError(
            f"{path}: malformed checkpoint header: {exc!r}"
        ) from None
    if type(seed) is not int:
        raise InvalidDataError(
            f"{path}: malformed checkpoint header: seed must be an int, got {seed!r}"
        )
    net.input_len = header.get("input_len")
    if not _is_window(net.input_len):
        raise InvalidDataError(
            f"{path}: input_len must be a positive int, got {net.input_len!r}"
        )
    params = net.parameters()
    extra = len(raw) - start - 8 * sum(value.size for value in params.values())
    if extra < 0:
        raise InvalidDataError(f"{path}: truncated parameter payload")
    if extra > 0:
        raise InvalidDataError(f"{path}: {extra} trailing bytes after the last payload")
    payload = np.frombuffer(memoryview(raw)[start:], dtype="<f8")
    offset = 0
    for key, value in params.items():
        value[...] = payload[offset : offset + value.size].reshape(value.shape)
        offset += value.size
        if not np.isfinite(value).all():
            raise InvalidDataError(f"{path}: non-finite weight in {key!r}")
    return Checkpoint(net=net, seed=seed)
