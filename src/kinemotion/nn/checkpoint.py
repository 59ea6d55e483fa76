"""Single-file model checkpoints.

Layout: the magic string ``KNM1``, a little-endian uint32 header
length, a JSON header (creation seed, input window ``input_len``, layer
specs, parameter manifest of names and shapes), then the raw
little-endian float64 payloads in manifest order.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import ContractError, InvalidDataError
from .layers import Network, layer_from_spec

MAGIC = b"KNM1"


@dataclass
class Checkpoint:
    net: Network
    seed: int


def _is_window(value) -> bool:
    return type(value) is int and value >= 1


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
        "layers": net.specs(),
        "params": [{"key": k, "shape": list(v.shape)} for k, v in params.items()],
    }
    blob = json.dumps(header).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for key in params:
            fh.write(np.ascontiguousarray(params[key], dtype="<f8").tobytes())


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint; any malformed file raises InvalidDataError."""
    path = Path(path)
    raw = path.read_bytes()
    if raw[:4] != MAGIC:
        raise InvalidDataError(f"{path}: not a {MAGIC.decode()} checkpoint")
    if len(raw) < 8:
        raise InvalidDataError(f"{path}: truncated checkpoint header")
    (header_len,) = struct.unpack("<I", raw[4:8])
    if 8 + header_len > len(raw):
        raise InvalidDataError(f"{path}: header length {header_len} runs past the end")
    try:
        header = json.loads(raw[8 : 8 + header_len].decode("utf-8"))
    except ValueError as exc:  # covers UnicodeDecodeError and JSONDecodeError
        raise InvalidDataError(f"{path}: corrupt checkpoint header: {exc}") from None

    try:
        seed = header["seed"]
        net = Network([layer_from_spec(spec) for spec in header["layers"]])
        manifest = [
            (str(entry["key"]), tuple(int(d) for d in entry["shape"]))
            for entry in header["params"]
        ]
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
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
    if any(d < 0 for _, shape in manifest for d in shape):
        raise InvalidDataError(f"{path}: negative dimension in the parameter manifest")
    expected, seen = net.parameters(), set()
    for key, _ in manifest:
        if key not in expected:
            raise InvalidDataError(f"{path}: manifest names no parameter {key!r}")
        if key in seen:
            raise InvalidDataError(f"{path}: manifest names {key!r} twice")
        seen.add(key)
    missing = [key for key in expected if key not in seen]
    if missing:
        raise InvalidDataError(f"{path}: manifest omits {', '.join(missing)}")
    offset = 8 + header_len
    bundle = {}
    for key, shape in manifest:
        count = int(np.prod(shape)) if shape else 1
        end = offset + 8 * count
        if end > len(raw):
            raise InvalidDataError(f"{path}: truncated parameter payload")
        bundle[key] = np.frombuffer(raw[offset:end], dtype="<f8").reshape(shape)
        if not np.isfinite(bundle[key]).all():
            raise InvalidDataError(f"{path}: non-finite weight in {key!r}")
        offset = end
    if offset != len(raw):
        raise InvalidDataError(
            f"{path}: {len(raw) - offset} trailing bytes after the last payload"
        )
    try:
        net.set_parameters(bundle)
    except ValueError as exc:
        raise InvalidDataError(
            f"{path}: manifest does not fit the layers: {exc}"
        ) from None
    return Checkpoint(net=net, seed=seed)
