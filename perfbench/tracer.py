"""Span tracer that instruments kinemotion from the outside.

While installed, the tracer replaces every public function and every
public method of a public class defined in one of the package's layer
modules with a timing wrapper.  A function is replaced under every name
that binds it in any ``kinemotion.*`` module, because ``from .x import y``
copies the binding and the caller looks the name up in its own module
(``cli.train`` and ``classifier.train`` are the same object).

``forward`` and ``backward`` of the network are the exception: they are
wrapped per instance on the ``Network`` returned by ``build_model`` or
``load_checkpoint``, so that each layer index gets its own span
(``nn.12_lstm.fwd``) and the network itself gets ``nn.forward`` and
``nn.backward``.

Spans are kept in memory in flat integer arrays (name, parent, command,
start, end, count) and written once, when the benchmark ends.  A name the
package no longer has, or that is never called, simply has no spans: every
metric built on it reads 0 calls.  Nothing under ``src/`` is modified on
disk; :meth:`Tracer.uninstall` restores every binding.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from time import perf_counter_ns

import numpy as np

PACKAGE = "kinemotion"
LAYERS = ("synth", "dataset", "kinematics", "nn", "classifier", "smoothness", "cli")

# functions whose result carries a count the metrics need
_COUNTERS = {
    "dataset.parse_recording": lambda rec: len(rec.series),
    "synth.gen_dataset": lambda recs: sum(len(r.annotations) for r in recs),
}
# functions that return a network (or a checkpoint holding one) to instrument
_NETWORK_FACTORIES = ("classifier.build_model", "nn.load_checkpoint")


def layer_of(module_name: str):
    """``kinemotion.nn.layers`` -> ``nn``; None outside the layer modules."""
    parts = module_name.split(".")
    if parts[0] != PACKAGE or len(parts) < 2 or parts[1] not in LAYERS:
        return None
    return parts[1]


def _public(name: str) -> bool:
    return name.isidentifier() and not name.startswith("_")  # "<lambda>" is not


class Tracer:
    """Records one span per call of every wrapped name while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.command = array("i")
        self.start = array("q")
        self.end = array("q")
        self.count = array("q")
        self.current_command = -1  # -1 marks spans recorded during set-up
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}

    # -- recording ----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, name: str):
        nid = self._name_id(name)
        counter = _COUNTERS.get(name)
        factory = name in _NETWORK_FACTORIES
        start, end, stack = self.start, self.end, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.command.append(self.current_command)
            self.end.append(0)
            self.count.append(0)
            stack.append(sid)
            start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = perf_counter_ns()
                stack.pop()
            if counter is not None:
                self.count[sid] = _safe_count(counter, result)
            if factory:
                self._instrument_network(getattr(result, "net", result))
            return result

        return traced

    def _instrument_network(self, net):
        layers = getattr(net, "layers", None)
        if layers is None:
            return
        targets = [(net, "forward", "nn.forward"), (net, "backward", "nn.backward")]
        for i, layer in enumerate(layers):
            kind = type(layer).__name__.lower()  # Conv1D -> conv1d, LSTM -> lstm
            targets.append((layer, "forward", f"nn.{i}_{kind}.fwd"))
            targets.append((layer, "backward", f"nn.{i}_{kind}.bwd"))
        for obj, attr, span in targets:
            bound = getattr(obj, attr, None)
            if callable(bound):
                try:
                    setattr(obj, attr, self._wrap(bound, span))
                except AttributeError:  # e.g. __slots__: the span reads 0 calls
                    pass

    # -- patching -----------------------------------------------------------

    def _wrapper_for(self, fn, name):
        key = id(fn)
        if key not in self._wrappers:
            self._wrappers[key] = self._wrap(fn, name)
        return self._wrappers[key]

    def _patch(self, owner, attr, original, replacement):
        setattr(owner, attr, replacement)
        self._restore.append((owner, attr, original))

    def install(self):
        """Wrap every public function and method of the layer modules."""
        modules = [
            (name, mod)
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        classes_done = set()
        for _, mod in modules:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value):
                    layer = layer_of(getattr(value, "__module__", "") or "")
                    if layer and _public(value.__name__) and _public(attr):
                        span = f"{layer}.{value.__qualname__}"
                        self._patch(mod, attr, value, self._wrapper_for(value, span))
                elif inspect.isclass(value) and id(value) not in classes_done:
                    classes_done.add(id(value))
                    self._patch_class(value)

    def _patch_class(self, cls):
        layer = layer_of(cls.__module__)
        if layer is None or not _public(cls.__name__):
            return
        for attr, value in list(vars(cls).items()):
            if not (inspect.isfunction(value) and _public(attr)):
                continue
            if layer == "nn" and attr in ("forward", "backward"):
                continue  # wrapped per instance, see _instrument_network
            span = f"{layer}.{value.__qualname__}"
            self._patch(cls, attr, value, self._wrapper_for(value, span))

    def uninstall(self):
        """Restore every binding :meth:`install` replaced."""
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        self._wrappers.clear()

    # -- results ------------------------------------------------------------

    def spans(self) -> "Spans":
        return Spans(
            names=list(self.names),
            name=np.frombuffer(self.name, dtype=np.int32).copy(),
            parent=np.frombuffer(self.parent, dtype=np.int32).copy(),
            command=np.frombuffer(self.command, dtype=np.int32).copy(),
            start=np.frombuffer(self.start, dtype=np.int64).copy(),
            end=np.frombuffer(self.end, dtype=np.int64).copy(),
            count=np.frombuffer(self.count, dtype=np.int64).copy(),
        )


def _safe_count(counter, result) -> int:
    try:
        return int(counter(result))
    except (AttributeError, TypeError, ValueError):
        return 0


class Spans:
    """Recorded spans as arrays, with per-name inclusive and self time."""

    def __init__(self, names, name, parent, command, start, end, count):
        self.names = names
        self.name = name
        self.parent = parent
        self.command = command
        self.start = start
        self.end = end
        self.count = count
        self.duration = end - start
        has_parent = parent >= 0
        children = np.zeros(len(name), dtype=np.int64)
        np.add.at(children, parent[has_parent], self.duration[has_parent])
        self.self_time = self.duration - children
        self.parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)

    def save(self, path):
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name=self.name,
            parent=self.parent,
            command=self.command,
            start=self.start,
            end=self.end,
            count=self.count,
        )

    def select(self, name, in_commands=True, parent=None):
        """Boolean mask of the spans called ``name`` (none if never seen)."""
        if name not in self.names:
            return np.zeros(len(self.name), dtype=bool)
        mask = self.name == self.names.index(name)
        mask &= (self.command >= 0) if in_commands else (self.command < 0)
        if parent is not None:
            pid = self.names.index(parent) if parent in self.names else -2
            mask &= self.parent_name == pid
        return mask

    def layer_mask(self, layer):
        ids = [i for i, n in enumerate(self.names) if n.split(".", 1)[0] == layer]
        return np.isin(self.name, ids) & (self.command >= 0)
