"""Spans around quadtel's layer boundaries, recorded from outside the program.

``install`` wraps every public function of the layer modules, the engine
methods and ``ProtocolReport.to_dict``, then rebinds every reference to the
original functions in every loaded quadtel module.  The rebinding matters:
``protocol``, ``channel`` and ``corrections`` import statevector functions by
name, so patching ``statevector.<fn>`` alone would miss the engines' calls.

Statevector spans are bucketed by qubit count (``statevector.apply_1q.q6``).
Spans are kept in flat in-memory arrays and written out once, at the end.
"""
from __future__ import annotations

import functools
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

LAYER_MODULES = ("statevector", "channel", "corrections", "protocol", "harness")
ENGINE_METHODS = ("prepare", "copy", "bsm_pair", "measure_controller", "apply_correction", "receiver_dm")


def _qubits(fn_name: str):
    """Qubit count of a statevector call: its first state, or the tensor's result."""
    if fn_name == "tensor":
        return lambda args: sum(s.n_qubits for s in args)
    return lambda args: getattr(args[0], "n_qubits", None) if args else None


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.unit = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.current_unit = -1  # per-run id: the CLI command a span belongs to

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, qubits=None):
        base = self._name_id(name)
        buckets: dict = {}
        stack, names, parents, units, starts, ends = (
            self._stack, self.name, self.parent, self.unit, self.start, self.end)

        def traced(*args, **kwargs):
            nid = base
            if qubits is not None:
                n = qubits(args)
                nid = buckets.get(n)
                if nid is None:
                    nid = buckets[n] = self._name_id(name if n is None else f"{name}.q{n}")
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            units.append(self.current_unit)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = perf_counter()
                starts[sid] = t0
                stack.pop()

        return functools.update_wrapper(traced, fn)

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        own = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        self_s = np.bincount(name, weights=own, minlength=k)
        layers = {
            n: {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(self_s[i])}
            for i, n in enumerate(self.names) if calls[i]
        }
        branch = dur[name == self._ids.get("protocol.run_protocol", -1)] * 1e3
        return {"layers": layers, "spans": int(dur.size), "run_protocol_ms": branch.tolist()}

    def dump(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32), unit=np.frombuffer(self.unit, dtype=np.int32),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end),
        )


def install(tracer: Tracer) -> None:
    """Wrap quadtel's layer functions and engine methods in ``tracer`` spans."""
    import importlib

    replaced = {}
    for short in LAYER_MODULES:
        mod = importlib.import_module(f"quadtel.{short}")
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            replaced[obj] = tracer.wrap(f"{short}.{attr}", obj, _qubits(attr) if short == "statevector" else None)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "quadtel" and not mod_name.startswith("quadtel."):
            continue
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in replaced:
                setattr(mod, attr, replaced[obj])

    protocol = importlib.import_module("quadtel.protocol")
    for cls in (protocol.StructuredState, protocol.DenseState):
        for meth in ENGINE_METHODS:
            raw = cls.__dict__[meth]
            name = f"protocol.{cls.engine}.{meth}"
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(tracer.wrap(name, raw.__func__)))
            else:
                setattr(cls, meth, tracer.wrap(name, raw))
    report = protocol.ProtocolReport
    report.to_dict = tracer.wrap("protocol.ProtocolReport.to_dict", report.to_dict)
