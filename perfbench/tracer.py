"""Span tracer that wraps plbandit's functions from outside the package.

`install()` replaces each traced function where it is defined and wherever a
`plbandit` module bound it by name (module attributes, and module-level lists
such as `verify.ALL_CHECKS`); `uninstall()` puts the originals back. Spans are
recorded only inside `op()`, so work the benchmark does outside a timed
operation (its own output checks) is never traced. Spans are kept in memory
and written out once, when the run ends.
"""

from __future__ import annotations

import contextvars
import gzip
import importlib
import inspect
import itertools
import json
import os
import sys
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from functools import wraps
from time import perf_counter

from . import spec


class TracerError(RuntimeError):
    pass


# (op id, span id) of the innermost open span; span id 0 is the op root.
_frame: contextvars.ContextVar[tuple[int, int] | None] = contextvars.ContextVar("perfbench_frame", default=None)


class _ContextExecutor(ThreadPoolExecutor):
    """Runs each task in a copy of the submitter's context, so worker spans keep their parent."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


def _arg(sig: inspect.Signature, args, kwargs, name: str):
    return sig.bind(*args, **kwargs).arguments[name]


def _file_bytes(param: str):
    def measure(sig, args, kwargs, result):
        return {"bytes": os.path.getsize(_arg(sig, args, kwargs, param))}

    return measure


def _cells(sig, args, kwargs, result):
    return {"cells": result.costs.size}


def _policy_key(policy):
    """A smoothed grid policy's identity: its bandwidth and grid masses."""
    return (policy.bandwidth, policy.base.table.tobytes())


# Work counts recorded at the span boundary, by traced function.
_MEASURES = {
    "model.load_dataset_jsonl": _file_bytes("path"),
    "model.save_dataset_jsonl": _file_bytes("path"),
    "continuous.load_continuous_dataset_jsonl": _file_bytes("path"),
    "continuous.save_continuous_dataset_jsonl": _file_bytes("path"),
    "model.validate_dataset": lambda sig, a, k, r: {"records": _arg(sig, a, k, "dataset").n},
    "simulator.generate_logs": lambda sig, a, k, r: {"records": _arg(sig, a, k, "n")},
    "csc.EnumerationOracle.solve": lambda sig, a, k, r: {"members": _arg(sig, a, k, "policy_class").size},
    "model.deterministic_class": lambda sig, a, k, r: {"members": r.size},
    "csc.build_modified_costs": _cells,
    "continuous.build_modified_costs_continuous": _cells,
}
_KEYED = {"continuous.continuous_pseudo_loss": lambda sig, a, k: _policy_key(_arg(sig, a, k, "policy"))}
_ORACLES = ("csc.EnumerationOracle.solve", "csc.PointwiseArgminOracle.solve")


def _resolve(name: str):
    """(owner, attribute, original) for a dotted name relative to the plbandit package."""
    parts = name.split(".")
    try:
        owner = importlib.import_module(f"plbandit.{parts[0]}")
        for part in parts[1:-1]:
            owner = getattr(owner, part)
        return owner, parts[-1], getattr(owner, parts[-1])
    except (ImportError, AttributeError) as err:
        raise TracerError(f"traced function {name} not found: {err}") from err


def _plbandit_modules():
    return [m for n, m in list(sys.modules.items()) if n == "plbandit" or n.startswith("plbandit.")]


class Tracer:
    def __init__(self, names=None):
        self.names = list(names or spec.traced_functions())
        self.spans: list[tuple] = []  # (span id, parent id, name, start, end, op id)
        self.work: dict[tuple[str, str], float] = defaultdict(float)
        self.keys: dict[tuple[str, int], set] = defaultdict(set)
        self.ops: list[int] = []
        self._ids = itertools.count(1)
        self._patches: list[tuple] = []

    def _wrap(self, name: str, fn):
        sig = inspect.signature(fn)
        measure, keyed = _MEASURES.get(name), _KEYED.get(name)
        spans, work, keys, ids = self.spans, self.work, self.keys, self._ids

        @wraps(fn)
        def traced(*args, **kwargs):
            frame = _frame.get()
            if frame is None:
                return fn(*args, **kwargs)
            op, parent = frame
            sid = next(ids)
            token = _frame.set((op, sid))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                _frame.reset(token)
                spans.append((sid, parent, name, start, end, op))
            if measure is not None:
                for key, value in measure(sig, args, kwargs, result).items():
                    work[name, key] += value
            if keyed is not None:
                keys[name, op].add(keyed(sig, args, kwargs))
            return result

        return traced

    def install(self) -> None:
        """Patch every traced function; raises TracerError if one is missing."""
        if self._patches:
            return
        resolved = [(name, *_resolve(name)) for name in self.names]
        modules = _plbandit_modules()
        for name, owner, attr, original in resolved:
            wrapper = self._wrap(name, original)
            self._set(owner, attr, original, wrapper)
            for module in modules:
                self._rebind(module, original, wrapper)
        for module in modules:
            if getattr(module, "ThreadPoolExecutor", None) is ThreadPoolExecutor:
                self._set(module, "ThreadPoolExecutor", ThreadPoolExecutor, _ContextExecutor)

    def _set(self, owner, attr, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def _rebind(self, module, original, wrapper) -> None:
        for attr, value in list(vars(module).items()):
            if value is original:
                self._set(module, attr, original, wrapper)
            elif isinstance(value, list):
                for i, item in enumerate(value):
                    if item is original:
                        value[i] = wrapper
                        self._patches.append((value, i, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, list):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    @contextmanager
    def op(self, op_id: int):
        """Trace one operation: patches are live and spans are recorded under op_id."""
        self.install()
        token = _frame.set((op_id, 0))
        try:
            yield
        finally:
            _frame.reset(token)
            self.uninstall()
            self.ops.append(op_id)

    def self_times(self) -> dict[str, float]:
        """Total self seconds per traced name: duration minus the union of child intervals."""
        children: dict[tuple[int, int], list[tuple[float, float]]] = defaultdict(list)
        for sid, parent, _, start, end, op in self.spans:
            children[op, parent].append((start, end))
        totals: dict[str, float] = defaultdict(float)
        for sid, _, name, start, end, op in self.spans:
            covered, reach = 0.0, start
            for lo, hi in sorted(children.get((op, sid), ())):
                lo, hi = max(lo, reach), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            totals[name] += (end - start) - covered
        return totals

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics per traced operation (calls, self_ms and work counts), plus ratios."""
        ops = max(1, len(self.ops))
        selfs = self.self_times()
        calls: dict[str, int] = defaultdict(int)
        for span in self.spans:
            calls[span[2]] += 1
        out: dict[str, float] = {}
        for fn, measures in spec.traced_functions().items():
            for measure in measures:
                if measure == "self_ms":
                    value = 1000.0 * selfs.get(fn, 0.0) / ops
                elif measure == "calls":
                    value = calls[fn] / ops
                elif measure == "recompute_ratio":
                    distinct = sum(len(v) for (name, _), v in self.keys.items() if name == fn)
                    value = calls[fn] / distinct if distinct else 0.0
                else:
                    value = self.work[fn, measure] / ops
                out[f"{fn}.{measure}"] = value
        trains = {(s[5], s[0]) for s in self.spans if s[2] == "csc.train_ipw_pl"}
        solves = sum(1 for s in self.spans if s[2] in _ORACLES and (s[5], s[1]) in trains)
        out["csc.oracle_calls_per_train"] = solves / len(trains) if trains else 0.0
        return out

    def missing(self, expected) -> list[str]:
        """Expected functions that recorded no span."""
        seen = {span[2] for span in self.spans}
        return [name for name in expected if name not in seen]

    def write(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for sid, parent, name, start, end, op in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name, "start": start, "end": end, "op": op}))
                fh.write("\n")
