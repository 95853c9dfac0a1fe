"""Span tracing from outside the program.

Public functions of ``ellipsum`` are replaced, by attribute and inside the
benchmark process only, with wrappers that record one span per call: its
name, start, end and parent. Spans are kept in flat arrays while the
workload runs; self times are computed from them afterwards and the spans
are written out at the end.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

#: (span name, module, attribute) for every wrapped callable. A dotted
#: attribute names a method, which is replaced on its class. Several
#: callables may share one span name.
TARGETS = (
    ("linalg.cholesky", "ellipsum.linalg", "cholesky"),
    ("linalg.solve_lower", "ellipsum.linalg", "solve_lower"),
    ("linalg.sym_eig", "ellipsum.linalg", "sym_eig"),
    ("linalg.symmetrize", "ellipsum.linalg", "symmetrize"),
    ("ellipsoid.construct", "ellipsum.ellipsoid", "Ellipsoid.__post_init__"),
    ("ellipsoid.affine_image", "ellipsum.ellipsoid", "affine_image"),
    ("ellipsoid.lift_degenerate", "ellipsum.ellipsoid", "lift_degenerate"),
    ("ellipsoid.volume", "ellipsum.ellipsoid", "Ellipsoid.volume"),
    ("mvoe.root", "ellipsum.mvoe", "solve_beta_bisection"),
    ("mvoe.root", "ellipsum.mvoe", "solve_beta_fixed_point"),
    ("mvoe.root", "ellipsum.mvoe", "beta_trace_optimal"),
    ("mvoe.pair", "ellipsum.mvoe", "mvoe_pair"),
    ("reach.step_forward", "ellipsum.reach", "step_forward"),
    ("reach.step_backward", "ellipsum.reach", "step_backward"),
    ("oracles.golden_section", "ellipsum.oracles", "golden_section_beta"),
    ("oracles.containment", "ellipsum.oracles", "containment_check"),
    ("oracles.stationarity", "ellipsum.oracles", "stationarity_check"),
    ("oracles.consistency", "ellipsum.oracles", "consistency_checks"),
    ("cli.load_problem", "ellipsum.cli", "load_problem"),
)

#: span name of the root span around each operation
OP = "op"


class Tracer:
    def __init__(self):
        self.names = [OP]
        self._ids = {OP: 0}
        for span, _, _ in TARGETS:  # a span that is never entered reads 0
            self._id(span)
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        #: summed MvoeResult.iterations of every traced pair solve
        self.root_iterations = 0

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, on_result=None):
        nid = self._id(name)
        name_id, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _count_iterations(self, result):
        self.root_iterations += getattr(result, "iterations", 0)

    def install(self):
        """Wrap every target that exists; return the wrapped names.

        A function is replaced under every name that refers to it in any
        loaded ``ellipsum`` module, so calls through ``from x import f``
        bindings are traced as well. Names that no longer exist are skipped.
        """
        wrapped = []
        for span, module_name, attr in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            owner_name, _, member = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, member, None) if owner is not None else None
            if original is None:
                continue
            on_result = self._count_iterations if span == "mvoe.pair" else None
            wrapper = self.wrap(span, original, on_result)
            if owner_name:
                setattr(owner, member, wrapper)
            else:
                for mod in list(sys.modules.values()):
                    if getattr(mod, "__name__", "").split(".")[0] != "ellipsum":
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
            wrapped.append(f"{module_name}.{attr}")
        return wrapped

    def self_times(self):
        """Per span name: (calls, summed self seconds).

        Self time is a span's duration minus the durations of its direct
        children.
        """
        names = np.array(self.name_id, dtype=np.int32)
        parents = np.array(self.parent, dtype=np.int32)
        duration = np.array(self.end, dtype=float) - np.array(self.start, dtype=float)
        child = np.zeros_like(duration)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], duration[has_parent])
        own = duration - child
        calls = np.bincount(names, minlength=len(self.names))
        seconds = np.bincount(names, weights=own, minlength=len(self.names))
        return {n: (int(calls[i]), float(seconds[i])) for i, n in enumerate(self.names)}

    def write(self, path, header):
        """Write the spans as compressed arrays plus the name table."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.array(self.name_id, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int32),
            start=np.array(self.start, dtype=float),
            end=np.array(self.end, dtype=float),
            header=np.array(header),
        )
