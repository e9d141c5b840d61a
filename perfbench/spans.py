"""Spans around the public functions of each layer of ``cuntzr``.

The wrappers live in the benchmark, not in the program. Each wrapped call
records a span (id, name, start, end, parent) in memory; the self time of a
span is its duration minus the time its child spans cover. Spans are
summed into per-layer counters and written out when the run ends.

A wrapper is installed only where its name exists, and replaces the
original object wherever a ``cuntzr`` module holds it, so calls that go
through ``from .x import f`` bindings are traced too. A layer whose
functions are gone reads as zero calls.

``algebra.py`` is deliberately untraced: its word products run millions of
times per workload, and its time shows in the coproduct and states spans
that drive it.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc

# (module, attribute path, counter group); rmatrix splits into three groups
TARGETS = [
    ("coproduct", "delta", "coproduct"),
    ("coproduct", "delta_op", "coproduct"),
    ("coproduct", "f_r", "coproduct"),
    ("coproduct", "f_l", "coproduct"),
    ("coproduct", "f_r_op", "coproduct"),
    ("coproduct", "f_l_op", "coproduct"),
    ("coproduct", "canonical_equal2", "coproduct"),
    ("coproduct", "canonical_equal3", "coproduct"),
    ("coproduct", "check_coassoc", "coproduct"),
    ("states", "commutes", "states"),
    ("states", "StarComposite.__call__", "states"),
    ("states", "gp_eval", "states"),
    ("states", "boxtimes", "states"),
    ("representations", "lambda2", "representations"),
    ("representations", "lambda3", "representations"),
    ("representations", "act2", "representations"),
    ("representations", "span_basis", "representations"),
    ("representations", "pack_vectors", "representations"),
    ("representations", "SpanBasis.dense", "representations"),
    ("representations", "SpanBasis.coordinates_of", "representations"),
    ("representations", "SpanBasis.from_coordinates", "representations"),
    ("representations", "SpanBasis.orthobasis_vector", "representations"),
    ("_kernels", "orthonormalize_gram", "kernels"),
    ("rmatrix", "build_r", "build"),
    ("rmatrix", "RMatrixOperator.apply", "apply"),
    ("rmatrix", "verify_intertwining", "verify"),
    ("rmatrix", "verify_symmetry", "verify"),
    ("rmatrix", "verify_ybe", "verify"),
    ("cli", "main", "cli"),
    ("cli", "run_scenario", "cli"),
    ("cli", "stable_json", "cli"),
]

GROUPS = ("coproduct", "states", "representations", "kernels", "build", "apply",
          "verify", "cli")


def _entries(value):
    """Entries of a returned vector, array, span basis or tuple of them."""
    if isinstance(value, dict):
        return len(value)
    if isinstance(value, tuple):
        return sum(_entries(v) for v in value)
    if hasattr(value, "vectors"):
        return sum(len(v) for v in value.vectors)
    size = getattr(value, "size", None)
    return int(size) if isinstance(size, int) else 0


def _terms(value):
    count = getattr(value, "term_count", None)
    return int(count()) if callable(count) else 0


def _state_key(state):
    return tuple(complex(c) for c in state.z.z)


class Tracer:
    """Installs the wrappers, records spans and sums them per group."""

    def __init__(self):
        # per open span: [id, child time, traced peak seen, traced at entry]
        self._stack = []
        self._next_id = 0
        self._installed = []  # (owner, attribute, original)
        # trace allocations inside the build and kernel spans only, where the
        # peaks are taken; elsewhere tracemalloc would only slow the run
        self.memory = False
        # while paused (the benchmark's own checks), wrappers only pass through
        self.paused = False
        self.reset()

    def reset(self):
        self.spans = []
        self.self_s = {g: 0.0 for g in GROUPS}
        self.calls = {g: 0 for g in GROUPS}
        self.sizes = {
            "gram_dim": 0, "rank": 0, "build_keys": set(), "apply_entries": 0,
            "checks": 0, "entries_out": 0, "terms_out": 0, "report_bytes": 0,
        }
        self.peaks = {"kernels": 0, "build": 0}

    # -- installation -------------------------------------------------------

    def install(self, package):
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == package.__name__
                                  or name.startswith(package.__name__ + "."))
        ]
        for modname, path, group in TARGETS:
            module = sys.modules.get(f"{package.__name__}.{modname}")
            owner = module
            *parents, attr = path.split(".")
            for p in parents:
                owner = getattr(owner, p, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                continue  # absent in this version of the program
            wrapper = self._wrap(original, f"{modname}.{path}", group, attr)
            if parents:
                self._set(owner, attr, wrapper, original)
                continue
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        self._set(m, name, wrapper, original)

    def _set(self, owner, name, value, original):
        setattr(owner, name, value)
        self._installed.append((owner, name, original))

    def uninstall(self):
        for owner, name, original in reversed(self._installed):
            setattr(owner, name, original)
        self._installed = []

    # -- spans --------------------------------------------------------------

    def _wrap(self, fn, name, group, attr):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            stack = tracer._stack
            sid = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else -1
            owns_tracing = False
            if tracer.memory and group in tracer.peaks:
                if not tracemalloc.is_tracing():
                    tracemalloc.start()
                    owns_tracing = True
                tracer._fold_peak()
            memory = tracemalloc.is_tracing()
            frame = [sid, 0.0, 0, tracemalloc.get_traced_memory()[0] if memory else 0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if memory:
                    tracer._fold_peak()
                    tracer._close_peak(group, frame)
                if owns_tracing:
                    tracemalloc.stop()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                tracer.self_s[group] += duration - frame[1]
                tracer.calls[group] += 1
                tracer.spans.append((sid, name, start, end, parent))
            tracer._count(group, attr, args, kwargs, result)
            return result

        return wrapper

    def _fold_peak(self):
        """Credit the traced peak so far to every open span, then restart it."""
        peak = tracemalloc.get_traced_memory()[1]
        for frame in self._stack:
            frame[2] = max(frame[2], peak)
        tracemalloc.reset_peak()

    def _close_peak(self, group, frame):
        if group in self.peaks:
            above_entry = max(frame[2] - frame[3], 0)
            self.peaks[group] = max(self.peaks[group], above_entry)

    def _count(self, group, attr, args, kwargs, result):
        s = self.sizes
        if group == "kernels":
            s["gram_dim"] += int(args[0].shape[0])
            s["rank"] += int(result[0])
        elif group == "build":
            depth = args[2] if len(args) > 2 else kwargs["depth"]
            s["build_keys"].add(
                (_state_key(args[0]), _state_key(args[1]), int(depth))
            )
        elif group == "apply":
            s["apply_entries"] += len(args[1] if len(args) > 1 else kwargs["vec"])
        elif group == "verify":
            s["checks"] += len(result.checks)
        elif group == "representations":
            s["entries_out"] += _entries(result)
        elif group == "coproduct":
            s["terms_out"] += _terms(result)
        elif group == "cli" and attr == "stable_json":
            s["report_bytes"] += len(result.encode("utf-8"))

    # -- results ------------------------------------------------------------

    def metrics(self):
        """Per-layer metrics of everything recorded since the last reset."""
        s, t, c = self.sizes, self.self_s, self.calls
        return {
            "kernels.self_s": (t["kernels"], "s"),
            "kernels.gram_dim": (s["gram_dim"], "count"),
            "kernels.rank_ratio": (
                s["rank"] / s["gram_dim"] if s["gram_dim"] else 0.0, "ratio"),
            "rmatrix.build_s": (t["build"], "s"),
            "rmatrix.builds": (c["build"], "count"),
            "rmatrix.build_reuse": (
                len(s["build_keys"]) / c["build"] if c["build"] else 0.0, "ratio"),
            "rmatrix.apply_s": (t["apply"], "s"),
            "rmatrix.applies": (c["apply"], "count"),
            "rmatrix.apply_entries": (s["apply_entries"], "count"),
            "rmatrix.verify_s": (t["verify"], "s"),
            "rmatrix.checks": (s["checks"], "count"),
            "representations.self_s": (t["representations"], "s"),
            "representations.calls": (c["representations"], "count"),
            "representations.entries_out": (s["entries_out"], "count"),
            "coproduct.self_s": (t["coproduct"], "s"),
            "coproduct.calls": (c["coproduct"], "count"),
            "coproduct.terms_out": (s["terms_out"], "count"),
            "states.self_s": (t["states"], "s"),
            "states.calls": (c["states"], "count"),
            "cli.self_s": (t["cli"], "s"),
            "cli.report_bytes": (s["report_bytes"], "bytes"),
        }

    def peak_metrics(self):
        mb = 1024.0 * 1024.0
        return {
            "kernels.peak_mb": (self.peaks["kernels"] / mb, "MB"),
            "rmatrix.build_peak_mb": (self.peaks["build"] / mb, "MB"),
        }

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent"],
                       "spans": self.spans}, fh)
