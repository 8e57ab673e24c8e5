"""Spans around polyurn's module boundaries, installed from outside the package.

``Tracer.installed()`` rebinds each traced public function in every polyurn
module that holds a reference to it (the defining module and the modules that
imported it by name), so calls made through those names record a span. The
original functions are restored on exit. Spans stay in memory as
``[name, start, end, parent, op]`` rows and are written out once at the end.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
from time import perf_counter

#: (module, attribute) of every traced function, grouped by layer.
TARGETS = (
    ("polyurn.ratpoly", "roots_in_unit_interval"),
    ("polyurn.ratpoly", "sign_at_root"),
    ("polyurn.urns", "model_meta"),
    ("polyurn.urns", "bias_bound"),
    ("polyurn.urns", "drift_for"),
    ("polyurn.urns", "error_one"),
    ("polyurn.urns", "error_two"),
    ("polyurn.urns", "error_for"),
    ("polyurn.urns", "attainable_interval"),
    ("polyurn.urns", "degenerate_reduce"),
    ("polyurn.stability", "classify_all"),
    ("polyurn.stability", "check_noise_floor"),
    ("polyurn.stability", "check_boundary_exclusion"),
    ("polyurn.analysis", "analyze_model"),
    ("polyurn.analysis", "predict_limit"),
    ("polyurn.analysis", "sa_conditions_for"),
    ("polyurn.analysis", "analysis_to_dict"),
    ("polyurn.montecarlo", "run_replicates"),
    ("polyurn.montecarlo", "simulate"),
    ("polyurn.montecarlo", "verify"),
    ("polyurn.montecarlo", "finals_csv_lines"),
    ("polyurn.montecarlo", "trajectory_csv_lines"),
    ("polyurn.montecarlo", "cluster_finals"),
    ("polyurn.montecarlo", "ks_beta"),
    ("polyurn.montecarlo", "VerificationReport.to_dict"),
    ("polyurn.cli", "model_from_args"),
    ("polyurn.cli", "_json_text"),
    ("polyurn.cli", "_write_text"),
    ("polyurn.cli", "main"),
)

#: Calls whose arguments are kept, to count repeated work.
KEEP_ARGS = frozenset({"model_meta", "drift_for", "classify_all", "attainable_interval"})

_MODULES = ("polyurn", "polyurn.ratpoly", "polyurn.urns", "polyurn.stability",
            "polyurn.analysis", "polyurn.montecarlo", "polyurn.cli")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.args: dict[int, tuple] = {}  # span index -> call arguments
        self.op = -1
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        spans, stack, args_of = self.spans, self._stack, self.args
        keep = name in KEEP_ARGS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, perf_counter(), None, stack[-1] if stack else -1, self.op])
            if keep:
                args_of[index] = args
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = perf_counter()

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind every target to its traced wrapper for the duration of the block."""
        modules = [importlib.import_module(m) for m in _MODULES]
        undo = []
        try:
            for module_name, attr in TARGETS:
                owner = importlib.import_module(module_name)
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[method]
                    setattr(cls, method, self._wrap(attr, original))
                    undo.append((cls, method, original))
                    continue
                original = getattr(owner, attr)
                wrapper = self._wrap(attr, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
                            undo.append((module, key, original))
            yield self
        finally:
            for holder, key, original in reversed(undo):
                setattr(holder, key, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def outermost(spans: list[list], names) -> list[int]:
    """Indices of spans named in ``names`` with no ancestor also named in ``names``."""
    names = frozenset(names)
    found = []
    for i, (name, _, _, parent, _) in enumerate(spans):
        if name not in names:
            continue
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent < 0:
            found.append(i)
    return found
