"""Outside-in layer tracing for the benchmark.

The tracer replaces public functions of the ``cknsym`` modules with thin
wrappers that record one span per call: (name, start, end, parent).  A
function is wrapped under every name a caller looks it up by, because
``from .grid import forward_diffs`` copies the function into the importing
module; wrapping only ``cknsym.grid.forward_diffs`` would miss the calls
``cknsym.variational`` makes.  Methods are wrapped on their class.

Spans stay in memory while the workload runs and are written out once at
the end.  A span's self time is its duration minus the durations of the
spans it caused; calls are single-threaded, so children nest strictly
inside their parent.  No library code is changed.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time

# (defining module, attribute path, span name, counter).  The span name is
# "<module>.<function>"; the checkpoint writer is the one non-public name,
# reported as "variational.checkpoint_write".  A counter maps
# (args, result) to an amount of work that the span's layer reports.
_FILE_ARG = "file_bytes"      # size of the file named by the first argument
_STACK_OUT = "stack_bytes"    # bytes of the returned difference stack
_STACK_IN = "stack_in_bytes"  # bytes of the difference stack passed in
_LEN = "len"                  # length of the result

TARGETS: tuple[tuple[str, str, str, str | None], ...] = (
    ("grid", "forward_diffs", "grid.forward_diffs", _STACK_OUT),
    ("grid", "backward_diffs", "grid.backward_diffs", _STACK_OUT),
    ("grid", "forward_diffs_adjoint", "grid.forward_diffs_adjoint", _STACK_IN),
    ("grid", "backward_diffs_adjoint", "grid.backward_diffs_adjoint", _STACK_IN),
    ("grid", "save_field", "grid.save_field", _FILE_ARG),
    ("grid", "load_field", "grid.load_field", _FILE_ARG),
    ("variational", "DiscreteEnergy.kinetic", "variational.kinetic", None),
    ("variational", "DiscreteEnergy.potential", "variational.potential", None),
    ("variational", "DiscreteEnergy.gradient_parts", "variational.gradient_parts", None),
    ("variational", "DiscreteEnergy.quotient", "variational.quotient", None),
    ("variational", "DiscreteEnergy.quotient_gradient", "variational.quotient_gradient", None),
    ("variational", "DiscreteEnergy.nehari_scale", "variational.nehari_scale", None),
    ("variational", "angular_mean", "variational.angular_mean", None),
    ("variational", "symmetrize", "variational.symmetrize", None),
    ("lattice", "apply_perm_to_grid", "lattice.apply_perm_to_grid", None),
    ("lattice", "lattice_subgroup", "lattice.lattice_subgroup", _LEN),
    ("variational", "solve", "variational.solve", None),
    ("variational", "interpolated_equivariance_bias",
     "variational.interpolated_equivariance_bias", None),
    ("variational", "reduced_level_estimate", "variational.reduced_level_estimate", None),
    ("variational", "equivariance_residual", "variational.equivariance_residual", None),
    ("variational", "sign_certificate", "variational.sign_certificate", None),
    ("variational", "seed_field", "variational.seed_field", None),
    ("variational", "_save_checkpoint", "variational.checkpoint_write", _FILE_ARG),
    ("variational", "load_checkpoint", "variational.load_checkpoint", _FILE_ARG),
    ("symmetry", "random_element", "symmetry.random_element", None),
    ("symmetry", "compose", "symmetry.compose", None),
    ("symmetry", "to_matrix", "symmetry.to_matrix", None),
    ("symmetry", "act_points", "symmetry.act_points", None),
    ("symmetry", "stabilizer_in_kernel_check", "symmetry.stabilizer_in_kernel_check", None),
    ("symmetry", "phi_is_homomorphism_check", "symmetry.phi_is_homomorphism_check", None),
    ("codes", "closure", "codes.closure", _LEN),
    ("codes", "distinct_guaranteed", "codes.distinct_guaranteed", None),
    ("enumeration", "enumerate_configs", "enumeration.enumerate_configs", None),
    ("enumeration", "count_configs", "enumeration.count_configs", None),
    ("enumeration", "max_distinct_family", "enumeration.max_distinct_family", None),
    ("cli", "main", "cli.main", None),
)

SPAN_NAMES: tuple[str, ...] = tuple(t[2] for t in TARGETS)

# the counter each layer reports, as "<span name>.<stat>"
COUNTER_STATS: dict[str, str] = {
    "grid.save_field": "bytes",
    "grid.load_field": "bytes",
    "variational.checkpoint_write": "bytes",
    "variational.load_checkpoint": "bytes",
    "lattice.lattice_subgroup": "elements",
    "codes.closure": "words",
}

_MODULES = ("grid", "lattice", "symmetry", "codes", "enumeration",
            "variational", "cli")


def _count(kind: str, args: tuple, result) -> int:
    if kind == _FILE_ARG:
        return os.path.getsize(args[0])
    if kind == _STACK_OUT:
        return int(result.nbytes)
    if kind == _STACK_IN:
        return int(args[1].nbytes)
    return len(result)


class Tracer:
    """Install wrappers, collect spans in memory, restore on uninstall."""

    def __init__(self) -> None:
        # one span per call: [name index, start, end, parent span or -1]
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn, index: int, counter: str | None):
        spans, stack, counts = self.spans, self._stack, self.counts
        name = SPAN_NAMES[index]
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [index, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                counts[name] = counts.get(name, 0) + _count(counter, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target; a target the package no longer has reports 0 calls."""
        modules = {m: importlib.import_module(f"cknsym.{m}") for m in _MODULES}
        for index, (mod_name, path, _, counter) in enumerate(TARGETS):
            owner = modules[mod_name]
            if "." in path:
                cls_name, attr = path.split(".")
                original = vars(getattr(owner, cls_name, object)).get(attr)
                if original is not None:
                    self._set(getattr(owner, cls_name), attr,
                              self._wrap(original, index, counter))
                continue
            original = getattr(owner, path, None)
            if original is None:
                continue
            wrapper = self._wrap(original, index, counter)
            for module in modules.values():
                if vars(module).get(path) is original:
                    self._set(module, path, wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"names": SPAN_NAMES, "spans": self.spans,
                       "counts": self.counts}, fh)


def summarize(path: str) -> dict[str, float]:
    """Per-layer calls, self time and counters from a written span file."""
    with open(path) as fh:
        data = json.load(fh)
    names, spans = data["names"], data["spans"]
    child_time = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, float] = {}
    for name in names:
        out[f"{name}.calls"] = 0
        out[f"{name}.self_s"] = 0.0
    for i, (index, start, end, _) in enumerate(spans):
        name = names[index]
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += (end - start) - child_time[i]
    for name, stat in COUNTER_STATS.items():
        out[f"{name}.{stat}"] = data["counts"].get(name, 0)
    out["grid.diff_bytes"] = sum(data["counts"].get(f"grid.{fn}", 0) for fn in (
        "forward_diffs", "backward_diffs", "forward_diffs_adjoint", "backward_diffs_adjoint"))
    out["trace.spans"] = len(spans)
    return out
