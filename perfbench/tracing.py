"""Spans around the program's layers, recorded from outside the program.

`Tracer.for_program()` replaces each layer's public functions (module
attributes, and `PressureClosure.__call__`) with wrappers that record a span
(name, start, end, parent, size) in memory; `size` is the lattice size L of
micro calls and the cell count of Euler steps.  Every module of the package
that imported a function by name gets the wrapper too, so calls between
modules are seen.  `derive` turns the spans into the per-layer metrics named
in PER_LAYER: `.s` is summed wall seconds, `.calls` a call count, and a
layer's self time is its spans' time minus the nested spans of other layers.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# layer -> (module, public functions wrapped as "<layer>.<function>")
TARGETS = {
    "eos": ("fermi_euler.eos", [
        "tabulate", "invert_to_multipliers", "dual_q", "hessian_psi", "pressure_psi",
    ]),
    "euler": ("fermi_euler.euler", [
        "run", "step", "wave_speed_bound", "lambda_field_of", "initial_q_field",
    ]),
    "micro": ("fermi_euler.micro", [
        "gibbs_exponent", "gibbs_gaussian", "evolve", "densities", "coarse_grain",
        "rel_entropy_gaussian", "entropy_production",
    ]),
    "ldp": ("fermi_euler.ldp", ["rate_I", "entropy_s"]),
    "harness": ("fermi_euler.harness.experiments", [
        "lam_sites_from_profile", "trig_interp", "bz_dual_fields", "bz_pressure_field",
        "write_manifest",
    ]),
}

MICRO_PER_L = ("gibbs_exponent", "gibbs_gaussian", "evolve", "densities", "coarse_grain")
L_VALUES = (512, 1024, 2048)

S, COUNT, RATE, RATIO = "s", "count", "1/s", "ratio"

# (name, unit, better): the per-layer metrics a traced run prints
PER_LAYER = [
    ("eos.tabulate.s", S, "lower"),
    ("eos.invert_to_multipliers.calls", COUNT, "lower"),
    ("eos.invert_to_multipliers.s", S, "lower"),
    ("eos.inversions_per_s", RATE, "higher"),
    ("eos.dual_q.calls", COUNT, "lower"),
    ("eos.hessian_psi.calls", COUNT, "lower"),
    ("eos.pressure_psi.calls", COUNT, "lower"),
    ("eos.dual_q.per_s", RATE, "higher"),
    ("eos.newton_iters_per_inversion", RATIO, "lower"),
    ("eos.newton_accept_ratio", RATIO, "higher"),
    ("eos.closure.calls", COUNT, "lower"),
    ("eos.closure.s", S, "lower"),
    ("eos.self_s", S, "lower"),
    ("euler.run.s", S, "lower"),
    ("euler.step.calls", COUNT, "lower"),
    ("euler.step.s", S, "lower"),
    ("euler.cell_updates_per_s", RATE, "higher"),
    ("euler.wave_speed_bound.calls", COUNT, "lower"),
    ("euler.wave_speed_bound.s", S, "lower"),
    ("euler.wave_speed_share", RATIO, "lower"),
    ("euler.closure_share", RATIO, "lower"),
    ("euler.self_s", S, "lower"),
    ("euler.lambda_field_of.s", S, "lower"),
    ("euler.initial_q_field.s", S, "lower"),
    *[(f"micro.{fn}.s", S, "lower") for fn in MICRO_PER_L],
    *[(f"micro.{fn}.L{L}.s", S, "lower") for fn in MICRO_PER_L for L in L_VALUES],
    ("micro.rel_entropy_gaussian.s", S, "lower"),
    ("micro.entropy_production.s", S, "lower"),
    ("micro.self_s", S, "lower"),
    ("ldp.rate_I.calls", COUNT, "lower"),
    ("ldp.rate_I.s", S, "lower"),
    ("ldp.self_s", S, "lower"),
    ("harness.lam_sites_from_profile.s", S, "lower"),
    ("harness.trig_interp.s", S, "lower"),
    ("harness.bz_dual_fields.s", S, "lower"),
    ("harness.bz_pressure_field.s", S, "lower"),
    ("harness.write_manifest.s", S, "lower"),
    ("harness.self_s", S, "lower"),
    ("trace.overhead_s", S, "lower"),
]
UNITS = {name: unit for name, unit, _ in PER_LAYER}


def _lattice_size(args, kwargs):
    """L of a micro call: from a Lattice, a state or a multiplier field."""
    for a in list(args) + list(kwargs.values()):
        lat = getattr(a, "lattice", a)
        if hasattr(lat, "L") and hasattr(lat, "momenta"):
            return lat.L
    return None


def _cells(args, kwargs):
    sol = args[0] if args else kwargs["sol"]
    return sol.grid.n_cells


SIZES = {"micro": _lattice_size, "euler.step": _cells}


class Tracer:
    """In-memory span recorder that patches the program's layer functions."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, size]
        self._stack = []
        self._patched = []  # (owner, attribute, original)

    @contextmanager
    def span(self, name, size=None):
        record = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1, size]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn, size_of):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, size_of(args, kwargs) if size_of else None):
                return fn(*args, **kwargs)

        return traced

    def patch_function(self, module, attr, name, size_of=None):
        original = getattr(module, attr)
        wrapped = self._wrap(name, original, size_of)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("fermi_euler"):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def patch_method(self, cls, attr, name):
        original = cls.__dict__[attr]
        self._patched.append((cls, attr, original))
        setattr(cls, attr, self._wrap(name, original, None))

    def restore(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    @classmethod
    def for_program(cls) -> "Tracer":
        tracer = cls()
        for layer, (module_name, functions) in TARGETS.items():
            module = sys.modules[module_name]
            for fn in functions:
                name = f"{layer}.{fn}"
                tracer.patch_function(module, fn, name, SIZES.get(name, SIZES.get(layer)))
        tracer.patch_method(sys.modules["fermi_euler.eos"].PressureClosure, "__call__", "eos.closure")
        return tracer

    def write(self, path):
        path.write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "size"], "spans": self.spans}
        ))


def _ratio(num, den):
    return num / den if den else 0.0


def derive(spans) -> dict:
    """Per-layer metrics of PER_LAYER, except trace.overhead_s, from spans."""
    calls = defaultdict(int)
    secs = defaultdict(float)
    self_s = defaultdict(float)
    by_l = defaultdict(float)
    child_s = defaultdict(float)
    in_inversion = defaultdict(int)
    cell_updates = 0
    closure_in_run_s = 0.0
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    for i, (name, start, end, parent, size) in enumerate(spans):
        dur = end - start
        calls[name] += 1
        secs[name] += dur
        self_s[name.split(".")[0]] += dur - child_s[i]
        if size is not None and name.startswith("micro."):
            by_l[f"{name}.L{size}"] += dur
        if name == "euler.step":
            cell_updates += size
        if parent >= 0 and spans[parent][0] == "eos.invert_to_multipliers":
            in_inversion[name] += 1
        if name == "eos.closure" and _has_ancestor(spans, i, "euler.run"):
            closure_in_run_s += dur

    inversions = calls["eos.invert_to_multipliers"]
    out = {}
    for name, _, _ in PER_LAYER:
        layer, _, rest = name.partition(".")
        if rest.endswith(".calls"):
            out[name] = calls[f"{layer}.{rest[:-6]}"]
        elif rest == "self_s":
            out[name] = self_s[layer]
        elif rest.endswith(".s") and rest.count(".") == 2:  # micro.<fn>.L<L>.s
            out[name] = by_l[name[:-2]]
        elif rest.endswith(".s"):
            out[name] = secs[f"{layer}.{rest[:-2]}"]
    out["eos.inversions_per_s"] = _ratio(inversions, secs["eos.invert_to_multipliers"])
    out["eos.dual_q.per_s"] = _ratio(calls["eos.dual_q"], secs["eos.dual_q"])
    # every Newton iteration solves with one Hessian; every trial step after
    # the first residual of an inversion costs one dual_q
    out["eos.newton_iters_per_inversion"] = _ratio(in_inversion["eos.hessian_psi"], inversions)
    out["eos.newton_accept_ratio"] = _ratio(
        in_inversion["eos.hessian_psi"], in_inversion["eos.dual_q"] - inversions
    )
    out["euler.cell_updates_per_s"] = _ratio(cell_updates, secs["euler.step"])
    out["euler.wave_speed_share"] = _ratio(secs["euler.wave_speed_bound"], secs["euler.run"])
    out["euler.closure_share"] = _ratio(closure_in_run_s, secs["euler.run"])
    return out


def _has_ancestor(spans, i, name) -> bool:
    parent = spans[i][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False
