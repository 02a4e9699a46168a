"""Layer tracing for the benchmark, installed from outside the package.

Run as a script it is a traced stand-in for the ``gaussfocal`` command:

    PYTHONPATH=src python3 bench/trace.py STATS.json run severi-2 --trials 1

It wraps the public entry points of every ``gaussfocal`` module, runs
``gaussfocal.cli.main`` on the remaining arguments, and writes per-layer
call counts, total time and self time to STATS.json.  Each wrapped call
is one span (name, start, end, parent), kept in memory and folded into
the per-layer figures when the command ends.  A layer's self time is its
span minus the spans of the wrapped calls it made.

The wrappers draw no random numbers and change no argument, so a traced
run must print the same integers as an untraced one; the benchmark
checks that byte for byte.  Per-element helpers (``dot``, ``vecmat``,
``Fp.add``/``mul``) are deliberately left alone: they run millions of
times per trial and a span each would swamp the layers above them.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter

# (module, attribute) -> index of the ring argument, or None when the
# layer name carries no ring suffix.  Methods are "Class.method"; their
# index counts ``self``.
WRAPPED = {
    ("cli", "build_plan"): None,
    ("cli", "parse_spec_file"): None,
    ("cli", "run_experiment"): None,
    ("varieties", "variety_dim"): None,
    ("gaussmap", "tangent_space"): None,
    ("gaussmap", "gauss_fiber"): None,
    ("gaussmap", "fiber_system"): None,
    ("focal", "fiber_family_chart"): None,
    ("focal", "characteristic_matrix"): None,
    ("focal", "chart_independence"): None,
    ("focal", "focal_profile"): None,
    ("focal", "extract_reduced_power"): None,
    ("focal", "sing_containment"): None,
    ("focal", "form_zero_point"): None,
    ("focal", "CharMatrix.det_at"): None,
    ("focal", "CharMatrix.value"): None,
    ("mpoly", "PolyProgram.eval"): 2,
    ("mpoly", "PolyProgram.grad"): 2,
    ("mpoly", "PolyProgram.hess_vec"): 3,
    ("mpoly", "det_ring"): 1,
    ("mpoly", "squarefree_profile"): None,
    ("mpoly", "up_roots"): None,
    ("mpoly", "restrict_to_line"): None,
    ("fieldcore", "rref"): 1,
    ("fieldcore", "solve_affine"): None,
    ("fieldcore", "lagrange_interpolate"): None,
}

MODULES = ("fieldcore", "mpoly", "varieties", "gaussmap", "focal", "cli")

# Ring types by class name, so this file needs no import of the package.
RING_SUFFIX = {"Fp": "fp", "DualFp": "dual", "Dual2Fp": "dual2",
               "DualRing": "dualring"}


class Tracer:
    """Spans of wrapped calls in one process, and counts beside them."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1)
        self.counts = {}
        self._stack = [-1]

    def wrap(self, name, fn, ring_arg=None, on_return=None):
        spans, stack, clock = self.spans, self._stack, perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name
            if ring_arg is not None:
                ring = args[ring_arg] if len(args) > ring_arg else kwargs["ring"]
                label = f"{name}.{RING_SUFFIX[type(ring).__name__]}"
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (label, start, end, parent)
            if on_return is not None:
                on_return(out)
            return out

        return traced

    def count(self, key):
        self.counts[key] = self.counts.get(key, 0) + 1

    def layers(self):
        """{layer: [calls, total_s, self_s]} over every recorded span."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for (name, start, end, _), inner in zip(self.spans, child_time):
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - inner
        return out

    def calls_under(self, name, ancestor):
        """Calls of ``name`` made, at any depth, inside an ``ancestor`` span."""
        spans = self.spans
        hits = 0
        for label, _, _, parent in spans:
            if label != name:
                continue
            while parent >= 0:
                if spans[parent][0] == ancestor:
                    hits += 1
                    break
                parent = spans[parent][3]
        return hits


def install(tracer):
    """Wrap every entry of WRAPPED, rebinding each name in every module
    of the package that holds the original object (``from … import``
    copies included), so no call path slips past its wrapper."""
    mods = {m: importlib.import_module(f"gaussfocal.{m}") for m in MODULES}

    def count_path(form):
        path = "path_interp" if form.basis is not None else "path_pde"
        tracer.count(f"focal.extract.{path}")

    for (mod_name, attr), ring_arg in WRAPPED.items():
        label = f"{mod_name}.{attr}"
        hook = count_path if attr == "extract_reduced_power" else None
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mods[mod_name], cls_name)
            setattr(cls, meth, tracer.wrap(label, getattr(cls, meth),
                                           ring_arg, hook))
            continue
        original = getattr(mods[mod_name], attr)
        wrapped = tracer.wrap(label, original, ring_arg, hook)
        for mod in mods.values():
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)

    # The point sampler is a closure stored on each VarietySpec, so it is
    # wrapped on the specs that every freshly built plan carries.
    build_plan = mods["cli"].build_plan

    def build_plan_with_sampler(cfg):
        plan = build_plan(cfg)
        specs = [plan.spec, plan.spec and plan.spec.singular]
        for spec in specs:
            if spec is not None and spec.sampler is not None:
                spec.sampler = tracer.wrap("varieties.sampler", spec.sampler)
        return plan

    mods["cli"].build_plan = build_plan_with_sampler


def main(argv):
    stats_path, args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from gaussfocal.cli import main as cli_main

    code = cli_main(args)
    stats = {
        "layers": tracer.layers(),
        "counts": tracer.counts,
        "det_at_in_extraction": tracer.calls_under(
            "focal.CharMatrix.det_at", "focal.extract_reduced_power"),
    }
    with open(stats_path, "w") as handle:
        json.dump(stats, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
