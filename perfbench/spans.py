"""Spans and work counts recorded from outside the program.

`Tracer.install()` replaces the public functions of the layers `f2cat`,
`towers`, `mcc`, `solenoidal`, `floer` and `cli` with wrappers that record
one span per call (name, start, end, parent span, job id) and, outside the
timed interval, add work counts computed from the call's inputs and output.
A function is replaced under every name that refers to it in a loaded
`mcctensor` module, so `from ... import` aliases (for example
`mcctensor.cli.apply_mcc`) are traced too.  `uninstall()` restores every
original.

Hot leaf functions (`act_word`, `TorusAlgebra.mult`, the `LabeledSet`
dunders) are left alone: their work shows up through the counts.
"""

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("f2cat", "towers", "mcc", "solenoidal", "floer", "cli")


def _bound(fn, args, kwargs):
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _count_apply_mcc(counts, a, out):
    space = len(a["matrix"].rows) ** a["window"].tower.size(a["out_depth"])
    counts["mcc.apply_mcc.output_space"] += space
    counts["mcc.apply_mcc.support_in"] += len(a["window"].support)
    counts["mcc.apply_mcc.support_out"] += len(out.support)


def _count_invariance(counts, a, h):
    tower, m = a["tower"], a["m"]
    counts["towers.invariance_level_table.kernel_offered"] += sum(
        len(tower.kernel(m, k)) for k in range(h + 1))


def _count_tpf(counts, a, out):
    counts["f2cat.tensor_power_finite.entries"] += len(out.rows) * len(out.cols)


def _count_walks(counts, a, out):
    counts["solenoidal.walks_of_length.walks"] += len(out)


def _count_staircase(counts, a, out):
    counts["solenoidal.staircase_dims.dim_total"] += sum(out)


def _count_box(counts, a, out):
    counts["floer.box_tensor.generators_out"] += len(out.generators)
    counts["floer.box_tensor.terms_out"] += len(out.terms)


def _count_box_generators(counts, a, out):
    counts["floer.box_generators.pairs"] += len(out)


def _count_dumps(counts, a, out):
    counts["floer.dumps_bimodule.bytes"] += len(out.encode("utf-8"))


# (span name, module, attribute path, count function or None)
TARGETS = (
    ("f2cat.compose", "mcctensor.f2cat", "compose", None),
    ("f2cat.parse_matrix", "mcctensor.f2cat", "parse_matrix", None),
    ("f2cat.tensor_power_finite", "mcctensor.f2cat", "tensor_power_finite", _count_tpf),
    ("towers.group", "mcctensor.towers", "DyadicTower.group", None),
    ("towers.kernel", "mcctensor.towers", "DyadicTower.kernel", None),
    ("towers.invariance_level_table", "mcctensor.towers", "invariance_level_table",
     _count_invariance),
    ("towers.cc_sum", "mcctensor.towers", "cc_sum", None),
    ("mcc.apply_mcc", "mcctensor.mcc", "apply_mcc", _count_apply_mcc),
    ("mcc.window_init", "mcctensor.mcc", "MccWindow.__init__", None),
    ("solenoidal.walks_of_length", "mcctensor.solenoidal", "walks_of_length", _count_walks),
    ("solenoidal.staircase_dims", "mcctensor.solenoidal", "staircase_dims", _count_staircase),
    ("solenoidal.hh0_quotient_dim", "mcctensor.solenoidal", "hh0_quotient_dim", None),
    ("solenoidal.apply_solenoidal", "mcctensor.solenoidal", "apply_solenoidal", None),
    ("solenoidal.e_S_project", "mcctensor.solenoidal", "e_S_project", None),
    ("solenoidal.composition_counterexample_search", "mcctensor.solenoidal",
     "composition_counterexample_search", None),
    ("floer.box_tensor", "mcctensor.floer", "box_tensor", _count_box),
    ("floer.bimodule_init", "mcctensor.floer", "DABimodule.__init__", None),
    ("floer.box_generators", "mcctensor.floer", "box_generators", _count_box_generators),
    ("floer.derived_power_certificate", "mcctensor.floer", "derived_power_certificate", None),
    ("floer.vanishing_certificate", "mcctensor.floer", "vanishing_certificate", None),
    ("floer.hfk_dimensions", "mcctensor.floer", "hfk_dimensions", None),
    ("floer.dumps_bimodule", "mcctensor.floer", "dumps_bimodule", _count_dumps),
    ("cli.main", "mcctensor.cli", "main", None),
)

SPAN_NAMES = tuple(t[0] for t in TARGETS)


class Tracer:
    """Records spans and counts while installed; restores everything on
    uninstall.  Spans stay in memory until the caller writes them out."""

    def __init__(self):
        # [name, start, end, parent index or -1, job id, seconds spent on
        # counting children's work inside this span]
        self.spans = []
        self.counts = defaultdict(int)
        self.errors = defaultdict(int)
        self.job = None
        self._stack = []
        self._quiet = 0
        self._patched = []  # (owner, attribute, original)

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name, fn, count):
        tracer = self
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._quiet:
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1,
                    tracer.job, 0.0]
            tracer.spans.append(span)
            tracer._stack.append(idx)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span[2] = time.perf_counter()
                tracer.errors[layer] += 1
                raise
            else:
                span[2] = time.perf_counter()
            finally:
                tracer._stack.pop()
            if count is not None:
                t0 = time.perf_counter()
                tracer._quiet += 1
                try:
                    count(tracer.counts, _bound(fn, args, kwargs), out)
                finally:
                    tracer._quiet -= 1
                if tracer._stack:
                    tracer.spans[tracer._stack[-1]][5] += time.perf_counter() - t0
            return out

        wrapper.__perfbench_original__ = fn
        return wrapper

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        # import every layer first, so that no module binds an alias to a
        # wrapper while it is being imported
        modules = {modname: importlib.import_module(modname) for _, modname, _, _ in TARGETS}
        for name, modname, path, count in TARGETS:
            module = modules[modname]
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                self._patched.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, count))
                continue
            original = getattr(module, path)
            wrapper = self._wrap(name, original, count)
            for mod in _mcctensor_modules():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    # -- results -------------------------------------------------------------

    def self_times(self, jobs=None):
        """Seconds per span name spent inside the span but outside its
        traced children, over spans whose job id is in `jobs` (all if None)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, job, counting in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, parent, job, counting) in enumerate(self.spans):
            if jobs is None or job in jobs:
                out[name] += (end - start) - child[i] - counting
        return out


def _mcctensor_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "mcctensor" or n.startswith("mcctensor."))]


def leftover_wrappers():
    """Names in loaded mcctensor modules and classes still bound to a wrapper."""
    found = []
    for mod in _mcctensor_modules():
        for attr, value in vars(mod).items():
            if hasattr(value, "__perfbench_original__"):
                found.append(f"{mod.__name__}.{attr}")
            if inspect.isclass(value) and value.__module__.startswith("mcctensor"):
                for cattr, cvalue in vars(value).items():
                    if hasattr(cvalue, "__perfbench_original__"):
                        found.append(f"{mod.__name__}.{attr}.{cattr}")
    return found
