"""The benchmark's contract with the program.

`perfbench/spans.py` wraps program functions by module and name and binds
their arguments by name to count work.  This test loads it read-only and
checks that every target still resolves, that one small call through each
counted target records counts without errors, and that uninstalling leaves
no wrapper behind.  A renamed function or parameter fails here rather than
in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves(spans):
    for name, modname, path, _ in spans.TARGETS:
        module = importlib.import_module(modname)
        if "." in path:
            cls_name, attr = path.split(".")
            target = vars(getattr(module, cls_name)).get(attr)
        else:
            target = getattr(module, path, None)
        assert callable(target), f"{name}: {modname}.{path} does not resolve"


def _counted_calls():
    """One small call through each counted target, looked up on its module
    at call time so that the installed wrappers are the ones called."""
    from mcctensor import f2cat, floer, mcc, solenoidal, towers

    tower = towers.dyadic_solenoid(2)
    xy = f2cat.LabeledSet(["x", "y"])
    swap = f2cat.F2Matrix.from_rows(xy, xy, [[0, 1], [1, 0]])
    window = mcc.MccWindow(tower, xy, 1, {("x", "y")})
    mcc.apply_mcc(swap, window, 2)
    towers.invariance_level_table(tower, {("x", "y"), ("y", "x")}, 1)
    f2cat.tensor_power_finite(swap, ["p", "q"])
    solenoidal.walks_of_length(solenoidal.fig8(), 2)
    solenoidal.staircase_dims(solenoidal.fig8(), tower, 1)
    box = floer.box_tensor(floer.cfda_tb_inv(), floer.cfda_ta())
    floer.box_generators([("x", "i0", "i1")], [("y", "i1", "i0")])
    floer.dumps_bimodule(box)


COUNTS = (
    "mcc.apply_mcc.output_space", "mcc.apply_mcc.support_in", "mcc.apply_mcc.support_out",
    "towers.invariance_level_table.kernel_offered", "f2cat.tensor_power_finite.entries",
    "solenoidal.walks_of_length.walks", "solenoidal.staircase_dims.dim_total",
    "floer.box_tensor.generators_out", "floer.box_tensor.terms_out",
    "floer.box_generators.pairs", "floer.dumps_bimodule.bytes",
)


def test_counted_targets_record_and_uninstall(spans):
    tracer = spans.Tracer()
    tracer.install()
    try:
        _counted_calls()
    finally:
        tracer.uninstall()
    assert not tracer.errors
    assert [n for n in COUNTS if not tracer.counts.get(n)] == []
    recorded = {span[0] for span in tracer.spans}
    for name in ("mcc.apply_mcc", "towers.invariance_level_table",
                 "f2cat.tensor_power_finite", "solenoidal.walks_of_length",
                 "solenoidal.staircase_dims", "floer.box_tensor",
                 "floer.box_generators", "floer.dumps_bimodule"):
        assert name in recorded
    assert spans.leftover_wrappers() == []


def _traced_cli_pass(spans, capsys):
    """One traced pass of the box-power CLI commands; the tracer's counts,
    errors and the commands' exit codes."""
    from mcctensor import cli

    tracer = spans.Tracer()
    tracer.install()
    try:
        codes = [cli.main(["hh", "box", "--power", "4"]),
                 cli.main(["dims", "fig8", "3"])]
    finally:
        tracer.uninstall()
    capsys.readouterr()
    return dict(tracer.counts), dict(tracer.errors), codes


def test_traced_box_power_commands_repeat_their_counts(spans, capsys):
    first = _traced_cli_pass(spans, capsys)
    second = _traced_cli_pass(spans, capsys)
    assert first == second
    counts, errors, codes = first
    assert codes == [0, 0] and errors == {}
    assert counts["floer.box_tensor.terms_out"] > 0
    assert spans.leftover_wrappers() == []
