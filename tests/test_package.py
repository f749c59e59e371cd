"""The package namespace: what `from mcctensor import *` exports, how the
names resolve, and which layers each command loads."""

import os
import subprocess
import sys
import types

import pytest

import mcctensor

EXPORTS = {
    "MccError", "LabelMismatchError", "SizeCapError", "TowerValidationError",
    "InvarianceError", "DepthError", "CompatibilityError",
    "ChainingError", "ZeroInputCycleError", "CertificateError", "CrossCheckError",
    "ParseError",
    "F2Matrix", "LabeledSet", "compose", "tensor_power_finite",
    "DyadicTower", "dyadic_solenoid", "invariance_level", "cc_sum",
    "MccWindow", "apply_mcc", "staircase_position", "cc_probe",
    "GraphBasis", "GraphMorphism", "fig8", "e_S_project", "apply_solenoidal",
    "staircase_dims",
    "TorusAlgebra", "torus_algebra", "DABimodule", "box_tensor",
    "box_power", "hochschild_generators", "vanishing_certificate",
    "derived_power_certificate", "hfk_dimensions", "cfda_tb_inv", "cfda_ta",
    "seed_box",
    "__version__",
}


def test_all_is_the_imported_names():
    assert len(mcctensor.__all__) == len(EXPORTS) == 43
    assert set(mcctensor.__all__) == EXPORTS
    assert not any(isinstance(getattr(mcctensor, n), types.ModuleType)
                   for n in mcctensor.__all__)


def test_star_import_binds_each_layers_object():
    namespace = {}
    exec("from mcctensor import *", namespace)
    assert set(namespace) - {"__builtins__"} == EXPORTS
    for name in EXPORTS - {"__version__"}:
        obj = namespace[name]
        layer = sys.modules[obj.__module__]
        assert layer.__name__.startswith("mcctensor.")
        assert getattr(layer, name) is obj


def test_dir_lists_the_exports_and_unknown_names_raise():
    assert EXPORTS <= set(dir(mcctensor))
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(mcctensor, "no_such_name")


def test_aliases_follow_the_layer(monkeypatch):
    import mcctensor.cli
    import mcctensor.mcc

    original = mcctensor.mcc.apply_mcc

    def replacement(*args):
        return original(*args)

    monkeypatch.setattr(mcctensor.mcc, "apply_mcc", replacement)
    assert mcctensor.apply_mcc is replacement
    assert mcctensor.cli.apply_mcc is replacement
    monkeypatch.undo()
    assert mcctensor.apply_mcc is original
    assert mcctensor.cli.apply_mcc is original
    for name in EXPORTS - {"__version__"}:
        assert getattr(mcctensor.cli, name) is getattr(mcctensor, name)
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(mcctensor.cli, "no_such_name")


def loaded_modules(tmp_path, argv):
    """The mcctensor modules a `python -m mcctensor.cli` process imports."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src") + os.pathsep
               + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "mcctensor.cli", *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    # "import time: self | cumulative | name", the name indented by depth
    names = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
             if line.startswith("import time:")}
    return {n for n in names if n.split(".")[0] == "mcctensor"}


FLOER_ONLY = {"mcctensor", "mcctensor.errors", "mcctensor.floer"}


@pytest.mark.parametrize("argv", [
    ["hh", "box", "--power", "4"],
    ["box", "tb_inv", "ta", "--out", "box.json"],
], ids=["hh", "box"])
def test_box_commands_load_only_floer(tmp_path, argv):
    # the command module itself runs as __main__
    assert loaded_modules(tmp_path, argv) == FLOER_ONLY


def test_other_commands_load_their_layers_only(tmp_path):
    (tmp_path / "swap.mat").write_text("rows: x y\ncols: x y\n0 1\n1 0\n")
    (tmp_path / "win.txt").write_text("tower: dyadic 2\nbasis: x y\ndepth: 1\nxy 1\n")
    apply = loaded_modules(tmp_path, ["mcc", "apply", "swap.mat", "win.txt"])
    assert "mcctensor.mcc" in apply
    assert not apply & {"mcctensor.floer", "mcctensor.solenoidal"}
    csv = loaded_modules(tmp_path, ["dims", "fig8", "2", "csv"])
    assert "mcctensor.solenoidal" in csv and "mcctensor.floer" not in csv
    dims = loaded_modules(tmp_path, ["dims", "fig8", "1"])
    assert "mcctensor.floer" in dims
    verify = loaded_modules(tmp_path, ["verify", "--depth-cap", "1"])
    assert "mcctensor.verify" in verify
    for loaded in (apply, csv, dims):
        assert "mcctensor.verify" not in loaded
    # nothing imports the command module, which already runs as __main__
    for loaded in (apply, csv, dims, verify):
        assert "mcctensor.cli" not in loaded
