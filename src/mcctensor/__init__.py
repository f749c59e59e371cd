"""Exact F2 tensor-power calculus on dyadic towers, with solenoidal
sectors and the torus-algebra bimodule pipeline on top.

The subpackages stay importable on their own; this namespace just
re-exports the pieces most sessions start from.  A name is looked up in its
layer on each access (PEP 562), so importing the package loads no layer and
a command loads only the layers it runs.  Nothing is cached here: a
function replaced on its layer (a monkeypatch, a tracer) is what the package
name returns, and the original again once it is restored.
"""

import importlib

__version__ = "0.1.0"

# exported name -> the layer that defines it
_LAYERS = {
    "errors": (
        "MccError", "LabelMismatchError", "SizeCapError", "TowerValidationError",
        "InvarianceError", "DepthError", "CompatibilityError",
        "ChainingError", "ZeroInputCycleError", "CertificateError",
        "CrossCheckError", "ParseError",
    ),
    "f2cat": ("F2Matrix", "LabeledSet", "compose", "tensor_power_finite"),
    "towers": ("DyadicTower", "dyadic_solenoid", "invariance_level", "cc_sum"),
    "mcc": ("MccWindow", "apply_mcc", "staircase_position", "cc_probe"),
    "solenoidal": ("GraphBasis", "GraphMorphism", "fig8", "e_S_project",
                   "apply_solenoidal", "staircase_dims"),
    "floer": (
        "TorusAlgebra", "torus_algebra", "DABimodule", "box_tensor",
        "box_power", "hochschild_generators", "vanishing_certificate",
        "derived_power_certificate", "hfk_dimensions", "cfda_tb_inv", "cfda_ta",
        "seed_box",
    ),
}
_EXPORTS = {name: layer for layer, names in _LAYERS.items() for name in names}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    layer = _EXPORTS.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{layer}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
