"""The package namespace: what `from mcctensor import *` exports."""

import types

import mcctensor

EXPORTS = {
    "MccError", "LabelMismatchError", "SizeCapError", "TowerValidationError",
    "InvarianceError", "StabilityError", "DepthError", "CompatibilityError",
    "ChainingError", "ZeroInputCycleError", "CertificateError", "CrossCheckError",
    "ParseError",
    "F2Matrix", "LabeledSet", "compose", "tensor_power_finite",
    "DyadicTower", "dyadic_solenoid", "invariance_level", "cc_sum",
    "MccWindow", "apply_mcc", "staircase_position", "quotient_class",
    "sector_project", "cc_probe",
    "GraphBasis", "GraphMorphism", "fig8", "e_S_project", "apply_solenoidal",
    "staircase_dims",
    "TorusAlgebra", "torus_algebra", "DABimodule", "delta_k", "box_tensor",
    "box_power", "hochschild_generators", "vanishing_certificate",
    "derived_power_certificate", "hfk_dimensions", "cfda_tb_inv", "cfda_ta",
    "seed_box",
    "__version__",
}


def test_all_is_the_imported_names():
    assert len(mcctensor.__all__) == len(EXPORTS) == 47
    assert set(mcctensor.__all__) == EXPORTS
    assert not any(isinstance(getattr(mcctensor, n), types.ModuleType)
                   for n in mcctensor.__all__)

