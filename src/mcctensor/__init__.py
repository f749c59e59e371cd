"""Exact F2 tensor-power calculus on dyadic towers, with solenoidal
sectors and the torus-algebra bimodule pipeline on top.

The subpackages stay importable on their own; this namespace just
re-exports the pieces most sessions start from.
"""

import types as _types

from .errors import (
    MccError,
    LabelMismatchError,
    SizeCapError,
    TowerValidationError,
    InvarianceError,
    StabilityError,
    DepthError,
    CompatibilityError,
    ChainingError,
    ZeroInputCycleError,
    CertificateError,
    CrossCheckError,
    ParseError,
)
from .f2cat import F2Matrix, LabeledSet, compose, tensor_power_finite
from .towers import DyadicTower, dyadic_solenoid, invariance_level, cc_sum
from .mcc import MccWindow, apply_mcc, staircase_position, quotient_class, sector_project, cc_probe
from .solenoidal import GraphBasis, GraphMorphism, fig8, e_S_project, apply_solenoidal, staircase_dims
from .floer import (
    TorusAlgebra,
    torus_algebra,
    DABimodule,
    delta_k,
    box_tensor,
    box_power,
    hochschild_generators,
    vanishing_certificate,
    derived_power_certificate,
    hfk_dimensions,
    cfda_tb_inv,
    cfda_ta,
    seed_box,
)

__version__ = "0.1.0"

# every name imported above, not the submodules the imports bind
__all__ = [_name for _name, _value in globals().items()
           if not _name.startswith("_") and not isinstance(_value, _types.ModuleType)]
__all__.append("__version__")
