"""
Design-optimization toolkit for single-stage planetary gearbox
actuators: given a motor envelope and a joint load case, enumerate all
feasible gearbox designs (internal ISSPG and external ESSPG layouts),
evaluate meshing efficiency and full actuator mass, and pick per
gear-ratio-bin optima under a mass/efficiency cost.
"""

from .efficiency import (EfficiencyBreakdown, EfficiencyParams,
                         loss_parameter, overall_efficiency)
from .geometry import (Architecture, ConstraintParams, GearboxDesign,
                       MotorSpec, STANDARD_MODULE_SET_MM,
                       constraint_failures, interference_margin_mm,
                       max_gearbox_diameter)
from .mass import (MassBreakdown, MassModelParams, MaterialSpec,
                   base_plate_mass, bearing_fit_report, bearing_value,
                   default_bearing_table_path, fit_bearing_model,
                   gearbox_stack_height_mm, load_bearing_model,
                   load_bearing_table, planet_pin_mass)
from .search import (BinResult, CostWeights, DesignEvaluation, EvalContext,
                     compare_architectures, default_bins, enumerate_feasible,
                     evaluate, optimize_bins, ranking_key, validate_bins)
from .strength import (LewisFormula, LoadCase, StrengthParams,
                       VelocityFormula, lewis_form_factor)

__version__ = "0.1.0"

__all__ = [
    "Architecture", "BinResult", "ConstraintParams", "CostWeights",
    "DesignEvaluation", "EfficiencyBreakdown", "EfficiencyParams",
    "EvalContext", "GearboxDesign", "LewisFormula", "LoadCase",
    "MassBreakdown", "MassModelParams", "MaterialSpec", "MotorSpec",
    "STANDARD_MODULE_SET_MM", "StrengthParams", "VelocityFormula",
    "base_plate_mass", "bearing_fit_report", "bearing_value",
    "compare_architectures", "constraint_failures",
    "default_bearing_table_path", "default_bins", "enumerate_feasible",
    "evaluate", "fit_bearing_model", "gearbox_stack_height_mm",
    "interference_margin_mm", "lewis_form_factor", "load_bearing_model",
    "load_bearing_table", "loss_parameter", "max_gearbox_diameter",
    "optimize_bins", "overall_efficiency", "planet_pin_mass",
    "ranking_key", "validate_bins",
]
