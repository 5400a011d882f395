"""
Design-optimization toolkit for single-stage planetary gearbox
actuators: given a motor envelope and a joint load case, enumerate all
feasible gearbox designs (internal ISSPG and external ESSPG layouts),
evaluate meshing efficiency and full actuator mass, and pick per
gear-ratio-bin optima under a mass/efficiency cost.
"""

from .efficiency import (EfficiencyBreakdown, EfficiencyParams,
                         GeometryInfeasibleError, MeshKind, ModelRangeError,
                         basic_driving_efficiency, contact_ratios,
                         loss_parameter, overall_efficiency,
                         planetary_efficiency, tip_pressure_angle)
from .geometry import (Architecture, ConstraintParams, GearboxDesign,
                       GearRole, MotorSpec, STANDARD_MODULE_SET_MM,
                       base_diameter, constraint_failures,
                       interference_margin_mm, max_gearbox_diameter,
                       pitch_diameter, tip_diameter)
from .mass import (MassBreakdown, MassModelParams, MaterialSpec, actuator_mass,
                   base_plate_mass, bearing_fit_report, bearing_mass,
                   bearing_od, bearing_width, carrier_disk_od_mm,
                   casing_length_mm, casing_mass, default_bearing_table_path,
                   fit_bearing_model, gearbox_stack_height_mm,
                   load_bearing_model, load_bearing_table,
                   output_bearing_bore_mm, pin_circle_diameter_mm,
                   planet_pin_mass, ring_gear_mass, spur_gear_mass)
from .search import (BinResult, CostWeights, DesignEvaluation, EvalContext,
                     compare_architectures, default_bins, enumerate_feasible,
                     evaluate, optimize_bins, ranking_key, validate_bins)
from .strength import (LewisFormula, LoadCase, StrengthParams,
                       VelocityFormula, face_width, lewis_form_factor,
                       pitch_line_velocity_m_s, sun_pitch_radius_m,
                       tangential_force, velocity_factor)

__version__ = "0.1.0"

__all__ = [
    "Architecture", "BinResult", "ConstraintParams", "CostWeights",
    "DesignEvaluation", "EfficiencyBreakdown", "EfficiencyParams",
    "EvalContext", "GearboxDesign", "GearRole", "GeometryInfeasibleError",
    "LewisFormula", "LoadCase", "MassBreakdown", "MassModelParams",
    "MaterialSpec", "MeshKind", "ModelRangeError", "MotorSpec",
    "STANDARD_MODULE_SET_MM", "StrengthParams", "VelocityFormula",
    "actuator_mass", "base_diameter", "base_plate_mass",
    "basic_driving_efficiency", "bearing_fit_report", "bearing_mass",
    "bearing_od", "bearing_width", "carrier_disk_od_mm", "casing_length_mm",
    "casing_mass", "compare_architectures", "constraint_failures",
    "contact_ratios", "default_bearing_table_path", "default_bins",
    "enumerate_feasible", "evaluate", "face_width", "fit_bearing_model",
    "gearbox_stack_height_mm", "interference_margin_mm",
    "lewis_form_factor", "load_bearing_model", "load_bearing_table",
    "loss_parameter", "max_gearbox_diameter", "optimize_bins",
    "output_bearing_bore_mm", "overall_efficiency", "pin_circle_diameter_mm",
    "pitch_diameter", "pitch_line_velocity_m_s", "planet_pin_mass",
    "planetary_efficiency", "ranking_key", "ring_gear_mass", "spur_gear_mass",
    "sun_pitch_radius_m", "tangential_force", "tip_diameter",
    "tip_pressure_angle", "validate_bins", "velocity_factor",
]
