"""Shared fixtures: the reference motor, load case, and model defaults."""

from pathlib import Path

import pytest
from hypothesis import settings

from gearboxopt import (ConstraintParams, CostWeights, EfficiencyParams,
                        EvalContext, LoadCase, MassModelParams, MaterialSpec,
                        MotorSpec, StrengthParams, load_bearing_model)

# fixed example sequence and no example database, so every run of the
# suite draws the same cases
settings.register_profile("deterministic", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("deterministic")

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

# T-motor U12 envelope used by the shipped example config
U12 = MotorSpec(outer_diameter_mm=105.6, stator_inner_diameter_mm=65.0,
                height_mm=46.5, mass_kg=0.765, max_torque_nm=3.0,
                max_speed_rad_s=418.9, name="U12")
U12_LOAD = LoadCase(sun_torque_nm=3.0, sun_speed_rad_s=418.9)


@pytest.fixture(scope="session")
def u12():
    return U12


@pytest.fixture(scope="session")
def u12_load():
    return U12_LOAD


@pytest.fixture(scope="session")
def bearing_model():
    return load_bearing_model()


@pytest.fixture(scope="session")
def default_ctx(bearing_model):
    return EvalContext(motor=U12, load=U12_LOAD,
                       constraints=ConstraintParams(),
                       efficiency=EfficiencyParams(),
                       strength=StrengthParams(),
                       materials=MaterialSpec(),
                       mass_params=MassModelParams(),
                       bearing=bearing_model,
                       cost=CostWeights())


@pytest.fixture(scope="session")
def u12_config_path():
    return CONFIG_DIR / "u12.yaml"
