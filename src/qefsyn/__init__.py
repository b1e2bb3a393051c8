"""Risk-sensitive controller synthesis for linear quantum stochastic plants.

Frequency-domain evaluation of the quadratic-exponential cost growth rate,
its Frechet derivatives with respect to the controller matrices, a
time-domain integral-operator oracle, and a gradient-descent synthesis loop
initialised at the classical LQG controller.
"""

from qefsyn.model import (
    PlantSpec,
    DerivedPlant,
    ControllerParams,
    ClosedLoop,
    build_J,
    derive_plant,
    assemble_closed_loop,
)
from qefsyn.freq import (QuadratureConfig, qef_growth_rate, check_admissible,
                         is_hurwitz)
from qefsyn.gramians import lqg_cost, chi0
from qefsyn.grad import frechet_derivatives, optimality_residual
from qefsyn.synth import SynthesisConfig, lqg_controller, synthesize

__all__ = [
    "PlantSpec",
    "DerivedPlant",
    "ControllerParams",
    "ClosedLoop",
    "build_J",
    "derive_plant",
    "assemble_closed_loop",
    "is_hurwitz",
    "QuadratureConfig",
    "qef_growth_rate",
    "check_admissible",
    "lqg_cost",
    "chi0",
    "frechet_derivatives",
    "optimality_residual",
    "SynthesisConfig",
    "lqg_controller",
    "synthesize",
]
