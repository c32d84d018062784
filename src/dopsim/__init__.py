"""Degree-of-polarization measurement simulation.

Models a multi-spectral-line beam, its transport through fluctuating fiber
birefringence, and two virtual instruments: a time-averaging Stokes
polarimeter and a coherent pair-projection DOP meter built from two stacks
of walk-off-compensated nonlinear crystals.
"""

from .polcore import (
    DensityMatrix,
    DopsimError,
    InvariantError,
    NumericsError,
    PoincareVector,
    PureState,
    StokesVector,
    TwoPhotonOperator,
    UndefinedDirectionError,
    UndefinedDopError,
    brute_force_trace,
    check_pure_states,
    density_from_poincare,
    dop,
    mix,
    mixture_dop_many,
    poincare_angle,
    poincare_from_density,
    poincare_round_trip,
    rotate_poincare,
    rotate_poincare_many,
    rotation_unitary,
    singlet_probability,
    singlet_projector,
)

__version__ = "0.1.0"

__all__ = [
    "DensityMatrix",
    "DopsimError",
    "InvariantError",
    "NumericsError",
    "PoincareVector",
    "PureState",
    "StokesVector",
    "TwoPhotonOperator",
    "UndefinedDirectionError",
    "UndefinedDopError",
    "brute_force_trace",
    "check_pure_states",
    "density_from_poincare",
    "dop",
    "mix",
    "mixture_dop_many",
    "poincare_angle",
    "poincare_from_density",
    "poincare_round_trip",
    "rotate_poincare",
    "rotate_poincare_many",
    "rotation_unitary",
    "singlet_probability",
    "singlet_projector",
    "__version__",
]
