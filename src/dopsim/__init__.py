"""Degree-of-polarization measurement simulation.

Models a multi-spectral-line beam, its transport through fluctuating fiber
birefringence, and two virtual instruments: a time-averaging Stokes
polarimeter and a coherent pair-projection DOP meter built from two stacks
of walk-off-compensated nonlinear crystals.
"""

from .polcore import (
    DopsimError,
    InvariantError,
    NumericsError,
    UndefinedDirectionError,
    brute_force_trace,
    check_pure_states,
    mixture_dop_many,
    poincare_round_trip,
    rotate_poincare_many,
)

__version__ = "0.1.0"

__all__ = [
    "DopsimError",
    "InvariantError",
    "NumericsError",
    "UndefinedDirectionError",
    "brute_force_trace",
    "check_pure_states",
    "mixture_dop_many",
    "poincare_round_trip",
    "rotate_poincare_many",
    "__version__",
]
