"""Dissipative preparation of a maximally entangled steady state of two
three-level atoms in a lossy optical cavity.

The package builds the full Lindblad model, reduces it to effective
ground-state dynamics by adiabatic elimination of the decaying excited
manifold, encodes the six preparation schemes, and reproduces their
fidelity and convergence benchmarks numerically and analytically.
"""

__version__ = "0.1.0"

from .hilbert import HilbertSpace, build_space, named_state
from .model import MasterEquation, SystemParams, make_space
from .liouville import (
    SpectrumReport,
    Trajectory,
    fidelity,
    mixed_ground_state,
    propagate,
    spectral_gap,
    steady_state,
    vectorize,
)
from .effective import EffectiveModel, GroundBasis, reduce, reduce_dressed
from .schemes import SchemeId, gap_analytic, preset, static_error
from .ratemodel import DressedBasis, RateMatrix, build_dressed_basis, build_rates

__all__ = [
    "HilbertSpace", "build_space", "named_state",
    "MasterEquation", "SystemParams", "make_space",
    "SpectrumReport", "Trajectory", "fidelity",
    "mixed_ground_state", "propagate", "spectral_gap", "steady_state",
    "vectorize",
    "EffectiveModel", "GroundBasis", "reduce", "reduce_dressed",
    "SchemeId", "gap_analytic", "preset", "static_error",
    "DressedBasis", "RateMatrix", "build_dressed_basis", "build_rates",
    "__version__",
]
