"""Numerical laboratory for central-system deformations of structure constants."""

__version__ = "0.1.0"

from .algebra_core import (MatrixPair, ResidualReport, StructTensor,
                           assoc_residual, pair_from_tensor, tensor_from_pair)
from .dda_registry import (DDASpec, SampledField, TensorGrid,
                           coisotropic_cs_residual, cs_residual, cs_residual_scan,
                           discrete_cs_residual, lookup, quantum_cs_residual)
from .integrators import MAX_STEPS, Trajectory
from .continuous_flows import (first_integrals, integrate, spectral_invariants,
                               state_from_entries)
from .reductions import (boussinesq_rhs_and_companions, chazy_rhs, chazy_second_integral,
                         elliptic_system, reconstruct_from_G)
from .closed_forms import SolutionFamily, eval_family, family_integrals, validate_family
from .discrete_flows import (MapState, Orbit, discrete_oriented_assoc_residual,
                             init_map_state, map_invariants, orbit, step)

__all__ = [
    "__version__",
    "MatrixPair", "ResidualReport", "StructTensor",
    "assoc_residual", "pair_from_tensor", "tensor_from_pair",
    "DDASpec", "SampledField", "TensorGrid", "lookup",
    "cs_residual", "cs_residual_scan", "quantum_cs_residual", "coisotropic_cs_residual",
    "discrete_cs_residual",
    "MAX_STEPS", "Trajectory", "first_integrals", "integrate",
    "spectral_invariants", "state_from_entries",
    "chazy_rhs", "chazy_second_integral",
    "reconstruct_from_G", "boussinesq_rhs_and_companions", "elliptic_system",
    "SolutionFamily", "eval_family", "family_integrals", "validate_family",
    "MapState", "Orbit", "init_map_state", "step", "orbit", "map_invariants",
    "discrete_oriented_assoc_residual",
]
