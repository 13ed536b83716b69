"""Spectral tools for fractional Choquard groundstates and symmetric saddles.

The package solves (-Delta)^s u + u = (K_alpha * |u|^p) |u|^(p-2) u on a
periodic box with Fourier differentiation, constrained to symmetry classes
of signed reflection groups.  Public surface:

  params      problem data and admissibility checks
  coxeter     signed reflection groups acting on the grid
  spectral    grids, fractional Laplacian symbol, Riesz convolution, norms
  energy      action functional, gradient, Nehari algebra
  solver      projected minimization within a symmetry class
  analysis    nodal counts, decay fits, energy comparison tables
  extension   half-space harmonic extension energy audit
  fieldio     config files, and every file a run writes
"""

from .analysis import (
    NodalReport,
    TableRow,
    decay_exponent,
    energy_table,
    nodal_domains,
    sign_on_fundamental_domain,
    solve_level,
)
from .coxeter import (
    Chamber,
    CoxeterGroup,
    named_group,
)
from .energy import EnergyBreakdown, energy, gradient, interaction, nehari_energy
from .extension import YGrid, energy_identity_check, psi_profile
from .fieldio import ConfigError, load_config, read_field, write_field, write_report
from .params import ModelParams, admissible, critical_exponent, extension_constant, riesz_constant
from .solver import (
    CollapseToZero,
    Solution,
    SolverConfig,
    initial_guess,
    solve,
)
from .spectral import (
    Field,
    Grid,
    hs_norm_sq,
    l2_norm_sq,
    riesz_convolve,
    seminorm_sq,
)

__version__ = "0.1.0"

__all__ = [
    "Chamber",
    "CollapseToZero",
    "ConfigError",
    "CoxeterGroup",
    "EnergyBreakdown",
    "Field",
    "Grid",
    "ModelParams",
    "NodalReport",
    "Solution",
    "SolverConfig",
    "TableRow",
    "YGrid",
    "admissible",
    "critical_exponent",
    "decay_exponent",
    "energy",
    "energy_identity_check",
    "energy_table",
    "extension_constant",
    "gradient",
    "hs_norm_sq",
    "initial_guess",
    "interaction",
    "l2_norm_sq",
    "load_config",
    "named_group",
    "nehari_energy",
    "nodal_domains",
    "psi_profile",
    "read_field",
    "riesz_constant",
    "riesz_convolve",
    "seminorm_sq",
    "sign_on_fundamental_domain",
    "solve",
    "solve_level",
    "write_field",
    "write_report",
]
