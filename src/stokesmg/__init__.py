"""Fourier smoothing analysis and geometric multigrid for the stabilized
collocated 2D Stokes discretization with two-color distributive Jacobi
relaxation."""

from .stencil import Frequency, Stencil2D, make_operator, symbol, apply_stencil
from .harmonics import (HarmonicPair, harmonics_of, jacobi_symbol, two_color_rep,
                        numerical_lfa_oracle, measure_periodic_smoothing)
from .smoothing import (SweepConfig, OneStageResult, SmoothingReport,
                        optimal_one_stage, one_stage_optimum, smoothing_factor)
from . import closedform
from .mgsolver import (StokesProblem, StokesState, CycleSpec, ConvergenceReport,
                       homogeneous_problem, manufactured_problem,
                       assemble_residual, distributive_two_color_sweep,
                       restrict, prolong, v_cycle, measure_convergence_factor)

__all__ = [
    "Frequency", "Stencil2D", "make_operator", "symbol", "apply_stencil",
    "HarmonicPair", "harmonics_of", "jacobi_symbol", "two_color_rep",
    "numerical_lfa_oracle", "measure_periodic_smoothing",
    "SweepConfig", "OneStageResult", "SmoothingReport", "optimal_one_stage",
    "one_stage_optimum", "smoothing_factor", "closedform",
    "StokesProblem", "StokesState", "CycleSpec", "ConvergenceReport",
    "homogeneous_problem", "manufactured_problem", "assemble_residual",
    "distributive_two_color_sweep", "restrict", "prolong", "v_cycle",
    "measure_convergence_factor",
]

__version__ = "0.1.0"
