"""Preconditioned primal-dual saddle-point solvers and benchmarks."""

from .exceptions import ConfigurationError
from .operators import (BirkhoffConstraint, DenseOperator, GridDivergence,
                        LinearOperator, SparseOperator, Transpose, VStack,
                        load_dense, load_sparse, spectral_norm_sq)
from .prox import (GroupL12, IndicatorLinfBall, IndicatorNonneg,
                   IndicatorSimplex, IndicatorSingleton, L1Norm, Linear,
                   Proximable, QuadraticShift, QuadraticShiftNonneg,
                   SeparableSum, Zero, moreau_conjugate_prox,
                   project_simplex)
from .metrics import (BlockDiagMetric, ConditionReport, DenseMetric,
                      DiagonalMetric, GramShiftMetric, Metric, SGSMetric,
                      ScalarMetric, build_diag_preconditioner,
                      check_condition, dense_sqrt, gram_shift_matrix)
from .solver import (SaddleProblem, SolveReport, SolverConfig,
                     configure_ebalm, configure_ebalm_sgs,
                     duality_gap_matrix_game, prepdhg_step, solve,
                     solve_batch, sublinear_diagnostic)
from .ipadmm import AdmmDriver, AdmmState, equivalence_harness
from .counterexamples import (ToyDynamics, classify, eig2,
                              rho2_boundary_scan)
from .problems import (ProblemInstance, birkhoff_projection, emd,
                       emd_lp_objective, game_matrix, load_grid, matrix_game,
                       matrix_game_equilibrium, oracle_solve,
                       project_birkhoff_dykstra, random_balanced_grids,
                       random_sparse_system, red_black_partition,
                       tv_least_squares)

__version__ = "0.1.0"
