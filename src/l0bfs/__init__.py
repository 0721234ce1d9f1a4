"""Exact cardinality-constrained minimization by best-first search.

Solves  min_x  L(Ax) + (lam/2) ||x||^2  subject to  ||x||_0 <= k
for quadratic, huber and logistic losses, with a certified optimality gap.
"""

from .baselines import htp, iht, omp
from .instances import (GeneratedInstance, GenSpec, default_n, generate,
                        load_instance, pssr, save_instance)
from .linalg import spectral_norm, top_norm, truncate_top
from .losses import HuberLoss, LogisticLoss, Loss, QuadraticLoss, make_loss
from .restricted import (ConvergenceError, Instance, RestrictedSolution,
                         solve_restricted, solve_restricted_batch)
from .search import SolveReport, bfs_solve, exhaustive_solve
from .state_space import Node, is_node, root_node
from .subtree import (DUAL_BOUND, EXACT, PRUNED, BoundResult, DualState,
                      SolverConfig, dual_value, pdal_maximize, pdal_root_state,
                      sga_maximize, sga_root_state, subtree_solve)
from .topk_prox import prox_topk_sq, prox_topk_sq_conjugate

__version__ = "0.1.0"

__all__ = [
    "DUAL_BOUND", "EXACT", "PRUNED",
    "BoundResult", "ConvergenceError", "DualState",
    "GenSpec", "GeneratedInstance", "HuberLoss", "Instance", "LogisticLoss",
    "Loss", "Node", "QuadraticLoss", "RestrictedSolution", "SolveReport",
    "SolverConfig", "bfs_solve", "default_n", "dual_value",
    "exhaustive_solve", "generate", "htp", "iht", "is_node", "load_instance",
    "make_loss", "omp", "pdal_maximize", "pdal_root_state", "prox_topk_sq",
    "prox_topk_sq_conjugate", "pssr", "root_node", "save_instance",
    "sga_maximize", "sga_root_state", "solve_restricted",
    "solve_restricted_batch", "spectral_norm",
    "subtree_solve", "top_norm", "truncate_top",
]
