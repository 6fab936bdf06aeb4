"""Branch & bound on top of the simplex LP relaxation.

Depth-first with best-bound pruning.  The ILPs in this package (0/1
knapsack, IPET flow problems) have strong LP relaxations — IPET constraint
matrices are network-flow-like and usually integral — so the tree stays
tiny; the solver nevertheless handles general bounded integer programs.
"""

from __future__ import annotations

import math

from .model import Model, Solution, Status
from .simplex import solve_lp_model

_INT_TOL = 1e-6


def _fractional_var(model, values):
    """Pick the integer variable whose value is most fractional."""
    worst = None
    worst_frac = _INT_TOL
    for var in model.vars:
        if not var.integer:
            continue
        value = values[var.name]
        frac = abs(value - round(value))
        if frac > worst_frac:
            worst_frac = frac
            worst = var
    return worst


def _with_bounds(model, overrides):
    """Clone *model* with per-variable (lo, hi) overrides applied."""
    clone = Model(model.name, model.maximize)
    for var in model.vars:
        lo, hi = overrides.get(var.index, (var.lo, var.hi))
        clone.add_var(var.name, lo=lo, hi=hi, integer=var.integer)
    clone.constraints = list(model.constraints)
    clone.objective = dict(model.objective)
    return clone


def solve_ilp(model: Model, max_nodes=20000) -> Solution:
    """Solve *model* to integer optimality by branch & bound.

    Running out of *max_nodes* with open nodes left is reported as
    ``ITERATION_LIMIT``, whatever incumbent was found by then.
    """
    incumbent = None
    incumbent_obj = -math.inf if model.maximize else math.inf

    def better(a, b):
        return a > b + 1e-9 if model.maximize else a < b - 1e-9

    stack = [{}]  # bound-override dicts
    nodes = 0

    while stack and nodes < max_nodes:
        overrides = stack.pop()
        nodes += 1
        relaxed = _with_bounds(model, overrides)
        solution = solve_lp_model(relaxed)
        if solution.status == Status.UNBOUNDED and nodes == 1:
            return Solution(status=Status.UNBOUNDED)
        if not solution.is_optimal:
            continue
        if incumbent is not None and not better(solution.objective,
                                                incumbent_obj):
            continue  # bound: relaxation can't beat the incumbent
        branch_var = _fractional_var(model, solution.values)
        if branch_var is None:
            # Integral: round off float fuzz and accept.
            values = {
                v.name: (round(solution.values[v.name]) if v.integer
                         else solution.values[v.name])
                for v in model.vars
            }
            if incumbent is None or better(solution.objective,
                                           incumbent_obj):
                incumbent = Solution(status=Status.OPTIMAL,
                                     objective=solution.objective,
                                     values=values)
                incumbent_obj = solution.objective
            continue
        value = solution.values[branch_var.name]
        lo, hi = overrides.get(branch_var.index,
                               (branch_var.lo, branch_var.hi))
        down = dict(overrides)
        down[branch_var.index] = (lo, math.floor(value))
        up = dict(overrides)
        up[branch_var.index] = (math.ceil(value), hi)
        stack.append(down)
        stack.append(up)

    if stack:
        # Open nodes remain: the incumbent is only a bound on the
        # optimum (a lower one when maximising), never the optimum.
        return Solution(status=Status.ITERATION_LIMIT)
    if incumbent is not None:
        return incumbent
    return Solution(status=Status.INFEASIBLE)
