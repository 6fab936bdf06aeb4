"""Dense two-phase primal simplex.

Standard-form solver used for every LP in the package (IPET longest-path
LPs, knapsack relaxations).  The problems are small (tens to a few hundred
variables), so a dense numpy tableau with Bland's anti-cycling rule is both
simple and dependable.  Results are cross-checked against
``scipy.optimize.linprog`` in the test suite.

Formulation accepted by :func:`solve_lp`::

    minimise    c @ x
    subject to  a_ub @ x <= b_ub
                a_eq @ x == b_eq
                lo <= x <= hi   (lo finite; hi may be +inf)

Internally variables are shifted to x' = x - lo >= 0 and finite upper
bounds become extra <= rows.
"""

from __future__ import annotations

import math

import numpy as np

from .model import EQ, GE, LE, Model, Solution, Status

_EPS = 1e-9
_BLAND_TRIGGER = 200  # fall back to Bland's rule after this many pivots


class _Tableau:
    """Simplex tableau: rows = constraints (+objective row last)."""

    def __init__(self, a, b, c):
        m, n = a.shape
        self.m, self.n = m, n
        self.t = np.zeros((m + 1, n + 1))
        self.t[:m, :n] = a
        self.t[:m, n] = b
        self.t[m, :n] = c
        self.basis = [-1] * m

    def pivot(self, row, col):
        t = self.t
        t[row] /= t[row, col]
        factors = t[:, col].copy()
        factors[row] = 0.0
        t -= np.outer(factors, t[row])
        t[:, col] = 0.0
        t[row, col] = 1.0
        self.basis[row] = col

    def run(self, max_iter=20000):
        """Optimise; returns a Status string."""
        t = self.t
        m, n = self.m, self.n
        for iteration in range(max_iter):
            costs = t[m, :n]
            if iteration < _BLAND_TRIGGER:
                col = int(np.argmin(costs))
                if costs[col] >= -_EPS:
                    return Status.OPTIMAL
            else:  # Bland: smallest index with negative reduced cost
                negatives = np.nonzero(costs < -_EPS)[0]
                if negatives.size == 0:
                    return Status.OPTIMAL
                col = int(negatives[0])
            column = t[:m, col]
            positive = column > _EPS
            if not positive.any():
                return Status.UNBOUNDED
            ratios = np.full(m, math.inf)
            ratios[positive] = t[:m, n][positive] / column[positive]
            if iteration < _BLAND_TRIGGER:
                row = int(np.argmin(ratios))
            else:  # Bland tie-break on smallest basis index
                best = ratios.min()
                ties = [r for r in range(m)
                        if ratios[r] <= best + _EPS]
                row = min(ties, key=lambda r: self.basis[r])
            self.pivot(row, col)
        return Status.ITERATION_LIMIT


def solve_lp(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, bounds=None,
             maximize=False):
    """Solve an LP; returns ``(status, x, objective)``.

    *bounds* is a list of ``(lo, hi)`` per variable; default ``(0, inf)``.
    """
    c = np.asarray(c, dtype=float)
    n = c.size
    a_ub = np.zeros((0, n)) if a_ub is None else np.asarray(a_ub, float)
    b_ub = np.zeros(0) if b_ub is None else np.asarray(b_ub, float)
    a_eq = np.zeros((0, n)) if a_eq is None else np.asarray(a_eq, float)
    b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq, float)
    if bounds is None:
        bounds = [(0.0, math.inf)] * n
    lo = np.array([b[0] for b in bounds], dtype=float)
    hi = np.array([b[1] for b in bounds], dtype=float)
    if not np.all(np.isfinite(lo)):
        raise ValueError("all lower bounds must be finite")
    if np.any(lo > hi):
        return Status.INFEASIBLE, None, math.nan

    sign = -1.0 if maximize else 1.0
    c_work = sign * c

    # Shift x = lo + y, y >= 0.
    b_ub_s = b_ub - a_ub @ lo if a_ub.size else b_ub
    b_eq_s = b_eq - a_eq @ lo if a_eq.size else b_eq
    shift_obj = float(c_work @ lo)

    # Finite upper bounds -> y_i <= hi_i - lo_i rows.
    ub_rows = []
    ub_rhs = []
    for i in range(n):
        if math.isfinite(hi[i]):
            row = np.zeros(n)
            row[i] = 1.0
            ub_rows.append(row)
            ub_rhs.append(hi[i] - lo[i])
    if ub_rows:
        a_ub_s = np.vstack([a_ub, np.array(ub_rows)]) if a_ub.size else \
            np.array(ub_rows)
        b_ub_s = np.concatenate([b_ub_s, np.array(ub_rhs)])
    else:
        a_ub_s = a_ub

    m_ub = a_ub_s.shape[0]
    m_eq = a_eq.shape[0]
    m = m_ub + m_eq

    # Rows with negative rhs are negated so b >= 0 (flips <= to >=, which
    # then needs a surplus + artificial; handled uniformly below).
    # Build the phase-1 tableau with slacks for <=, surplus+artificial for
    # >= (post-negation) and artificials for ==.
    rows = []
    rhs = []
    senses = []
    for i in range(m_ub):
        row = a_ub_s[i].copy()
        b_val = b_ub_s[i]
        if b_val < 0:
            rows.append(-row)
            rhs.append(-b_val)
            senses.append(GE)
        else:
            rows.append(row)
            rhs.append(b_val)
            senses.append(LE)
    for i in range(m_eq):
        row = a_eq[i].copy()
        b_val = b_eq_s[i]
        if b_val < 0:
            rows.append(-row)
            rhs.append(-b_val)
        else:
            rows.append(row)
            rhs.append(b_val)
        senses.append(EQ)

    n_slack = sum(1 for s in senses if s in (LE, GE))
    n_art = sum(1 for s in senses if s in (GE, EQ))
    total = n + n_slack + n_art

    a_full = np.zeros((m, total))
    art_cols = []
    slack_cursor = n
    art_cursor = n + n_slack
    for i, sense in enumerate(senses):
        a_full[i, :n] = rows[i]
        if sense == LE:
            a_full[i, slack_cursor] = 1.0
            slack_cursor += 1
        elif sense == GE:
            a_full[i, slack_cursor] = -1.0
            slack_cursor += 1
            a_full[i, art_cursor] = 1.0
            art_cols.append((i, art_cursor))
            art_cursor += 1
        else:
            a_full[i, art_cursor] = 1.0
            art_cols.append((i, art_cursor))
            art_cursor += 1
    b_full = np.asarray(rhs, dtype=float)

    # ---- phase 1: drive artificials to zero --------------------------------
    if art_cols:
        c1 = np.zeros(total)
        for _row, col in art_cols:
            c1[col] = 1.0
        tab = _Tableau(a_full, b_full, c1)
        # Initial basis: slacks for LE rows, artificials elsewhere.
        slack_cursor = n
        art_iter = iter(art_cols)
        for i, sense in enumerate(senses):
            if sense == LE:
                tab.basis[i] = slack_cursor
                slack_cursor += 1
            else:
                if sense == GE:
                    slack_cursor += 1
                tab.basis[i] = next(art_iter)[1]
        # Price out the initial basis in the cost row.
        for i in range(m):
            if c1[tab.basis[i]]:
                tab.t[tab.m] -= tab.t[i] * c1[tab.basis[i]]
        status = tab.run()
        if status != Status.OPTIMAL:
            return Status.INFEASIBLE, None, math.nan
        if -tab.t[tab.m, -1] > 1e-7:
            return Status.INFEASIBLE, None, math.nan
        # Pivot any artificial still in the basis out (degenerate rows).
        art_set = {col for _row, col in art_cols}
        for i in range(m):
            if tab.basis[i] in art_set:
                row_vals = tab.t[i, :n + n_slack]
                candidates = np.nonzero(np.abs(row_vals) > _EPS)[0]
                if candidates.size:
                    tab.pivot(i, int(candidates[0]))
        keep = n + n_slack
        a2 = np.zeros((m, keep))
        a2[:, :] = tab.t[:m, :keep]
        b2 = tab.t[:m, -1].copy()
        basis = [bi if bi < keep else -1 for bi in tab.basis]
    else:
        a2 = a_full
        b2 = b_full
        keep = total
        basis = list(range(n, n + n_slack))

    # ---- phase 2: original objective -----------------------------------------
    c2 = np.zeros(keep)
    c2[:n] = c_work
    tab = _Tableau(a2, b2, c2)
    tab.basis = basis
    for i in range(m):
        if tab.basis[i] >= 0 and c2[tab.basis[i]]:
            tab.t[tab.m] -= tab.t[i] * c2[tab.basis[i]]
    status = tab.run()
    if status == Status.UNBOUNDED:
        return Status.UNBOUNDED, None, math.nan
    if status != Status.OPTIMAL:
        return status, None, math.nan

    y = np.zeros(keep)
    for i in range(m):
        if tab.basis[i] >= 0:
            y[tab.basis[i]] = tab.t[i, -1]
    x = y[:n] + lo
    objective = float(c @ x)
    return Status.OPTIMAL, x, objective


def solve_lp_model(model: Model) -> Solution:
    """Solve a :class:`~repro.ilp.model.Model` as a pure LP."""
    n = len(model.vars)
    c = np.zeros(n)
    for index, coef in model.objective.items():
        c[index] = coef
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for coeffs, sense, rhs in model.constraints:
        row = np.zeros(n)
        for index, coef in coeffs.items():
            row[index] = coef
        if sense == LE:
            a_ub.append(row)
            b_ub.append(rhs)
        elif sense == GE:
            a_ub.append(-row)
            b_ub.append(-rhs)
        else:
            a_eq.append(row)
            b_eq.append(rhs)
    bounds = [(v.lo, v.hi) for v in model.vars]
    status, x, objective = solve_lp(
        c,
        np.array(a_ub) if a_ub else None,
        np.array(b_ub) if b_ub else None,
        np.array(a_eq) if a_eq else None,
        np.array(b_eq) if b_eq else None,
        bounds,
        maximize=model.maximize,
    )
    if status != Status.OPTIMAL:
        return Solution(status=status)
    values = {v.name: float(x[v.index]) for v in model.vars}
    return Solution(status=status, objective=objective, values=values)
