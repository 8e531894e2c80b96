"""Deployment optimization over a binary visibility matrix.

Both problem flavors select a subset of candidate rows to maximize the total
weight of covered target columns: either under a procurement budget
(sum of selected costs <= C) or under a unit cap (number selected <= N).
With unit weights this is plain maximum coverage; general weights express
region priorities.  solve_exact is a branch-and-bound search, globally
optimal but limited to small candidate counts; solve_greedy scales to any
size with the classic 1 - 1/e marginal-gain guarantee in unit-cap mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .raycast import VisibilityGrid

EXACT_LIMIT_DEFAULT = 25

GREEDY_RATIO_CARDINALITY = 1.0 - 1.0 / math.e
GREEDY_RATIO_BUDGET = (1.0 - 1.0 / math.e) / 2.0


class InstanceTooLargeError(ValueError):
    """Candidate count exceeds the exact-solver limit; use solve_greedy."""


@dataclass(frozen=True)
class Budget:
    """Total selected cost must not exceed `limit` currency units."""

    limit: float


@dataclass(frozen=True)
class Cardinality:
    """At most `limit` candidates may be selected."""

    limit: int


Constraint = Union[Budget, Cardinality]


@dataclass(frozen=True)
class DeploymentProblem:
    grid: VisibilityGrid
    weights: np.ndarray  # (cols,) >= 0
    costs: np.ndarray  # (rows,) >= 0
    constraint: Constraint

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=np.float64)
        costs = np.asarray(self.costs, dtype=np.float64)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "costs", costs)
        if len(weights) != self.grid.cols:
            raise ValueError(
                f"dimension mismatch: {len(weights)} weights for {self.grid.cols} targets"
            )
        if len(costs) != self.grid.rows:
            raise ValueError(
                f"dimension mismatch: {len(costs)} costs for {self.grid.rows} candidates"
            )
        if (weights < 0).any():
            raise ValueError("weights must be >= 0")
        if (costs < 0).any():
            raise ValueError("costs must be >= 0")
        if self.constraint.limit < 0:
            raise ValueError("constraint limit must be >= 0")


@dataclass(frozen=True)
class Solution:
    selected: tuple[int, ...]  # ascending candidate indices
    covered: frozenset[int]
    objective: float
    total_cost: float
    method: str
    optimality_bound: float


def _covered_mask(grid: VisibilityGrid, selected) -> np.ndarray:
    mask = np.zeros(grid.cols, dtype=bool)
    for i in selected:
        mask |= grid.bits[i]
    return mask


def _make_solution(problem: DeploymentProblem, selected, method: str,
                   optimality_bound: float | None = None) -> Solution:
    selected = tuple(sorted(int(i) for i in selected))
    mask = _covered_mask(problem.grid, selected)
    objective = float(problem.weights[mask].sum())
    return Solution(
        selected=selected,
        covered=frozenset(np.flatnonzero(mask).tolist()),
        objective=objective,
        total_cost=float(problem.costs[list(selected)].sum()) if selected else 0.0,
        method=method,
        optimality_bound=objective if optimality_bound is None else optimality_bound,
    )


class _Search:
    """Shared machinery for the branch-and-bound phases.

    Candidates are explored in a fixed order of descending row weight per
    unit cost (ascending index on ties), which keeps runs reproducible and
    tightens the bound early.  Every objective is evaluated as a sum over
    the covered mask, never by accumulating gains, so phase 2 can hit the
    phase-1 optimum with a plain >= comparison; the search prunes keep a
    tiny slack to absorb summation-order noise in the bounds themselves.
    """

    def __init__(self, problem: DeploymentProblem):
        self.rows = problem.grid.bits
        self.w = problem.weights
        self.costs = problem.costs
        self.constraint = problem.constraint
        self.tol = 1e-12 * max(1.0, float(self.w.sum()))
        n = problem.grid.rows
        row_weight = (self.rows * self.w[None, :]).sum(axis=1) if n else np.zeros(0)
        with np.errstate(divide="ignore"):
            benefit = np.where(self.costs > 0, row_weight / self.costs, np.inf)
            benefit = np.where(row_weight == 0, 0.0, benefit)
        self.order = sorted(range(n), key=lambda i: (-benefit[i], i))

    def value(self, covered: np.ndarray) -> float:
        return float(self.w[covered].sum())

    def affordable(self, i: int, cost_used: float, n_used: int) -> bool:
        if isinstance(self.constraint, Budget):
            return self.costs[i] <= self.constraint.limit - cost_used + 1e-12
        return n_used < self.constraint.limit

    def upper_bound(self, covered: np.ndarray, cost_used: float,
                    n_used: int, remaining: list[int]) -> float:
        """Value if the affordable remainder covered everything it touches."""
        usable = [i for i in remaining if self.affordable(i, cost_used, n_used)]
        if not usable:
            return self.value(covered)
        return self.value(covered | self.rows[usable].any(axis=0))

    def best_value(self) -> float:
        """Phase 1: optimal objective value."""
        best = 0.0

        def dfs(pos: int, covered: np.ndarray, cost_used: float,
                n_used: int) -> None:
            nonlocal best
            val = self.value(covered)
            if val > best:
                best = val
            remaining = self.order[pos:]
            if not remaining:
                return
            if self.upper_bound(covered, cost_used, n_used, remaining) <= best:
                return
            i = self.order[pos]
            if self.affordable(i, cost_used, n_used):
                dfs(pos + 1, covered | self.rows[i],
                    cost_used + float(self.costs[i]), n_used + 1)
            dfs(pos + 1, covered, cost_used, n_used)

        dfs(0, np.zeros(self.rows.shape[1] if self.rows.size else 0, dtype=bool),
            0.0, 0)
        return best

    def can_reach(self, target: float, covered: np.ndarray,
                  cost_used: float, n_used: int, remaining: list[int]) -> bool:
        """Phase 2 feasibility: can the target objective still be attained."""
        if self.value(covered) >= target:
            return True
        if self.upper_bound(covered, cost_used, n_used, remaining) < target - self.tol:
            return False
        for k, i in enumerate(remaining):
            if not self.affordable(i, cost_used, n_used):
                continue
            if self.can_reach(target, covered | self.rows[i],
                              cost_used + float(self.costs[i]), n_used + 1,
                              remaining[k + 1:]):
                return True
            # Excluding i: the loop's next iteration handles it, but the
            # bound must be rechecked without i's contribution.
            if self.upper_bound(covered, cost_used, n_used,
                                remaining[k + 1:]) < target - self.tol:
                return False
        return False


def solve_exact(problem: DeploymentProblem, limit: int = EXACT_LIMIT_DEFAULT) -> Solution:
    """Globally optimal solution by branch-and-bound.

    Among all selections attaining the optimal objective, returns the
    lexicographically smallest index set (so reruns and platforms agree on
    one canonical answer).  Refuses instances with more candidates than
    `limit`; selecting nothing is always feasible, so a budget below every
    cost yields the empty solution rather than an error.
    """
    n = problem.grid.rows
    if n > limit:
        raise InstanceTooLargeError(
            f"{n} candidates exceeds the exact-solver limit of {limit}; "
            "use solve_greedy or raise the limit"
        )
    search = _Search(problem)
    opt = search.best_value()

    # Lexicographic reconstruction: walk candidate indices in ascending
    # order and include one exactly when the optimum stays reachable with
    # it; sets containing a smaller index always precede the alternatives.
    selected: list[int] = []
    covered = np.zeros(problem.grid.cols, dtype=bool)
    cost_used = 0.0
    order_pos = {i: p for p, i in enumerate(search.order)}
    for i in range(n):
        if search.value(covered) >= opt:
            break
        if not search.affordable(i, cost_used, len(selected)):
            continue
        suffix = sorted((j for j in range(i + 1, n)), key=order_pos.__getitem__)
        if search.can_reach(opt, covered | problem.grid.bits[i],
                            cost_used + float(problem.costs[i]),
                            len(selected) + 1, suffix):
            selected.append(i)
            covered |= problem.grid.bits[i]
            cost_used += float(problem.costs[i])
    assert search.value(covered) >= opt, "reconstruction missed the proven optimum"
    return _make_solution(problem, selected, "exact")


def _greedy_cardinality(problem: DeploymentProblem, limit: int) -> tuple[list[int], float]:
    rows, w = problem.grid.bits, problem.weights
    covered = np.zeros(problem.grid.cols, dtype=bool)
    selected: list[int] = []
    taken = np.zeros(problem.grid.rows, dtype=bool)
    while len(selected) < limit:
        gains = (rows & ~covered[None, :]) @ w
        gains[taken] = -1.0
        best = int(np.argmax(gains))  # first index wins ties
        if gains[best] <= 0:
            break
        selected.append(best)
        taken[best] = True
        covered |= rows[best]
    return selected, float(w[covered].sum())


def _greedy_budget(problem: DeploymentProblem, limit: float) -> tuple[list[int], float]:
    rows, w, costs = problem.grid.bits, problem.weights, problem.costs
    covered = np.zeros(problem.grid.cols, dtype=bool)
    selected: list[int] = []
    taken = np.zeros(problem.grid.rows, dtype=bool)
    spent = 0.0
    while True:
        gains = (rows & ~covered[None, :]) @ w
        usable = ~taken & (costs <= limit - spent + 1e-12) & (gains > 0)
        if not usable.any():
            break
        with np.errstate(divide="ignore"):
            ratio = np.where(usable & (costs > 0), gains / costs, 0.0)
            ratio = np.where(usable & (costs == 0), np.inf, ratio)
        best = int(np.argmax(ratio))
        selected.append(best)
        taken[best] = True
        covered |= rows[best]
        spent += float(costs[best])
    ratio_obj = float(w[covered].sum())

    # Safeguard: plain ratio greedy alone has an unbounded gap; taking the
    # better of it and the best affordable single candidate restores the
    # (1 - 1/e)/2 guarantee.
    single_gains = (rows * w[None, :]).sum(axis=1)
    single_gains[costs > limit + 1e-12] = -1.0
    best_single = int(np.argmax(single_gains))
    if single_gains[best_single] > ratio_obj:
        return [best_single], float(single_gains[best_single])
    return selected, ratio_obj


def solve_greedy(problem: DeploymentProblem) -> Solution:
    """Polynomial-time approximate solution.

    Unit-cap mode repeatedly takes the candidate with the largest marginal
    covered weight (the 1 - 1/e approximation).  Budget mode runs
    cost-benefit greedy and falls back to the best affordable singleton if
    that scores higher.  Ties always go to the smallest candidate index.
    """
    if isinstance(problem.constraint, Cardinality):
        selected, obj = _greedy_cardinality(problem, problem.constraint.limit)
        ratio = GREEDY_RATIO_CARDINALITY
        afford = np.ones(problem.grid.rows, dtype=bool)
        if problem.constraint.limit == 0:
            afford[:] = False
    else:
        selected, obj = _greedy_budget(problem, problem.constraint.limit)
        ratio = GREEDY_RATIO_BUDGET
        afford = problem.costs <= problem.constraint.limit + 1e-12
    if afford.any():
        reachable = float(problem.weights[problem.grid.bits[afford].any(axis=0)].sum())
    else:
        reachable = 0.0
    bound = 0.0 if obj <= 0 else min(reachable, obj / ratio)
    return _make_solution(problem, selected, "greedy", optimality_bound=bound)


def solve(problem: DeploymentProblem, method: str = "auto",
          exact_limit: int = EXACT_LIMIT_DEFAULT) -> Solution:
    """Solve with method "exact", "greedy" or "auto" (exact when the
    candidate count is within exact_limit, greedy otherwise)."""
    if method == "exact" or (method == "auto" and problem.grid.rows <= exact_limit):
        return solve_exact(problem, exact_limit)
    if method not in ("auto", "greedy"):
        raise ValueError(f"unknown solver method {method!r}")
    return solve_greedy(problem)


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    violations: tuple[str, ...]


def verify_solution(problem: DeploymentProblem, solution: Solution) -> VerificationReport:
    """Recompute everything a Solution claims from the raw matrix and flag
    every discrepancy.  Pure function; never raises on bad solutions."""
    bad: list[str] = []
    n, m = problem.grid.rows, problem.grid.cols
    sel = list(solution.selected)
    if len(set(sel)) != len(sel):
        bad.append("selected contains duplicate indices")
    out_of_range = [i for i in sel if not 0 <= i < n]
    if out_of_range:
        bad.append(f"selected indices out of range: {sorted(out_of_range)}")
        sel = [i for i in sel if 0 <= i < n]

    true_mask = _covered_mask(problem.grid, sel)
    true_covered = frozenset(np.flatnonzero(true_mask).tolist())
    claimed_not_visible = sorted(solution.covered - true_covered)
    visible_not_claimed = sorted(true_covered - solution.covered)
    if claimed_not_visible:
        bad.append(
            f"targets claimed covered but not visible to any selected candidate: "
            f"{claimed_not_visible}"
        )
    if visible_not_claimed:
        bad.append(f"targets visible but missing from covered: {visible_not_claimed}")

    true_cost = float(problem.costs[sel].sum()) if sel else 0.0
    if abs(true_cost - solution.total_cost) > 1e-9:
        bad.append(f"total_cost {solution.total_cost} != recomputed {true_cost}")
    if isinstance(problem.constraint, Budget):
        if true_cost > problem.constraint.limit + 1e-9:
            bad.append(
                f"budget exceeded: cost {true_cost} > limit {problem.constraint.limit}"
            )
    else:
        if len(sel) > problem.constraint.limit:
            bad.append(
                f"cardinality exceeded: {len(sel)} selected > limit "
                f"{problem.constraint.limit}"
            )

    true_obj = float(problem.weights[true_mask].sum())
    if abs(true_obj - solution.objective) > 1e-9:
        bad.append(f"objective {solution.objective} != recomputed {true_obj}")
    if solution.objective > solution.optimality_bound + 1e-9:
        bad.append(
            f"objective {solution.objective} exceeds its own optimality bound "
            f"{solution.optimality_bound}"
        )
    return VerificationReport(ok=not bad, violations=tuple(bad))


def coverage_fraction(solution: Solution, weights: np.ndarray) -> float:
    """Covered weight as a fraction of all target weight."""
    total = float(np.asarray(weights, dtype=np.float64).sum())
    if total == 0:
        raise ValueError("coverage fraction undefined: total target weight is zero")
    return solution.objective / total
