"""Deployment optimization over a binary visibility matrix.

Both problem flavors select a subset of candidate rows to maximize the total
weight of covered target columns: either under a procurement budget
(sum of selected costs <= C) or under a unit cap (number selected <= N).
A unit cap is solved as a budget over unit costs, so each solver has one
search loop for both.  With unit weights this is plain maximum coverage;
general weights express region priorities.  solve_exact is one
branch-and-bound pass over index sets in lexicographic order, on rows
packed into Python ints, globally optimal but limited to small candidate
counts; solve_greedy (Greedy+Max) scales to any size, with the classic
1 - 1/e guarantee under a unit cap and 1/2 under a budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .raycast import VisibilityGrid

EXACT_LIMIT_DEFAULT = 25

GREEDY_RATIO_CARDINALITY = 1.0 - 1.0 / math.e
GREEDY_RATIO_BUDGET = 0.5


class InstanceTooLargeError(ValueError):
    """Candidate count exceeds the exact-solver limit; the greedy has none."""


@dataclass(frozen=True)
class Budget:
    """Total selected cost must not exceed `limit` currency units."""

    limit: float


@dataclass(frozen=True)
class Cardinality:
    """At most `limit` candidates may be selected; `limit` is a whole number."""

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
        for name, values in (("weights", weights), ("costs", costs)):
            with np.errstate(over="ignore", invalid="ignore"):  # inf, or NaN from inf - inf
                total = values.sum()
            if not ((values >= 0).all() and total < math.inf):  # NaN fails this too
                raise ValueError(f"{name} must be >= 0 and total a finite number")
        if not 0 <= self.constraint.limit < math.inf:  # NaN fails this too
            raise ValueError("constraint limit must be finite and >= 0")
        if isinstance(self.constraint, Cardinality) and self.constraint.limit % 1:
            raise ValueError("unit cap must be a whole number")


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


def _as_budget(problem: DeploymentProblem) -> tuple[np.ndarray, float, float]:
    """Costs, limit and slack scale of the constraint: a unit cap is a budget
    over unit costs, and the scale min(1, limit) makes the solvers' 1e-12 and
    the verifier's 1e-9 slack relative below a limit of 1.  With an integer
    cap the solvers' `cost <= limit - spent + 1e-12 * scale` is `n_used < limit`."""
    limit = float(problem.constraint.limit)
    costs = problem.costs if isinstance(problem.constraint, Budget) else np.ones(problem.grid.rows)
    return costs, limit, min(1.0, limit)


def _pack(bits: np.ndarray) -> int:
    """A bool vector as a Python int, element j at bit j."""
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


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
            "the greedy solver has none")
    w, m = problem.weights, problem.grid.cols
    costs, cap, unit = _as_budget(problem)
    costs = costs.tolist()
    # A set of targets is an int, target j at bit j.  Its value is the sum
    # over the distinct positive weights v of v times its popcount within
    # the targets of weight v; with many distinct weights, a sum of per-byte
    # table lookups instead.  Measured on 24 candidates and 87 to 3077
    # targets, the popcounts are faster up to about 2 sqrt(nbytes) classes.
    rows = [_pack(row) for row in problem.grid.bits]
    nbytes = (m + 7) // 8
    classes = [(v, _pack(w == v)) for v in sorted(set(w[w > 0].tolist()))]
    if len(classes) == 1:
        # One weight (unit weights, say): one popcount, without the loop
        # over classes, which alone costs exact-small's pipeline ~20 %.
        (v, k), = classes

        def weigh(x: int) -> float:
            return v * (x & k).bit_count()
    elif len(classes) ** 2 <= 4 * nbytes:
        def weigh(x: int) -> float:
            return sum([v * (x & k).bit_count() for v, k in classes])
    else:
        byte_bits = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1,
                                  bitorder="little").astype(np.float64)
        padded = np.zeros(nbytes * 8)
        padded[:m] = w
        tables = (padded.reshape(nbytes, 8) @ byte_bits.T).tolist()

        def weigh(x: int) -> float:
            return sum(map(list.__getitem__, tables, x.to_bytes(nbytes, "little")))

    def float_value(x: int) -> float:
        """The value as the float sum over the mask, as _make_solution sums it."""
        bits = np.unpackbits(np.frombuffer(x.to_bytes(nbytes, "little"), np.uint8),
                             count=m, bitorder="little")
        return float(w[bits.view(bool)].sum())

    # Integer weights summing below 2**53 make every float sum exact, so
    # weigh gives float_value.  Otherwise the two differ by less than eps,
    # and float_value decides any comparison with best closer than that.
    total = float(w.sum())
    if (w == np.floor(w)).all() and total < 2.0**53:
        def beats(x: int) -> bool:
            """Whether the float value of set x exceeds best."""
            return weigh(x) > best
    else:
        eps = 4.0 * (m + 1) * 2.0**-53 * total

        def beats(x: int) -> bool:
            est = weigh(x)
            if est > best + eps:
                return True
            if est < best - eps:
                return False
            return float_value(x) > best

    # suffix[i] is the union of rows i.., min_cost[i] and max_cost[i] the
    # smallest and largest of their costs.
    suffix, min_cost, max_cost = [0] * (n + 1), [math.inf] * (n + 1), [-math.inf] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] | rows[i]
        min_cost[i] = min(min_cost[i + 1], costs[i])
        max_cost[i] = max(max_cost[i + 1], costs[i])
    best, best_sel = 0.0, ()

    # Depth-first over index sets, each extended only by larger indices,
    # including i before trying the sets that skip it: this pre-order visits
    # the sets in lexicographic order, so the first one to beat every
    # earlier value strictly is the lexicographically smallest optimum.
    def dfs(start: int, sel: list[int], covered: int, spent: float) -> None:
        nonlocal best, best_sel
        room = cap - spent + 1e-12 * unit
        if min_cost[start] > room:  # the bound is covered's own value, never above best
            return
        reach = suffix
        if max_cost[start] > room:  # union only the affordable rest
            reach = [0] * (n + 1)
            for j in range(n - 1, start - 1, -1):
                reach[j] = reach[j + 1] | rows[j] if costs[j] <= room else reach[j + 1]
        for i in range(start, n):
            # Every set below has value at most that of covering all that
            # the affordable rest touches; prune unless that beats best.
            if not beats(covered | reach[i]):
                return
            if costs[i] <= room:
                sel.append(i)
                with_i = covered | rows[i]
                if beats(with_i):
                    best, best_sel = float_value(with_i), tuple(sel)
                dfs(i + 1, sel, with_i, spent + costs[i])
                sel.pop()

    dfs(0, [], 0, 0.0)
    return _make_solution(problem, best_sel, "exact")


def solve_greedy(problem: DeploymentProblem) -> Solution:
    """Polynomial-time approximate solution (Greedy+Max).

    Repeatedly takes the affordable candidate with the largest marginal
    covered weight per unit cost: the classic 1 - 1/e greedy under a unit
    cap.  Each round also scores the selection plus the affordable candidate
    of largest gain, if that is not the pick; the first such set to beat the
    final selection replaces it, 1/2-optimal under a budget (Yaroslavtsev,
    Zhou and Avdiukhin, AISTATS 2020).  Ties go to the smallest index.
    """
    rows, w = problem.grid.bits, problem.weights
    costs, cap, unit = _as_budget(problem)
    covered = np.zeros(problem.grid.cols, dtype=bool)
    selected: list[int] = []
    spent, best, best_sel = 0.0, -1.0, []
    # Ratios rank on costs times 2**-e, cap = f * 2**e, e <= 0: exact, so in order.
    with np.errstate(over="ignore"):  # an unaffordable cost may scale to inf
        norm = np.ldexp(costs, -min(0, math.frexp(cap)[1]))
    while True:
        # einsum sums each row alone, so equal rows get equal gains and ties
        # really go to the smallest index; a BLAS matvec does not promise that.
        gains = np.einsum("ij,j->i", rows, w * ~covered)
        usable = (costs <= cap - spent + 1e-12 * unit) & (gains > 0)
        if not usable.any():
            break
        with np.errstate(over="ignore"):  # past the float range a ratio is inf: free
            per_cost = np.divide(gains, norm, out=np.zeros_like(gains), where=usable & (costs > 0))
        per_cost[usable & (costs == 0)] = np.inf
        pick, top = int(np.argmax(per_cost)), int(np.argmax(gains * usable))
        if top != pick and (value := float(w[covered | rows[top]].sum())) > best:
            best, best_sel = value, [*selected, top]
        selected.append(pick)
        covered |= rows[pick]
        spent += float(costs[pick])
    obj = float(w[covered].sum())
    if best > obj:
        selected, obj = best_sel, best

    afford = costs <= cap + 1e-12 * unit
    reachable = float(w[np.any(rows, axis=0, where=afford[:, None])].sum())
    ratio = (GREEDY_RATIO_CARDINALITY if isinstance(problem.constraint, Cardinality)
             else GREEDY_RATIO_BUDGET)
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
    each rule it breaks; never raises on bad entries or numbers.  The rules:
    `selected` and `covered` hold distinct plain ints (a bool is not one)
    within the candidates and the targets; `covered` is exactly what the
    selected rows see; `total_cost` is their cost (within 1e-9), which keeps
    to the budget (plus 1e-9, times the limit below 1), or their number to
    the unit cap; `objective`, `total_cost` and `optimality_bound` are
    finite; `objective` is exactly float(weights[covered mask].sum()), as
    every solver reports it, and at most `optimality_bound` plus 1e-9.
    `covered` may be any collection, such as a solution file's list, where
    true and 1 are two entries."""
    bad: list[str] = []
    valid = {}
    for key, entries, size in [("selected", solution.selected, problem.grid.rows),
                               ("covered", solution.covered, problem.grid.cols)]:
        ok = [i for i in entries if type(i) is int and 0 <= i < size]
        if len(ok) < len(entries):
            wrong = [i for i in entries if not (type(i) is int and 0 <= i < size)]
            bad.append(f"{key} indices out of range or not ints: {wrong!r}")
        valid[key] = frozenset(ok)
        if len(valid[key]) < len(ok):
            bad.append(f"{key} contains duplicate indices")
    sel, claimed = sorted(valid["selected"]), valid["covered"]

    true_mask = _covered_mask(problem.grid, sel)
    true_covered = frozenset(np.flatnonzero(true_mask).tolist())
    if claimed_not_visible := sorted(claimed - true_covered):
        bad.append("targets claimed covered but not visible to any selected candidate: "
                   f"{claimed_not_visible}")
    if visible_not_claimed := sorted(true_covered - claimed):
        bad.append(f"targets visible but missing from covered: {visible_not_claimed}")

    true_cost = float(problem.costs[sel].sum()) if sel else 0.0
    if not abs(true_cost - solution.total_cost) <= 1e-9:
        bad.append(f"total_cost {solution.total_cost} != recomputed {true_cost}")
    limit, unit = problem.constraint.limit, _as_budget(problem)[2]
    if isinstance(problem.constraint, Budget) and true_cost > limit + 1e-9 * unit:
        bad.append(f"budget exceeded: cost {true_cost} > limit {limit}")
    if isinstance(problem.constraint, Cardinality) and len(sel) > limit:
        bad.append(f"cardinality exceeded: {len(sel)} selected > limit {limit}")

    for key in ("objective", "total_cost", "optimality_bound"):
        if not math.isfinite(getattr(solution, key)):
            bad.append(f"{key} {getattr(solution, key)} is not finite")
    true_obj = float(problem.weights[true_mask].sum())
    if solution.objective != true_obj:
        bad.append(f"objective {solution.objective} != recomputed {true_obj}")
    if not solution.objective <= solution.optimality_bound + 1e-9:
        bad.append(f"objective {solution.objective} exceeds its own optimality bound "
                   f"{solution.optimality_bound}")
    return VerificationReport(ok=not bad, violations=tuple(bad))


def coverage_fraction(solution: Solution, weights: np.ndarray) -> float:
    """Covered weight as a fraction of all target weight."""
    total = float(np.asarray(weights, dtype=np.float64).sum())
    if total == 0:
        raise ValueError("coverage fraction undefined: total target weight is zero")
    return solution.objective / total
