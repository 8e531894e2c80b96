import itertools
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import exhaustive_best, random_instance, reference_exact, reference_greedy
from lidarplan import (
    Budget,
    Cardinality,
    DeploymentProblem,
    InstanceTooLargeError,
    Solution,
    VisibilityGrid,
    coverage_fraction,
    solve_exact,
    solve_greedy,
    verify_solution,
)

GREEDY_RATIO = 1.0 - 1.0 / math.e


def problem(rows, weights=None, costs=None, constraint=Cardinality(1)):
    rows = np.asarray(rows, dtype=bool)
    if weights is None:
        weights = np.ones(rows.shape[1])
    if costs is None:
        costs = np.ones(rows.shape[0])
    grid = VisibilityGrid(bits=rows, delta=1.0)
    return DeploymentProblem(grid, weights, costs, constraint)


# the worked 3-candidate instance: rows over targets t1..t4
THREE = [
    [1, 1, 1, 0],  # covers t1,t2,t3
    [0, 0, 1, 1],  # covers t3,t4
    [1, 0, 0, 1],  # covers t1,t4
]


def test_exact_three_candidate_example():
    sol = solve_exact(problem(THREE, constraint=Cardinality(1)))
    assert sol.selected == (0,)
    assert sol.objective == 3.0
    assert sol.covered == frozenset({0, 1, 2})
    assert sol.method == "exact"
    assert sol.optimality_bound == sol.objective


def test_exact_zero_budget_selects_nothing():
    sol = solve_exact(problem(THREE, constraint=Budget(0.0)))
    assert sol.selected == ()
    assert sol.objective == 0.0
    assert sol.total_cost == 0.0


def test_exact_unaffordable_budget_selects_nothing():
    sol = solve_exact(problem(THREE, costs=[5, 5, 5], constraint=Budget(4.0)))
    assert sol.selected == ()
    assert sol.objective == 0.0


def test_exact_all_ones_picks_first_candidate():
    rows = np.ones((4, 6), dtype=bool)
    weights = np.array([1.0, 2.0, 0.5, 3.0, 1.5, 2.0])
    sol = solve_exact(problem(rows, weights=weights, constraint=Cardinality(1)))
    assert sol.objective == weights.sum()
    assert sol.selected == (0,)  # smallest index among equal optima


def test_exact_prefers_lexicographically_smallest_set():
    # {0} and {2} both reach the optimum; {0} wins
    rows = [[1, 1, 0], [1, 0, 0], [1, 1, 0]]
    sol = solve_exact(problem(rows, constraint=Cardinality(2)))
    assert sol.objective == 2.0
    assert sol.selected == (0,)
    # a shorter set beats any longer set starting with the same index
    rows = [[1, 1, 1], [0, 1, 1]]
    sol = solve_exact(problem(rows, constraint=Cardinality(2)))
    assert sol.selected == (0,)  # not (0, 1): (0,) < (0, 1) lexicographically


def test_exact_lexicographic_vs_all_subsets(rng):
    # cross-check the tiebreak itself against sorted subset enumeration;
    # integer weights and costs in halves keep every sum exact, so ties
    # are real ties, and duplicate rows make the bound tie the incumbent
    for trial in range(160):
        n = int(rng.integers(1, 8))
        m = int(rng.integers(1, 12))
        rows = rng.random((n, m)) < 0.45
        if n > 1 and trial % 4 == 0:
            rows[rng.integers(0, n, n)] = rows[rng.integers(0, n)]
        weights = rng.integers(0, 4, m).astype(float)
        costs = np.ones(n)
        if trial % 2:
            costs = [
                rng.integers(0, 4, n) / 2.0,  # zero and non-unit costs
                np.full(n, 1.5),  # equal costs
                rng.integers(0, 2, n) * 3.0,  # zero or one price
            ][trial % 3]
            constraint = Budget(int(rng.integers(0, 2 * costs.sum() + 2)) / 2.0)
        else:
            constraint = Cardinality(int(rng.integers(0, n + 1)))
        prob = problem(rows, weights=weights, costs=costs, constraint=constraint)
        sol = solve_exact(prob)
        best_obj = -1.0
        best_set = None
        for size in range(0, n + 1):
            for combo in itertools.combinations(range(n), size):
                if isinstance(constraint, Budget):
                    if costs[list(combo)].sum() > constraint.limit:
                        continue
                elif size > constraint.limit:
                    continue
                covered = np.zeros(m, dtype=bool)
                for i in combo:
                    covered |= rows[i]
                obj = float(weights[covered].sum())
                if obj > best_obj + 1e-12:
                    best_obj, best_set = obj, combo
                elif abs(obj - best_obj) <= 1e-12 and combo < best_set:
                    best_set = combo
        assert math.isclose(sol.objective, best_obj, abs_tol=1e-9)
        assert sol.selected == best_set


def test_exact_matches_exhaustive_oracle(rng):
    for _ in range(150):
        rows, weights, costs, budget, count = random_instance(rng, 10, 30)
        for constraint in (budget, count):
            prob = problem(rows, weights=weights, costs=costs, constraint=constraint)
            sol = solve_exact(prob)
            want = exhaustive_best(rows, weights, costs, constraint)
            assert math.isclose(sol.objective, want, rel_tol=1e-12, abs_tol=1e-9)
            assert verify_solution(prob, sol).ok


WEIGHT_KINDS = {  # a weight per target; "uniform" draws a seed for rng.uniform
    "integer": st.integers(0, 9).map(float),
    "tenths": st.integers(0, 30).map(lambda k: k * 0.1),
    "levels": st.sampled_from([0.0, 0.1, 0.2, 0.3]),
    "priority": st.sampled_from([0.0, 1.0, 10.0]),
}


@st.composite
def instances(draw):
    n, m = draw(st.integers(0, 12)), draw(st.integers(1, 80))
    rows = np.array(draw(st.lists(st.lists(st.booleans(), min_size=m, max_size=m),
                                  min_size=n, max_size=n)), dtype=bool).reshape(n, m)
    if n:
        for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                  max_size=3)):
            rows[a] = rows[b]
    kind = draw(st.sampled_from(["uniform", *WEIGHT_KINDS]))
    if kind == "uniform":
        weights = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(0.0, 10.0, m)
    else:
        weights = np.array(draw(st.lists(WEIGHT_KINDS[kind], min_size=m, max_size=m)))
    costs = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.5, 4.0]), min_size=n, max_size=n))
    constraint = draw(st.one_of(st.integers(0, 40).map(lambda k: Budget(k / 4)),
                                st.integers(0, n).map(Cardinality)))
    return problem(rows, weights=weights, costs=costs, constraint=constraint)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(prob=instances())
def test_exact_matches_reference_search(prob):
    sol = solve_exact(prob)
    assert (sol.selected, sol.objective, sol.covered, sol.total_cost) == reference_exact(prob)


@pytest.mark.parametrize("padding", [0, 124])
def test_exact_near_tie_follows_the_float_mask_sum(padding):
    # targets of weight 0.3, 0.2, 0.1 sum to 0.6 in mask order, but to
    # 0.6000000000000001 in ascending weight order; candidate 1 covers them
    # and must not beat candidate 0's single target of weight 0.6.
    # Zero-weight padding moves the search from per-byte tables to
    # per-weight popcounts.
    assert 0.3 + 0.2 + 0.1 == 0.6 < 0.1 + 0.2 + 0.3
    weights = [0.3, 0.2, 0.1, 0.6] + [0.0] * padding
    rows = np.zeros((2, len(weights)), dtype=bool)
    rows[0, 3] = rows[1, :3] = True
    prob = problem(rows, weights=weights, constraint=Cardinality(1))
    sol = solve_exact(prob)
    assert sol.selected == (0,)
    assert (sol.selected, sol.objective, sol.covered, sol.total_cost) == reference_exact(prob)


def test_exact_refuses_large_instances():
    rows = np.ones((30, 4), dtype=bool)
    with pytest.raises(InstanceTooLargeError, match="greedy"):
        solve_exact(problem(rows, constraint=Cardinality(2)))
    # explicit higher limit lets it through
    sol = solve_exact(problem(rows, constraint=Cardinality(2)), limit=30)
    assert sol.objective == 4.0


def test_exact_monotone_in_constraint(rng):
    for _ in range(25):
        rows, weights, costs, _, _ = random_instance(rng, 9, 25)
        objs = [
            solve_exact(problem(rows, weights=weights, costs=costs,
                                constraint=Cardinality(k))).objective
            for k in range(0, rows.shape[0] + 1)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(objs, objs[1:]))
        limits = np.linspace(0, float(costs.sum()), 6)
        objs = [
            solve_exact(problem(rows, weights=weights, costs=costs,
                                constraint=Budget(float(c)))).objective
            for c in limits
        ]
        assert all(a <= b + 1e-12 for a, b in zip(objs, objs[1:]))


def test_unit_weights_equal_unweighted_count(rng):
    # the weighted solver with w = 1 must reproduce plain covered-count
    # optimization: same objective as the cardinality oracle counting bits,
    # and identical selection whether weights come in as ints or floats
    for _ in range(60):
        rows, _, costs, budget, count = random_instance(rng, 9, 25)
        ones_f = np.ones(rows.shape[1], dtype=np.float64)
        ones_i = np.ones(rows.shape[1], dtype=np.int64)
        for constraint in (budget, count):
            a = solve_exact(problem(rows, weights=ones_f, costs=costs, constraint=constraint))
            b = solve_exact(problem(rows, weights=ones_i, costs=costs, constraint=constraint))
            assert a.objective == b.objective
            assert a.selected == b.selected
            assert a.objective == float(len(a.covered))
            want = exhaustive_best(rows, ones_f, costs, constraint)
            assert a.objective == want


def test_weight_scaling_invariance(rng):
    for _ in range(30):
        rows, weights, costs, budget, count = random_instance(rng, 8, 20)
        lam = float(rng.uniform(0.1, 9.0))
        for constraint in (budget, count):
            base = solve_exact(problem(rows, weights=weights, costs=costs, constraint=constraint))
            scaled = solve_exact(
                problem(rows, weights=weights * lam, costs=costs, constraint=constraint)
            )
            assert math.isclose(scaled.objective, lam * base.objective,
                                rel_tol=1e-9, abs_tol=1e-9)
            assert scaled.selected == base.selected


def test_greedy_three_candidate_example():
    sol = solve_greedy(problem(THREE, constraint=Cardinality(2)))
    assert sol.selected == (0, 1)  # second pick ties 1 vs 2, index wins
    assert sol.objective == 4.0
    assert sol.method == "greedy"


def test_greedy_stops_at_zero_gain():
    rows = [[1, 1, 1], [1, 0, 0], [0, 1, 0]]
    sol = solve_greedy(problem(rows, constraint=Cardinality(5)))
    assert sol.selected == (0,)  # nothing left to gain after the first pick


def test_greedy_zero_cap_empty():
    sol = solve_greedy(problem(THREE, constraint=Cardinality(0)))
    assert sol.selected == ()
    assert sol.objective == 0.0
    assert sol.optimality_bound == 0.0


def test_no_candidates_gives_empty_solution():
    for constraint in (Cardinality(2), Budget(5.0)):
        prob = problem(np.zeros((0, 3), dtype=bool), constraint=constraint)
        for solve in (solve_exact, solve_greedy):
            sol = solve(prob)
            assert sol.selected == ()
            assert sol.objective == 0.0
            assert sol.optimality_bound == 0.0
            assert verify_solution(prob, sol).ok


def test_greedy_cardinality_matches_textbook_loop(rng):
    # the plain marginal-gain greedy, written out: the unit cap must behave
    # exactly like this, bound included
    for trial in range(300):
        rows, weights, costs, _, count = random_instance(rng, 15, 60)
        n, k = rows.shape[0], count.limit
        # integer weights keep every gain exact in any summation order, so
        # the loop below breaks ties, duplicate rows included, like the solver
        exact_sums = trial % 2 == 0
        if exact_sums:
            weights = np.floor(weights)
            if trial % 4 == 0:
                rows[rng.integers(0, n, n)] = rows[rng.integers(0, n)]
        sol = solve_greedy(problem(rows, weights=weights, costs=costs, constraint=count))

        # the bound divides the covered-mask objective; a singleton fallback
        # would divide a row sum, which can differ from it in the last bit
        reachable = float(weights[rows.any(axis=0)].sum()) if k else 0.0
        bound = min(reachable, sol.objective / GREEDY_RATIO) if sol.objective > 0 else 0.0
        assert sol.optimality_bound == bound
        if not exact_sums:
            continue
        selected, covered = [], np.zeros(rows.shape[1], dtype=bool)
        while len(selected) < k:
            gains = [float(weights[rows[i] & ~covered].sum()) for i in range(n)]
            best = max(range(n), key=lambda i: (gains[i], -i))
            if gains[best] <= 0:
                break
            selected.append(best)
            covered |= rows[best]
        assert sol.selected == tuple(sorted(selected))
        assert sol.objective == float(weights[covered].sum())


def test_greedy_ties_on_equal_rows_go_to_smallest_index():
    # fractional weights: equal rows must still get equal gains, so the
    # first pick is never a later copy of an earlier row
    rng = np.random.default_rng(11)
    for _ in range(200):
        rows = rng.random((10, 200)) < 0.6
        rows[rng.integers(0, 10, 10)] = rows[rng.integers(0, 10)]
        weights = rng.random(200) * 10
        first = solve_greedy(problem(rows, weights=weights)).selected[0]
        assert not any((rows[i] == rows[first]).all() for i in range(first))


def test_greedy_zero_cost_candidate_without_gain_is_silent():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve_greedy(problem([[1, 1], [0, 0]], costs=[1, 0], constraint=Budget(1.0)))
    assert sol.selected == (0,)
    assert sol.objective == 2.0


def test_greedy_ratio_bound_cardinality(rng):
    worst = 1.0
    for _ in range(200):
        rows, weights, costs, _, count = random_instance(rng, 15, 60)
        prob = problem(rows, weights=weights, costs=costs, constraint=count)
        greedy = solve_greedy(prob)
        exact = exhaustive_best(rows, weights, costs, count)
        assert verify_solution(prob, greedy).ok
        if exact > 0:
            ratio = greedy.objective / exact
            worst = min(worst, ratio)
            assert ratio >= GREEDY_RATIO - 1e-9
    assert worst >= GREEDY_RATIO - 1e-9


def test_greedy_budget_singleton_safeguard():
    # ratio greedy grabs the cheap candidate and strands the budget; the
    # expensive single candidate is the right answer
    rows = [[1, 0, 0, 0, 0], [1, 1, 1, 1, 1]]
    costs = [1.0, 10.0]
    prob = problem(rows, costs=costs, constraint=Budget(10.0))
    sol = solve_greedy(prob)
    assert sol.selected == (1,)
    assert sol.objective == 5.0


def test_greedy_budget_never_overspends(rng):
    for _ in range(80):
        rows, weights, costs, budget, _ = random_instance(rng, 12, 30)
        prob = problem(rows, weights=weights, costs=costs, constraint=budget)
        sol = solve_greedy(prob)
        assert sol.total_cost <= budget.limit + 1e-9
        assert verify_solution(prob, sol).ok


def test_greedy_bound_is_valid_upper_bound(rng):
    for _ in range(60):
        rows, weights, costs, budget, count = random_instance(rng, 10, 30)
        for constraint in (budget, count):
            prob = problem(rows, weights=weights, costs=costs, constraint=constraint)
            sol = solve_greedy(prob)
            opt = exhaustive_best(rows, weights, costs, constraint)
            assert sol.objective <= opt + 1e-9
            assert opt <= sol.optimality_bound + 1e-9


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(prob=instances())
def test_greedy_against_reference_greedy(prob):
    # integer, fractional and zero weights, duplicate rows and zero costs
    sol, ref = solve_greedy(prob), reference_greedy(prob)
    assert verify_solution(prob, sol).ok
    if isinstance(prob.constraint, Cardinality):
        assert ((sol.selected, sol.objective, sol.optimality_bound)
                == (ref.selected, ref.objective, ref.optimality_bound))
        return
    opt = solve_exact(prob).objective
    assert sol.objective >= ref.objective
    assert sol.objective >= 0.5 * opt
    assert sol.optimality_bound >= opt
    assert sol.optimality_bound >= sol.objective


def test_greedy_max_beats_the_best_singleton():
    # ratio picks 0 then 1 (cover 2 for cost 2); row 2 alone covers 3, and
    # the selection so far plus row 2 after the first pick covers 4
    rows = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 1, 1, 1]]
    prob = problem(rows, costs=[1.0, 1.0, 3.0], constraint=Budget(4.0))
    assert reference_greedy(prob).objective == 3.0
    sol = solve_greedy(prob)
    assert (sol.selected, sol.objective, sol.optimality_bound) == ((0, 2), 4.0, 4.0)


def test_solvers_never_copy_the_visibility_matrix():
    rng = np.random.default_rng(11)
    bits = rng.integers(0, 100, (400, 20_000), dtype=np.uint8) == 0
    grid = VisibilityGrid(bits=bits, delta=1.0)
    weights, costs = rng.uniform(0.0, 10.0, grid.cols), rng.uniform(1.0, 20.0, grid.rows)
    for constraint in (Cardinality(16), Budget(25.0)):
        prob = DeploymentProblem(grid, weights, costs, constraint)
        tracemalloc.start()
        try:
            sol = solve_greedy(prob)
            greedy_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            report = verify_solution(prob, sol)
            verify_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.ok and len(sol.selected) > 1
        assert greedy_peak < grid.bits.nbytes / 4, constraint
        assert verify_peak < grid.bits.nbytes / 4, constraint


def test_problem_validates_dimensions():
    grid = VisibilityGrid(bits=np.ones((2, 3), dtype=bool), delta=1.0)
    with pytest.raises(ValueError, match="dimension mismatch"):
        DeploymentProblem(grid, np.ones(4), np.ones(2), Cardinality(1))
    with pytest.raises(ValueError, match="dimension mismatch"):
        DeploymentProblem(grid, np.ones(3), np.ones(5), Cardinality(1))
    with pytest.raises(ValueError):
        DeploymentProblem(grid, -np.ones(3), np.ones(2), Cardinality(1))
    with pytest.raises(ValueError):
        DeploymentProblem(grid, np.ones(3), np.ones(2), Cardinality(-1))


@pytest.mark.parametrize("constraint", [Budget(math.nan), Budget(math.inf),
                                        Cardinality(math.inf)])
def test_problem_rejects_non_finite_limits(constraint):
    grid = VisibilityGrid(bits=np.ones((2, 3), dtype=bool), delta=1.0)
    with pytest.raises(ValueError, match="finite"):
        DeploymentProblem(grid, np.ones(3), np.ones(2), constraint)


def test_problem_rejects_a_fractional_unit_cap():
    grid = VisibilityGrid(bits=np.ones((2, 3), dtype=bool), delta=1.0)
    with pytest.raises(ValueError, match="whole number"):
        DeploymentProblem(grid, np.ones(3), np.ones(2), Cardinality(3.5))
    DeploymentProblem(grid, np.ones(3), np.ones(2), Cardinality(3.0))  # solution.json's float


def test_problem_rejects_nan_weights_and_costs():
    grid = VisibilityGrid(bits=np.ones((2, 3), dtype=bool), delta=1.0)
    with pytest.raises(ValueError, match="weights must be >= 0"):
        DeploymentProblem(grid, [1.0, math.nan, 1.0], np.ones(2), Cardinality(1))
    with pytest.raises(ValueError, match="costs must be >= 0"):
        DeploymentProblem(grid, np.ones(3), [math.nan, 1.0], Budget(1.0))


def test_problem_rejects_weights_and_costs_totalling_inf():
    grid = VisibilityGrid(bits=np.ones((2, 3), dtype=bool), delta=1.0)
    with pytest.raises(ValueError, match="weights must be >= 0 and total a finite number"):
        DeploymentProblem(grid, [1e308, 1e308, 1.0], np.ones(2), Cardinality(1))
    with pytest.raises(ValueError, match="weights must be >= 0 and total a finite number"):
        DeploymentProblem(grid, [math.inf, 1.0, 1.0], np.ones(2), Cardinality(1))
    with pytest.raises(ValueError, match="costs must be >= 0 and total a finite number"):
        DeploymentProblem(grid, np.ones(3), [1.7e308, 1.7e308], Budget(1.0))


def test_verify_passes_on_solver_outputs(rng):
    for _ in range(40):
        rows, weights, costs, budget, count = random_instance(rng, 10, 25)
        for constraint in (budget, count):
            prob = problem(rows, weights=weights, costs=costs, constraint=constraint)
            assert verify_solution(prob, solve_exact(prob)).ok
            assert verify_solution(prob, solve_greedy(prob)).ok


def test_verify_flags_phantom_coverage():
    prob = problem(THREE, constraint=Cardinality(1))
    good = solve_exact(prob)
    forged = Solution(
        selected=good.selected,
        covered=good.covered | {3},  # t4 is not visible from candidate 0
        objective=good.objective,
        total_cost=good.total_cost,
        method="exact",
        optimality_bound=good.optimality_bound,
    )
    report = verify_solution(prob, forged)
    assert not report.ok
    assert any("claimed covered" in v and "[3]" in v for v in report.violations)


def test_verify_flags_overspend_and_overcount():
    prob = problem(THREE, costs=[2.0, 2.0, 2.0], constraint=Budget(3.0))
    over = Solution(
        selected=(0, 1),
        covered=frozenset({0, 1, 2, 3}),
        objective=4.0,
        total_cost=4.0,
        method="greedy",
        optimality_bound=4.0,
    )
    report = verify_solution(prob, over)
    assert any("budget exceeded" in v and "4.0" in v for v in report.violations)

    prob2 = problem(THREE, constraint=Cardinality(1))
    report2 = verify_solution(
        prob2,
        Solution(
            selected=(0, 1),
            covered=frozenset({0, 1, 2, 3}),
            objective=4.0,
            total_cost=2.0,
            method="greedy",
            optimality_bound=4.0,
        ),
    )
    assert any("cardinality exceeded" in v for v in report2.violations)


# rows covering 1, 3 and 1 of 4 unit-weight targets, each costing as much
# as the whole budget: only one row fits, and row 1 gains the most
TINY = [[1, 0, 0, 0], [0, 1, 1, 1], [1, 0, 0, 0]]


def tiny_budget_problem():
    return problem(TINY, costs=[1e-320] * 3, constraint=Budget(1e-320))


@pytest.mark.parametrize("solver", [solve_exact, solve_greedy])
def test_tiny_budget_selects_one_row(solver):
    # The budget slack scales with a limit below 1, so 1e-320 buys one row,
    # not all three; and the greedy's ratios, which overflow on costs this
    # small, rank row 1 first without a warning.
    prob = tiny_budget_problem()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solver(prob)
    assert sol.selected == (1,)
    assert sol.objective == 3.0
    assert verify_solution(prob, sol).ok
    assert reference_exact(prob)[0] == (1,)
    assert exhaustive_best(TINY, prob.weights, prob.costs, prob.constraint) == 3.0


def test_verify_flags_tiny_budget_overspend():
    prob = tiny_budget_problem()
    every = Solution(selected=(0, 1, 2), covered=frozenset(range(4)), objective=4.0,
                     total_cost=3e-320, method="forged", optimality_bound=4.0)
    report = verify_solution(prob, every)
    assert [v for v in report.violations if "budget exceeded" in v]


def test_greedy_ratio_past_float_range_ranks_as_free():
    # a budget of 1 leaves the costs unscaled, and 1e10 / 1e-300 overflows:
    # both rows rank as free, so the tie goes to row 0, silently
    prob = problem([[1, 0], [0, 1]], weights=[1e10, 2e10], costs=[1e-300, 1e-300],
                   constraint=Budget(1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve_greedy(prob)
    assert sol.selected == (0, 1)


def test_verify_flags_bad_bookkeeping():
    prob = problem(THREE, constraint=Cardinality(1))
    sol = solve_exact(prob)
    wrong_cost = Solution(
        selected=sol.selected,
        covered=sol.covered,
        objective=sol.objective,
        total_cost=sol.total_cost + 1.0,
        method="exact",
        optimality_bound=sol.optimality_bound,
    )
    assert any("total_cost" in v for v in verify_solution(prob, wrong_cost).violations)
    bragging = Solution(
        selected=sol.selected,
        covered=sol.covered,
        objective=sol.objective + 5.0,
        total_cost=sol.total_cost,
        method="exact",
        optimality_bound=sol.optimality_bound,
    )
    bad = verify_solution(prob, bragging).violations
    assert any("objective" in v for v in bad)


def test_verify_flags_duplicates_and_out_of_range():
    prob = problem(THREE, constraint=Cardinality(3))
    sol = Solution(
        selected=(0, 0, 9),
        covered=frozenset({0, 1, 2}),
        objective=3.0,
        total_cost=3.0,
        method="greedy",
        optimality_bound=4.0,
    )
    bad = verify_solution(prob, sol).violations
    assert any("duplicate" in v for v in bad)
    assert any("out of range" in v and "9" in v for v in bad)


# Faults in a solution of THREE under Cardinality(2), which is selected
# (0, 1), covered {0, 1, 2, 3}, objective 4.0, total_cost 2.0, bound 4.0.
@pytest.mark.parametrize("fault", [
    {"objective": math.nan}, {"objective": math.inf},
    {"total_cost": math.nan}, {"total_cost": math.inf},
    {"optimality_bound": math.nan}, {"optimality_bound": math.inf},
    {"selected": (0, True)}, {"selected": (0, 1.0)}, {"selected": (0, "a")},
    {"selected": (0, -1)}, {"selected": (0, 3)}, {"selected": (0, [1])},
    {"covered": frozenset({0, 1.0, 2, 3})}, {"covered": frozenset({0, True, 2, 3})},
    {"covered": frozenset({0, 1, 2, 3, 4})}, {"covered": (0, 1, 2, 3, True)},
    {"covered": (0, 1, 2, 3, 3)},
    {"objective": 4.0 + 1e-10},
], ids=lambda fault: "-".join(f"{k}={v!r}" for k, v in fault.items()))
def test_verify_flags_every_fault_without_raising(fault):
    prob = problem(THREE, constraint=Cardinality(2))
    good = solve_exact(prob)
    assert (good.selected, good.covered, good.objective, good.total_cost,
            good.optimality_bound) == ((0, 1), frozenset(range(4)), 4.0, 2.0, 4.0)
    assert verify_solution(prob, good).ok
    assert not verify_solution(prob, replace(good, **fault)).ok


def test_coverage_fraction():
    prob = problem(THREE, constraint=Cardinality(3))
    full = solve_exact(prob)
    assert coverage_fraction(full, np.ones(4)) == 1.0
    empty = solve_exact(problem(THREE, constraint=Cardinality(0)))
    assert coverage_fraction(empty, np.ones(4)) == 0.0
    one = solve_exact(problem(THREE, constraint=Cardinality(1)))
    assert coverage_fraction(one, np.ones(4)) == 0.75
    with pytest.raises(ValueError, match="undefined"):
        coverage_fraction(full, np.zeros(4))


def test_zero_weight_targets_do_not_attract():
    # a candidate covering only zero-weight targets must not displace one
    # covering real weight
    rows = [[1, 1, 0], [0, 0, 1]]
    weights = [0.0, 0.0, 2.0]
    sol = solve_exact(problem(rows, weights=weights, constraint=Cardinality(1)))
    assert sol.selected == (1,)
    assert sol.objective == 2.0
    greedy = solve_greedy(problem(rows, weights=weights, constraint=Cardinality(1)))
    assert greedy.selected == (1,)
