"""Extension: budgeted influence maximization with heterogeneous costs.

Real campaigns pay per seed: the more active a user, the more their
endorsement costs.  This bench prices each user proportionally to their
activity (the CD model's own influence currency), sweeps the budget,
and compares the CEF rule of Leskovec et al. (KDD'07, the paper's CELF
reference [12]) against its two constituent passes and a high-activity
baseline that ignores marginal gains.

Expected shape: at tight budgets the ratio pass (gain per unit cost)
wins — buying two cheap mid-influencers beats one expensive star; as
the budget loosens the two passes converge; CEF always matches the
better pass and dominates the activity baseline.
"""

from repro.core.budget import _budget_pass, cd_budget_maximize
from repro.core.scan import scan_action_log
from repro.core.spread import CDSpreadEvaluator
from repro.evaluation.reporting import format_table

BUDGETS = (2.0, 4.0, 8.0, 16.0, 32.0)


def _activity_costs(index) -> dict:
    """Cost ~ 1 + activity / 10: busy users charge more."""
    return {
        user: 1.0 + index.activity[user] / 10.0 for user in index.users()
    }


def _greedy_by_activity(index, budget: float, costs: dict) -> list:
    """Baseline: buy the most active affordable users, ignoring gains."""
    remaining = budget
    chosen = []
    ranked = sorted(
        index.users(), key=lambda user: (-index.activity[user], repr(user))
    )
    for user in ranked:
        if costs[user] <= remaining:
            chosen.append(user)
            remaining -= costs[user]
    return chosen


def test_extension_budgeted_maximization(
    benchmark, report, flixster_split, flixster_small
):
    train, _ = flixster_split
    graph = flixster_small.graph
    index = scan_action_log(graph, train, truncation=0.001)
    costs = _activity_costs(index)
    evaluator = CDSpreadEvaluator(graph, train)

    def run_sweep():
        return [
            cd_budget_maximize(index, budget=budget, costs=costs)
            for budget in BUDGETS
        ]

    results = benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    rows = []
    for budget, result in zip(BUDGETS, results):
        benefit, ratio = (
            _budget_pass(index, budget, costs.__getitem__, by_ratio)
            for by_ratio in (False, True)
        )
        benefit_seeds, benefit_gains = benefit.seeds, benefit.gains
        ratio_seeds, ratio_gains = ratio.seeds, ratio.gains
        baseline_seeds = _greedy_by_activity(index, budget, costs)
        baseline_spread = evaluator.spread(baseline_seeds)
        rows.append(
            [
                f"{budget:.0f}",
                f"{sum(benefit_gains):.1f} ({len(benefit_seeds)})",
                f"{sum(ratio_gains):.1f} ({len(ratio_seeds)})",
                f"{result.spread:.1f} ({len(result.seeds)})",
                result.rule,
                f"{baseline_spread:.1f} ({len(baseline_seeds)})",
            ]
        )
        # CEF invariants: within budget, equals the better pass, and
        # dominates the cost-blind activity baseline.
        assert result.spent <= budget + 1e-9
        assert result.spread >= max(sum(benefit_gains), sum(ratio_gains)) - 1e-9
        assert result.spread >= baseline_spread - 1e-9
    report(
        format_table(
            [
                "budget",
                "benefit pass",
                "ratio pass",
                "CEF winner",
                "rule",
                "by-activity",
            ],
            rows,
            title=(
                "Extension — budgeted CD maximization, cost ~ activity "
                "(flixster_small train split; 'spread (seeds)')\n"
                "expected: CEF = max(passes) at every budget and beats the "
                "cost-blind activity baseline"
            ),
        )
    )

    # Loosening the budget 16x buys substantially more spread.
    assert results[-1].spread > results[0].spread
