"""Acceptance suite.

Each test evaluates one acceptance criterion at its stated tolerance and
prints a single pass/fail line (run with ``pytest -s`` to see them live).
"""

import time

import numpy as np
import pytest

from mrtest.conditions import lg2, lg3, lg4, mr_strong, nsit, nsit_pairwise
from mrtest.fine import d_interval
from mrtest.harness import SweepSpec, run_campaign, sample_model, sweep_blocks
from mrtest.measurement import (
    MomentSet,
    measure_all,
    outcomes,
)

from conftest import lp_oracle, precession_model, scan_oracle

SEED_MOMENTS = 20260801
SEED_CAMPAIGN = 20260802
SEED_CHAIN = 20260803
SEED_FIXED_STATE = 20260804
SEED_SPECIAL = 20260805


def _report(number: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {number} failed: {detail}"


def bisect_minimum(f, lo: float, hi: float, *, step: float = 1e-6) -> float:
    """Local bisection on the derivative sign of a smooth unimodal bracket."""
    while hi - lo > 1e-10:
        mid = (lo + hi) / 2
        if f(mid + step) - f(mid - step) > 0.0:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


def first_attaining_bracket(grid, values, slack: float = 1e-3):
    """Bracket around the first grid-local minimum attaining the global one."""
    target = min(values) + slack
    for k in range(1, len(values) - 1):
        if values[k] <= target and values[k] <= values[k - 1] and values[k] <= values[k + 1]:
            return grid[k - 1], grid[k + 1]
    k = int(np.argmin(values))
    return grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)]


@pytest.fixture(scope="module")
def campaign_1000():
    return run_campaign(seed=SEED_CAMPAIGN, count=1000, dim_min=2, dim_max=4)


def test_criterion_1_three_time_violation_extremum():
    start = time.perf_counter()
    spec = SweepSpec(
        model=precession_model(),
        parameter="tau",
        start=0.0,
        stop=2 * np.pi,
        steps=2000,
        outputs=("correlators", "margins"),
    )
    margins = np.concatenate([block["LG3.2"] for block in sweep_blocks(spec)]).tolist()

    def margin_at(tau: float) -> float:
        mom = measure_all(precession_model(times=(0.0, tau, 2 * tau))).moments
        return lg3(mom).margins["LG3.2"]

    lo, hi = first_attaining_bracket(list(spec.grid), margins)
    tau_star = bisect_minimum(margin_at, lo, hi)
    min_margin = margin_at(tau_star)
    elapsed = time.perf_counter() - start

    ok = (
        abs(min_margin - (-0.5)) < 1e-6
        and abs(tau_star - np.pi / 3) < 1e-6
        and elapsed < 5.0
    )
    _report(
        1,
        ok,
        f"min LG3.2 margin {min_margin:.9f} at w*tau {tau_star:.9f} "
        f"(target -0.5 at pi/3 = {np.pi / 3:.9f}), {elapsed:.2f}s < 5s",
    )


def test_criterion_2_four_time_bound():
    start = time.perf_counter()
    spec = SweepSpec(
        model=precession_model(times=(0.0, 1.0, 2.0, 3.0)),
        parameter="tau",
        start=0.0,
        stop=2 * np.pi,
        steps=2000,
        outputs=("averages", "correlators", "margins"),
    )
    blocks = list(sweep_blocks(spec))

    def block_moments(block) -> MomentSet:
        return MomentSet(
            averages=tuple(block[f"avg_{i}"] for i in range(1, 5)),
            correlators=tuple(block[f"C_{ij}"] for ij in ("12", "23", "34", "14")),
        )

    def signed_sum(moments: MomentSet) -> float:
        return (
            moments.corr(0, 1) + moments.corr(1, 2) + moments.corr(2, 3) - moments.corr(0, 3)
        )

    sums = np.concatenate([signed_sum(block_moments(block)) for block in blocks]).tolist()

    def neg_sum_at(tau: float) -> float:
        mom = measure_all(precession_model(times=(0.0, tau, 2 * tau, 3 * tau))).moments
        return -signed_sum(mom)

    lo, hi = first_attaining_bracket(list(spec.grid), [-s for s in sums])
    tau_star = bisect_minimum(neg_sum_at, lo, hi)
    max_sum = -neg_sum_at(tau_star)

    agreement = True
    for block in blocks:
        lg4_margins = np.array([v for k, v in block.items() if k.startswith("LG4")])
        violated = (lg4_margins < 0.0).any(axis=0)
        moments = block_moments(block)
        points = zip(zip(*moments.averages), zip(*moments.correlators))
        if any(d_interval(MomentSet(a, c)).feasible == bad for (a, c), bad in zip(points, violated)):
            agreement = False
            break
    elapsed = time.perf_counter() - start

    ok = (
        abs(max_sum - 2 * np.sqrt(2)) < 1e-6
        and abs(tau_star - np.pi / 4) < 1e-6
        and agreement
        and elapsed < 10.0
    )
    _report(
        2,
        ok,
        f"max C12+C23+C34-C14 = {max_sum:.9f} at w*tau {tau_star:.9f} "
        f"(target 2*sqrt(2) = {2 * np.sqrt(2):.9f} at pi/4), Fine/LG4 agreement "
        f"on all 2000 points: {agreement}, {elapsed:.2f}s < 10s",
    )


def test_criterion_3_fine_theorem_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(SEED_MOMENTS)
    n_samples = 10_000
    lg_disagreements = 0
    lp_hard = 0
    scan_hard = 0
    for _ in range(n_samples):
        vals = rng.uniform(-1.0, 1.0, 6)
        m = MomentSet(averages=tuple(vals[:3]), correlators=tuple(vals[3:]))
        di = d_interval(m)
        margins = [x for pair in m.pairs for x in lg2(m, pair).margins.values()]
        margins += list(lg3(m).margins.values())
        if di.feasible != all(x >= -1e-12 for x in margins):
            lg_disagreements += 1
        lo, hi = di.d_interval
        boundary_distance = abs(hi - lo)
        if lp_oracle(m).feasible != di.feasible and boundary_distance > 1e-2:
            lp_hard += 1
        if scan_oracle(m, 1e-3).feasible != di.feasible and boundary_distance > 1e-2:
            scan_hard += 1
    elapsed = time.perf_counter() - start

    ok = lg_disagreements == 0 and lp_hard == 0 and scan_hard == 0 and elapsed < 30.0
    _report(
        3,
        ok,
        f"{n_samples} moment sets: interval vs 12xLG2+4xLG3 disagreements "
        f"{lg_disagreements}, hard LP disagreements {lp_hard}, hard scan "
        f"disagreements {scan_hard}, {elapsed:.2f}s < 30s",
    )


def test_criterion_4_p_minus_q_commutator_relation(campaign_1000):
    stats = campaign_1000["checks"]["p_minus_q_identity"]
    ok = stats["violations"] == 0 and stats["max_residual"] < 1e-12
    _report(
        4,
        ok,
        f"1000 random models (dim 2-4): max outcome-wise |p - q - T*s2| = "
        f"{stats['max_residual']:.3e} < 1e-12 over {stats['samples']} pair tables",
    )


def test_criterion_5_witness_identities(campaign_1000):
    agree = campaign_1000["checks"]["witness_formula_agreement"]
    bounded = campaign_1000["checks"]["bounded_interference_nonneg"]
    ok = (
        agree["violations"] == 0
        and agree["max_residual"] < 1e-12
        and bounded["violations"] == 0
        and bounded["samples"] > 0
    )
    _report(
        5,
        ok,
        f"witness residual-vs-commutator max gap {agree['max_residual']:.3e} < 1e-12; "
        f"all {bounded['samples']} bounded-interference cases have quasi weights "
        f">= -1e-12 (worst {bounded['max_residual']:.3e})",
    )


def test_criterion_6_implication_chain():
    summary = run_campaign(seed=SEED_CHAIN, count=500, dim_min=2, dim_max=4)
    stats = summary["checks"]["implication_chain"]
    ok = stats["samples"] == 500 and stats["violations"] == 0
    _report(
        6,
        ok,
        f"500 random models at epsilon 1e-9: strong=>int and int=>weak "
        f"violations {stats['violations']}",
    )


def test_criterion_7_fixed_initial_state_reduction():
    rng = np.random.default_rng(SEED_FIXED_STATE)
    lg3_to_lg2 = {1: "++", 2: "-+", 3: "+-", 4: "--"}
    worst_moment = 0.0
    worst_margin = 0.0
    for _ in range(100):
        model = sample_model(rng, int(rng.integers(2, 5)), rho_mode="plus_eigenspace")
        mom = measure_all(model).moments
        worst_moment = max(
            worst_moment,
            abs(mom.corr(0, 1) - mom.averages[1]),
            abs(mom.corr(0, 2) - mom.averages[2]),
        )
        r3 = lg3(mom)
        r2 = lg2(mom, (1, 2))
        for k, key in lg3_to_lg2.items():
            gap = abs(r3.margins[f"LG3.{k}"] - r2.margins[f"LG2.23.{key}"])
            worst_margin = max(worst_margin, gap)
    ok = worst_moment < 1e-12 and worst_margin < 1e-12
    _report(
        7,
        ok,
        f"100 models with rho in the Q(t1)=+1 eigenspace: max |C12 - <Q2>|, "
        f"|C13 - <Q3>| = {worst_moment:.3e} < 1e-12; max LG3-vs-LG2(2,3) margin "
        f"gap = {worst_margin:.3e} < 1e-12",
    )


def test_criterion_8_nsit_special_cases():
    rng = np.random.default_rng(SEED_SPECIAL)

    worst_commuting = 0.0
    commuting_verdicts = True
    for _ in range(40):
        model = sample_model(rng, int(rng.integers(2, 5)), commuting=True)
        report = mr_strong(measure_all(model))
        commuting_verdicts &= report.verdict
        worst_commuting = max(worst_commuting, max(abs(v) for v in report.values.tolist()))

    worst_mixed = 0.0
    for _ in range(40):
        model = sample_model(rng, 2, rho_mode="maximally_mixed")
        report = nsit_pairwise(measure_all(model))
        worst_mixed = max(worst_mixed, max(abs(v) for v in report.values.tolist()))

    worst_diagonal = 0.0
    for _ in range(40):
        tables = measure_all(sample_model(rng, int(rng.integers(2, 5)), rho_mode="q1_diagonal"))
        for j in (1, 2):
            report = nsit(tables.pairs[(0, j)], tables.singles[j], 0, name=f"NSIT(1){j + 1}")
            worst_diagonal = max(worst_diagonal, max(abs(v) for v in report.values.tolist()))

    ok = (
        commuting_verdicts
        and worst_commuting < 1e-12
        and worst_mixed < 1e-12
        and worst_diagonal < 1e-12
    )
    _report(
        8,
        ok,
        f"commuting models pass strong macrorealism (worst residual "
        f"{worst_commuting:.3e}); maximally mixed qubit two-time NSIT residual "
        f"{worst_mixed:.3e}; Q(t1)-diagonal states NSIT(1)2/NSIT(1)3 residual "
        f"{worst_diagonal:.3e}; all < 1e-12",
    )


def test_criterion_9_quasi_probability_marginals(campaign_1000):
    stats = campaign_1000["checks"]["quasi_marginals"]
    ok = stats["violations"] == 0 and stats["max_residual"] < 1e-12
    _report(
        9,
        ok,
        f"quasi-probability marginals match single-time tables on the random "
        f"campaign: max residual {stats['max_residual']:.3e} < 1e-12 over "
        f"{stats['samples']} pair tables",
    )
