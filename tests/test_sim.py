import math

import numpy as np
import pytest

from zdmtd.cli import solve_game
from zdmtd.game import GameSpec, pure_strategy, random_strategy
from zdmtd.markov import long_run_utilities
from zdmtd.scenarios import crowd_game, crowd_scenario, with_switching
from zdmtd.sim import (
    _running_sums,
    best_response_profile,
    fixed_profile,
    simulate,
    switching_experiment,
    switching_profile,
)

from oracles import random_game, simulate_reference

PENNIES = GameSpec(2, (1, 1), (-1, -1), (-1, -1), (1, 1))


def window_means(stats):
    """Reconstruct per-window means from the running-average series."""
    t = stats.series_step.astype(float)
    sums_d = stats.series_avg_u_d * t
    sums_a = stats.series_avg_u_a * t
    n = np.diff(np.concatenate([[0.0], t]))
    return np.diff(np.concatenate([[0.0], sums_d])) / n, \
        np.diff(np.concatenate([[0.0], sums_a])) / n


def test_constant_play_constant_averages():
    stats = simulate(PENNIES, pure_strategy(2, 1), fixed_profile(pure_strategy(2, 1)),
                     steps=100, seed=0)
    assert np.all(stats.series_avg_u_d == 1.0)
    assert np.all(stats.series_avg_u_a == -1.0)
    assert stats.final.u_d == 1.0 and stats.final.u_a == -1.0


def test_trajectory_matches_stationary_three_sigma():
    rng = np.random.default_rng(42)
    g = GameSpec(3, (2, 1, 3), (0, -1, 1), (-2, 0, 1), (4, 2, 3))
    pi_d, pi_a = random_strategy(3, rng), random_strategy(3, rng)
    exact = long_run_utilities(g, pi_d, pi_a)
    stats = simulate(g, pi_d, fixed_profile(pi_a), steps=10**6, seed=42, stride=1000)
    wd, wa = window_means(stats)
    se_d = wd.std(ddof=1) / np.sqrt(len(wd))
    se_a = wa.std(ddof=1) / np.sqrt(len(wa))
    assert abs(stats.final.u_d - exact.u_d) <= 3 * se_d
    assert abs(stats.final.u_a - exact.u_a) <= 3 * se_a


def test_bit_identical_replay():
    rng = np.random.default_rng(3)
    g = GameSpec(2, (2, 1), (0, 0), (0, 3), (2, 1))
    pi_d, pi_a = random_strategy(2, rng), random_strategy(2, rng)
    a = simulate(g, pi_d, fixed_profile(pi_a), steps=5000, seed=77, stride=100)
    b = simulate(g, pi_d, fixed_profile(pi_a), steps=5000, seed=77, stride=100)
    assert np.array_equal(a.series_avg_u_d, b.series_avg_u_d)
    assert np.array_equal(a.series_avg_u_a, b.series_avg_u_a)
    assert a.final == b.final
    assert a.segments == b.segments
    c = simulate(g, pi_d, fixed_profile(pi_a), steps=5000, seed=78, stride=100)
    assert not np.array_equal(a.series_avg_u_d, c.series_avg_u_d)


def test_switching_with_period_equal_steps_reduces_to_fixed_type():
    s = crowd_scenario("honest", 50)
    honest, malicious = crowd_game(s, "honest"), crowd_game(s, "malicious")
    rng = np.random.default_rng(8)
    pi_d = random_strategy(3, rng)
    steps = 2000
    profile = switching_profile(steps, "honest", honest, malicious)
    a = simulate(honest, pi_d, profile, steps=steps, seed=5, stride=50)
    b = simulate(honest, pi_d, best_response_profile(), steps=steps, seed=5, stride=50)
    assert np.array_equal(a.series_avg_u_d, b.series_avg_u_d)
    assert len(a.segments) == 1 and a.segments[0].regime == "honest"


def crowd_zd_strategy(s):
    """Optimal-line strategy for the malicious-type game, in original labels,
    together with its parameters and multipliers."""
    out = solve_game(crowd_game(s, "malicious"), verify_samples=0)
    assert out.kind in ("ideal", "optimal")
    return out.strategy, out.params, out.phi


def test_switching_long_regimes_residuals():
    s = with_switching(crowd_scenario("honest", 50), "malicious", 100_000)
    pi_d, params, phi = crowd_zd_strategy(s)
    report = switching_experiment(s, pi_d, steps=1_600_000, seed=11,
                                  zd_params=params, zd_phi=phi)
    assert set(report.regimes) == {"honest", "malicious"}
    for name, summary in report.regimes.items():
        assert summary.n_segments >= 8
        assert summary.line_residual <= 3 * summary.line_residual_se, name
        # the uncompensated statistic keeps its O(1/period) boundary bias;
        # at this period that bias sits near 1e-5
        assert summary.line_residual_raw <= 3e-5, name


def test_switching_compensated_residual_short_periods():
    # short periods leave an O(1/period) boundary artifact in the raw
    # statistic; the compensated residual stays within noise regardless
    s0 = crowd_scenario("honest", 50)
    pi_d, params, phi = crowd_zd_strategy(s0)
    for period in (10, 50):
        s = with_switching(s0, "malicious", period)
        report = switching_experiment(s, pi_d, steps=4000 * 2 * max(1, period // 10),
                                      seed=11, zd_params=params, zd_phi=phi)
        for name, summary in report.regimes.items():
            assert summary.line_residual is not None
            assert summary.line_residual <= 3 * summary.line_residual_se, (period, name)


def test_switching_phase_labels():
    s_h = with_switching(crowd_scenario("honest", 10), "honest", 10)
    s_m = with_switching(s_h, "malicious", 10)
    rng = np.random.default_rng(2)
    pi_d = random_strategy(3, rng)
    a = switching_experiment(s_h, pi_d, steps=200, seed=9)
    b = switching_experiment(s_m, pi_d, steps=200, seed=9)
    seq_a = [seg.regime for seg in a.stats.segments]
    seq_b = [seg.regime for seg in b.stats.segments]
    assert seq_a[0] == "honest" and seq_b[0] == "malicious"
    assert len(seq_a) == len(seq_b) == 20
    assert all(x != y for x, y in zip(seq_a, seq_b))


def test_best_response_lag():
    # with lag equal to the period the attacker's policy always trails the
    # worker type by one regime; realized utilities still follow the type
    s = crowd_scenario("honest", 50)
    honest, malicious = crowd_game(s, "honest"), crowd_game(s, "malicious")
    rng = np.random.default_rng(14)
    pi_d = random_strategy(3, rng)
    no_lag = switching_profile(25, "honest", honest, malicious, lag=0)
    lagged = switching_profile(25, "honest", honest, malicious, lag=25)
    a = simulate(honest, pi_d, no_lag, steps=500, seed=6, stride=25)
    b = simulate(honest, pi_d, lagged, steps=500, seed=6, stride=25)
    assert [seg.regime for seg in a.segments] == [seg.regime for seg in b.segments]
    assert not np.array_equal(a.series_avg_u_a, b.series_avg_u_a)
    b2 = simulate(honest, pi_d, lagged, steps=500, seed=6, stride=25)
    assert np.array_equal(b.series_avg_u_a, b2.series_avg_u_a)
    with pytest.raises(ValueError, match="lag"):
        switching_profile(25, "honest", honest, malicious, lag=-1)


def test_profile_validation():
    with pytest.raises(ValueError, match="strategy"):
        fixed_profile(None)
    with pytest.raises(ValueError, match="period"):
        switching_profile(0, "honest", PENNIES, PENNIES)
    with pytest.raises(ValueError, match="steps"):
        simulate(PENNIES, pure_strategy(2, 1), fixed_profile(pure_strategy(2, 1)),
                 steps=0, seed=0)
    with pytest.raises(ValueError, match="stride"):
        simulate(PENNIES, pure_strategy(2, 1), fixed_profile(pure_strategy(2, 1)),
                 steps=10, seed=0, stride=0)


def assert_matches_reference(stats, ref):
    """Exact trajectory bookkeeping, sums within 1e-12 of math.fsum."""
    assert stats.series_step.tolist() == ref["series_step"]
    assert list(stats.series_regime) == ref["series_regime"]
    assert np.allclose(stats.series_avg_u_d, ref["series_avg_u_d"], rtol=0, atol=1e-12)
    assert np.allclose(stats.series_avg_u_a, ref["series_avg_u_a"], rtol=0, atol=1e-12)
    assert np.allclose((stats.final.u_d, stats.final.u_a), ref["final"], rtol=0, atol=1e-12)
    assert len(stats.segments) == len(ref["segments"])
    for seg, want in zip(stats.segments, ref["segments"]):
        assert (seg.regime, seg.start, seg.length) == \
            (want["regime"], want["start"], want["length"])
        assert seg.phi_boundary == want.get("phi_boundary")
        for key in ("mean_u_d", "mean_u_a", "ref_mean_u_d", "ref_mean_u_a"):
            got = getattr(seg, key)
            if key not in want:
                assert got is None
            else:
                assert abs(got - want[key]) <= 1e-12, (key, got, want[key])


def reference_case(seed=0):
    rng = np.random.default_rng(seed)
    honest, malicious = random_game(3, rng), random_game(3, rng)
    return honest, malicious, random_strategy(3, rng), random_strategy(3, rng), \
        rng.normal(size=3)


@pytest.mark.parametrize("kind,steps,stride", [
    ("fixed", 1000, 7),
    ("fixed", 1, 1),
    ("best_response", 999, 10),
    ("best_response", 1, 3),
    ("switching", 20_000, 1000),  # more stages than one block of draws
    ("switching", 500, 1),
    ("switching", 1, 1),
])
def test_simulate_matches_per_step_reference(kind, steps, stride):
    honest, malicious, pi_d, pi_a, phi = reference_case()
    kwargs = {}
    if kind == "fixed":
        profile = fixed_profile(pi_a)
    elif kind == "best_response":
        profile = best_response_profile()
        kwargs = {"reference_game": malicious}
    else:
        profile = switching_profile(13, "malicious", honest, malicious, lag=5)
        kwargs = {"reference_game": malicious, "gauge_phi": phi}
    stats = simulate(honest, pi_d, profile, steps, seed=21, stride=stride, **kwargs)
    assert_matches_reference(stats, simulate_reference(
        honest, pi_d, profile, steps, 21, stride=stride, **kwargs))


def test_simulate_matches_reference_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    honest, malicious, pi_d, _, phi = reference_case(1)

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(st.integers(1, 400), st.integers(1, 60), st.integers(0, 80),
                      st.integers(1, 50), st.integers(0, 2**31), st.booleans())
    def check(steps, period, lag, stride, seed, honest_first):
        profile = switching_profile(period, "honest" if honest_first else "malicious",
                                    honest, malicious, lag=lag)
        kwargs = {"reference_game": malicious, "gauge_phi": phi}
        stats = simulate(honest, pi_d, profile, steps, seed, stride=stride, **kwargs)
        assert_matches_reference(stats, simulate_reference(
            honest, pi_d, profile, steps, seed, stride=stride, **kwargs))

    check()


def test_running_sums_are_compensated_across_blocks():
    x = np.array([[1.0] + [1e-16] * 999, [0.1] * 1000])
    exact = [[math.fsum(row[:i + 1]) for i in range(row.size)] for row in x]
    whole = _running_sums(x, np.zeros((2, 2)))
    first = _running_sums(x[:, :300], np.zeros((2, 2)))
    rest = _running_sums(x[:, 300:], first[..., -1])
    assert np.array_equal(np.concatenate([first, rest], axis=2), whole)
    assert np.all(np.abs(whole.sum(0) - exact) <= 2.3e-16 * np.abs(exact))
    # a plain running sum drops every 1e-16 after the leading 1.0
    assert np.cumsum(x[0])[-1] == 1.0 and exact[0][-1] > 1.0
