"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The suite exercises the
package end to end: enforcement of the linear relation against sampled
attackers, the determinant cross-check, existence/construction consistency,
the ideal-value theorems, best-response oracle equivalence, desk-scale
optimality against a dense grid, simulator fidelity, the complexity trend,
and switching robustness.  Timing thresholds are soft (warn) and turn hard
at triple slack.
"""

import json
import time
import warnings
from contextlib import contextmanager

import numpy as np
import pytest

from zdmtd.cli import EXIT_OK, bench_rows, main, solve_game
from zdmtd.game import (
    GameSpec,
    MemoryOneStrategy,
    game_to_dict,
    profit_vector,
)
from zdmtd.markov import long_run_utilities
from zdmtd.mdp import best_response, defender_utility_under_br
from zdmtd.rng import stream
from zdmtd.scenarios import crowd_game, crowd_scenario, default_suites
from zdmtd.sim import switching_experiment
from zdmtd.sse import oneshot_sse, search_sse, sse_upper_bound
from zdmtd.zd import ZdLinearParams, construct_strategy

from oracles import (
    check_corollaries,
    det_utilities,
    exhaustive_br,
    existence_check,
    ideal_feasible_game,
    k2_grid_oracle,
    phi_grid_feasible_k2,
    pipeline_value,
    random_game,
    random_strategy,
)


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {num:02d} {name}: PASS")


def corollary_instance(k, rng, kind):
    """Random game satisfying the stated sufficient conditions of one
    ideal-line corollary class (margins keep every inequality strict)."""
    if kind == "equalizer":
        return ideal_feasible_game(k, rng)
    chi = rng.uniform(1.2, 2.5) if kind == "extortion" else rng.uniform(0.4, 0.9)
    t = rng.uniform(0.8, 1.5)
    u_a_cov = np.empty(k)
    u_a_unc = np.empty(k)
    u_d_unc = np.empty(k)
    u_a_cov[0] = t
    w = rng.uniform(-0.3, 0.1, size=max(k - 2, 0))
    u_a_unc[1 : k - 1] = w
    u_d_unc[1 : k - 1] = chi * w
    w1 = rng.uniform(0.2, 0.4)
    u_a_unc[0] = w1
    u_d_unc[0] = chi * w1 - rng.uniform(0.2, 0.6)
    wk = -rng.uniform(0.5, 1.2)
    u_a_unc[k - 1] = wk
    u_d_unc[k - 1] = chi * wk + rng.uniform(0.2, 0.6)
    top = chi * t
    u_d_cov = top * (1.0 - 0.5 * np.arange(k) / k)
    u_a_cov[1 : k - 1] = rng.uniform(-0.5, 0.5, size=max(k - 2, 0))
    u_a_cov[k - 1] = (u_d_cov[k - 1] + rng.uniform(0.1, 0.5)) / chi
    return GameSpec(k, u_d_cov, u_d_unc, u_a_cov, u_a_unc)


def batch_line_residual(g, strategy, params, n_samples, seed, chunk=250):
    """Max |alpha u_d + beta u_a + gamma| over sampled attacker strategies,
    evaluated by batched direct stationary solves (with a safe fallback)."""
    k, n = g.k, g.k * g.k
    sd = profit_vector(g, "defender")
    sa = profit_vector(g, "attacker")
    rng = stream(seed, "acceptance-1")
    worst = 0.0
    left = n_samples
    while left > 0:
        c = min(chunk, left)
        left -= c
        att = rng.dirichlet(np.ones(k), size=(c, n))
        m = np.einsum("sd,csa->csda", strategy.rows, att).reshape(c, n, n)
        t = np.swapaxes(m, 1, 2) - np.eye(n)
        t[:, -1, :] = 1.0
        b = np.zeros((n, 1))
        b[-1, 0] = 1.0
        v = np.linalg.solve(t, np.broadcast_to(b, (c, n, 1)))[..., 0]
        fixed = np.abs(np.einsum("cs,csx->cx", v, m) - v).max(axis=1)
        res = np.abs(params.alpha * (v @ sd) + params.beta * (v @ sa) + params.gamma)
        for i in np.nonzero((fixed > 1e-9) | (v.min(axis=1) < -1e-9))[0]:
            pi_a = MemoryOneStrategy(k, att[i])
            u = long_run_utilities(g, strategy, pi_a)
            res[i] = abs(params.alpha * u.u_d + params.beta * u.u_a + params.gamma)
        worst = max(worst, float(res.max()))
    return worst


def test_01_zd_enforcement(tmp_path):
    """Strategies produced by the solve command enforce the line against
    1000 random attackers at 1e-8, for 50 instances at each K."""
    with criterion(1, "zd enforcement against sampled attackers"):
        t_start = time.time()
        produced = 0
        attempted = 0
        for k in (2, 3, 5, 10):
            rng = stream(2026, "acc1-games", str(k))
            np_rng = np.random.default_rng(rng.integers(2**32))
            for i in range(50):
                if k in (2, 3) and i % 2 == 0:
                    g = random_game(k, np_rng)
                else:
                    g = ideal_feasible_game(k, np_rng)
                attempted += 1
                gdir = tmp_path / f"k{k}_{i}"
                gdir.mkdir()
                (gdir / "game.json").write_text(json.dumps(game_to_dict(g)))
                code = main(["solve", "--game", str(gdir / "game.json"),
                             "--out", str(gdir), "--seed", str(i),
                             "--verify-samples", "8"])
                if code != EXIT_OK:
                    continue
                produced += 1
                blob = json.loads((gdir / "strategy.json").read_text())
                strategy = MemoryOneStrategy(blob["k"], np.asarray(blob["pi"]))
                params = ZdLinearParams(blob["zd"]["alpha"], blob["zd"]["beta"],
                                        blob["zd"]["gamma"])
                worst = batch_line_residual(g, strategy, params, 1000, seed=i)
                assert worst <= 1e-8, (k, i, worst)
        assert produced >= 0.8 * attempted, (produced, attempted)
        elapsed = time.time() - t_start
        assert elapsed < 300, f"runtime {elapsed:.0f}s exceeds the 5 min budget"


def test_02_determinant_equivalence():
    """Determinant-ratio utilities match the stationary path at 1e-6
    relative on 200 random strategy pairs at K in {2, 3}."""
    with criterion(2, "determinant vs stationary utilities"):
        rng = np.random.default_rng(202)
        for k in (2, 3):
            for _ in range(100):
                g = random_game(k, rng)
                pi_d, pi_a = random_strategy(k, rng), random_strategy(k, rng)
                u1 = long_run_utilities(g, pi_d, pi_a)
                u2 = det_utilities(g, pi_d, pi_a)
                assert abs(u1.u_d - u2.u_d) <= 1e-6 * max(1.0, abs(u1.u_d))
                assert abs(u1.u_a - u2.u_a) <= 1e-6 * max(1.0, abs(u1.u_a))


def equalizer_params_for(g, rng):
    beta = float(rng.uniform(0.5, 2))
    return ZdLinearParams(0.0, beta, -beta * float(g.u_a_cov[0]))


def test_03_existence_consistency():
    """Existence implies construction at residual 1e-8 (500 draws across
    K in {2, 3, 5}); at K=2 a non-existence verdict is confirmed by the
    phi-grid oracle."""
    with criterion(3, "existence/construction consistency"):
        rng = np.random.default_rng(33)
        built = 0
        for k in (2, 3, 5):
            for trial in range(170):
                if trial % 2:
                    g = ideal_feasible_game(k, rng)
                    p = equalizer_params_for(g, rng)
                else:
                    g = random_game(k, rng)
                    p = ZdLinearParams(*rng.normal(size=3))
                res = existence_check(g, p)
                if not res.exists:
                    if k == 2 and not p.is_zero():
                        assert not phi_grid_feasible_k2(g, p), trial
                    continue
                if p.is_zero():
                    continue
                zd = construct_strategy(g, p, res.phi)
                assert zd.residual <= 1e-8, (k, trial, zd.residual)
                built += 1
        assert built >= 200, built


def test_04_ideal_value():
    """Corollary-satisfying instances realize the full covered value under
    attacker best response (1e-6, K in {3, 5})."""
    with criterion(4, "ideal strategies attain the equilibrium value"):
        rng = np.random.default_rng(44)
        kinds = ("equalizer", "extortion", "generous")
        built = 0
        for k in (3, 5):
            for i in range(10):
                g = corollary_instance(k, rng, kinds[i % 3])
                from zdmtd.programs import solve_ideal
                rep = check_corollaries(g)
                assert rep.equalizer or rep.extortion or rep.generous, (k, i)
                assert solve_ideal(g).found, (k, i)  # corollary cross-check
                value = pipeline_value(g)
                assert value is not None
                assert value == pytest.approx(float(np.max(g.u_d_cov)), abs=1e-6)
                built += 1
        assert built == 20


def test_05_theorem2_sandwich():
    """ZD value <= seeded-search value <= analytic upper bound."""
    with criterion(5, "equilibrium-value sandwich"):
        rng = np.random.default_rng(55)
        checked = 0
        for k in (2, 3):
            for i in range(4):
                g = ideal_feasible_game(k, rng) if i % 2 else random_game(k, rng)
                out = solve_game(g, verify_samples=0, evaluate_br=False)
                if out.kind not in ("ideal", "optimal"):
                    continue
                pair, _ = defender_utility_under_br(g, out.strategy)
                res = search_sse(g, budget=6, seed=i, seeds_in=[out.strategy])
                upper = sse_upper_bound(g)
                assert pair.u_d <= res.value + 1e-9
                assert res.value <= upper + 1e-9
                checked += 1
        assert checked >= 4


def test_06_br_oracle_equivalence():
    """Policy iteration matches exhaustive enumeration in gain at 1e-8 on
    50 random instances at each of K=2 (16 policies) and K=3 (19683)."""
    with criterion(6, "best-response oracle equivalence"):
        t_start = time.time()
        rng = np.random.default_rng(66)
        for k, count in ((2, 16), (3, 19683)):
            for _ in range(50):
                g = random_game(k, rng)
                pi_d = random_strategy(k, rng)
                pi = best_response(g, pi_d)
                ex = exhaustive_br(g, pi_d)
                assert ex.policies_evaluated == count
                assert abs(pi.gain - ex.gain) <= 1e-8
        elapsed = time.time() - t_start
        assert elapsed < 600, f"runtime {elapsed:.0f}s exceeds the 10 min budget"


def test_07_desk_scale_optimality():
    """At K=2 the pipeline's realized value is within 1e-3 of the dense
    grid oracle's best, over 20 random instances."""
    with criterion(7, "optimal line vs dense grid oracle"):
        rng = np.random.default_rng(77)
        for i in range(20):
            g = random_game(2, rng)
            value = pipeline_value(g, solve_game(g, verify_samples=0))
            oracle, n_feasible = k2_grid_oracle(g)
            if value is None:
                assert n_feasible == 0 or oracle == -np.inf, i
                continue
            assert value >= oracle - 1e-3, (i, value, oracle)


def test_08_simulator_fidelity():
    """Million-step trajectories agree with stationary utilities within
    three standard errors, and replays are bit-identical."""
    with criterion(8, "simulator fidelity"):
        from zdmtd.sim import fixed_profile, simulate
        rng = np.random.default_rng(88)
        for k in (2, 3):
            g = random_game(k, rng)
            pi_d, pi_a = random_strategy(k, rng), random_strategy(k, rng)
            exact = long_run_utilities(g, pi_d, pi_a)
            stats = simulate(g, pi_d, fixed_profile(pi_a), steps=10**6,
                             seed=k, stride=1000)
            t = stats.series_step.astype(float)
            sums = stats.series_avg_u_d * t
            w = np.diff(np.concatenate([[0.0], sums])) / np.diff(
                np.concatenate([[0.0], t]))
            se = w.std(ddof=1) / np.sqrt(len(w))
            assert abs(stats.final.u_d - exact.u_d) <= 3 * se
            again = simulate(g, pi_d, fixed_profile(pi_a), steps=10**6,
                             seed=k, stride=1000)
            assert np.array_equal(stats.series_avg_u_d, again.series_avg_u_d)
            assert stats.final == again.final


def soft_hard(value, threshold, label):
    """Soft thresholds warn; three times the threshold fails."""
    if value > threshold:
        warnings.warn(f"{label}: {value:.3g} above soft threshold {threshold:.3g}")
    assert value <= 3 * threshold, f"{label}: {value:.3g} beyond hard threshold"


def test_09_complexity_trend():
    """Pipeline stays fast as K grows: K=50 under 5s, exhaustive search at
    K=3 at least 100x slower than the ZD solve, log-log slope <= 3.5."""
    with criterion(9, "complexity trend"):
        rows = bench_rows(kmax=50, trials=3, seed=99)
        zd = {(r[2]): r[5] for r in rows if r[0] == "zd_solve" and r[1] == "structured"}
        soft_hard(zd[50], 5.0, "ZD solve at K=50 (s)")

        t_zd3 = zd[3]
        t_ex3 = next(r[5] for r in rows if r[0] == "exhaustive_sse" and r[2] == 3)
        ratio = t_ex3 / max(t_zd3, 1e-9)
        # ratio threshold is a floor: warn below 100x, fail below 33x
        if ratio < 100:
            warnings.warn(f"exhaustive/ZD ratio {ratio:.1f} below soft floor 100")
        assert ratio >= 100 / 3, f"exhaustive/ZD ratio {ratio:.1f} below hard floor"

        ks = np.array([k for k in sorted(zd) if 5 <= k <= 50])
        ts = np.array([zd[k] for k in ks])
        slope = np.polyfit(np.log(ks), np.log(ts), 1)[0]
        soft_hard(slope, 3.5, "log-log runtime slope")


def test_10_switching_robustness(tmp_path):
    """Crowdsourcing suites: per-regime enforced-line residual within three
    standard errors in every regime; comparison CSVs emitted per suite."""
    with criterion(10, "switching robustness"):
        suites = [(n, s) for n, s in default_suites() if n.startswith("crowd_")]
        assert len(suites) == 6
        base = crowd_scenario("honest", 50)
        mal = crowd_game(base, "malicious")
        out = solve_game(mal, verify_samples=32, seed=10)
        assert out.kind in ("ideal", "optimal")
        assert out.max_line_residual <= 1e-8
        baseline = oneshot_sse(mal).lifted(mal.k)

        for name, scenario in suites:
            steps = 3000 * max(1, scenario.period // 10)
            report = switching_experiment(scenario, out.strategy, steps=steps,
                                          seed=10, zd_params=out.params,
                                          zd_phi=out.phi)
            for regime, summary in report.regimes.items():
                assert summary.line_residual is not None, (name, regime)
                assert summary.line_residual <= 3 * summary.line_residual_se, (
                    name, regime, summary.line_residual, summary.line_residual_se)
            base_report = switching_experiment(scenario, baseline, steps=steps,
                                               seed=10)
            lines = ["step,avg_u_d,avg_u_a,regime,strategy"]
            for strat, rep in (("zd", report), ("oneshot_sse", base_report)):
                st = rep.stats
                for j in range(len(st.series_step)):
                    lines.append(f"{st.series_step[j]},{st.series_avg_u_d[j]!r},"
                                 f"{st.series_avg_u_a[j]!r},{st.series_regime[j]},{strat}")
            (tmp_path / f"{name}.csv").write_text("\n".join(lines) + "\n")
        emitted = list(tmp_path.glob("crowd_*.csv"))
        assert len(emitted) == 6
