import numpy as np
import pytest

from zdmtd.game import (
    GameSpec,
    MemoryOneStrategy,
    flat_index,
    profit_vector,
    pure_strategy,
    random_strategy,
    uniform_strategy,
)
from zdmtd import markov
from zdmtd.markov import (
    SingularChainError,
    TransitionMatrix,
    build_transition,
    chain,
    det_utilities,
    eps_mixed,
    long_run_utilities,
    max_line_residual,
    stationary,
    zd_residual,
)
from zdmtd.rng import stream

PENNIES = GameSpec(2, (1, 1), (-1, -1), (-1, -1), (1, 1))


def repeat_own_action(k):
    rows = np.zeros((k * k, k))
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            rows[flat_index(k, i, j), i - 1] = 1.0
    return MemoryOneStrategy(k, rows)


def copy_defender_action(k):
    # attacker plays the defender's previous action
    return repeat_own_action(k)


def test_build_transition_examples():
    p1 = pure_strategy(2, 1)
    m = build_transition(p1, p1).m
    assert np.array_equal(m, np.tile([1.0, 0, 0, 0], (4, 1)))

    u = uniform_strategy(2)
    assert np.allclose(build_transition(u, u).m, 0.25)

    m = build_transition(repeat_own_action(2), copy_defender_action(2)).m
    for i in range(1, 3):
        for j in range(1, 3):
            row = m[flat_index(2, i, j)]
            expect = np.zeros(4)
            expect[flat_index(2, i, i)] = 1.0
            assert np.array_equal(row, expect)

    with pytest.raises(ValueError, match="mismatch"):
        build_transition(uniform_strategy(2), uniform_strategy(3))


def test_stationary_absorbing_and_uniform():
    st = stationary(build_transition(pure_strategy(2, 1), pure_strategy(2, 1)))
    assert st.method == "direct"
    assert np.allclose(st.v, [1, 0, 0, 0], atol=1e-12)

    st = stationary(build_transition(uniform_strategy(2), uniform_strategy(2)))
    assert np.allclose(st.v, 0.25, atol=1e-12)
    assert st.residual <= 1e-10


def test_stationary_matches_power_iteration_oracle():
    rng = np.random.default_rng(42)
    pi_d, pi_a = random_strategy(2, rng), random_strategy(2, rng)
    tm = build_transition(pi_d, pi_a)
    st = stationary(tm)
    assert st.method == "direct"
    # one million power-iteration steps, computed by binary exponentiation
    chain = np.linalg.matrix_power(tm.m, 10**6)
    oracle = np.full(4, 0.25) @ chain
    assert np.max(np.abs(st.v - oracle)) < 1e-8


def test_long_run_utilities_examples():
    u = long_run_utilities(PENNIES, pure_strategy(2, 1), pure_strategy(2, 1))
    assert (u.u_d, u.u_a) == (1.0, -1.0)

    g = GameSpec(3, (2, 1, 3), (0, -1, 1), (-2, 0, 1), (4, 2, 3))
    for m in (1, 2, 3):
        u = long_run_utilities(g, uniform_strategy(3), pure_strategy(3, m))
        expect_a = g.u_a_cov[m - 1] / 3 + (1 - 1 / 3) * g.u_a_unc[m - 1]
        expect_d = g.u_d_cov[m - 1] / 3 + (1 - 1 / 3) * g.u_d_unc[m - 1]
        assert u.u_a == pytest.approx(expect_a, abs=1e-12)
        assert u.u_d == pytest.approx(expect_d, abs=1e-12)


def _mc_average(g, pi_d, pi_a, steps, seed):
    """Independent trajectory oracle: sample play, return means and batch SEs."""
    rng = np.random.default_rng(seed)
    k = g.k
    cum_d = np.cumsum(pi_d.rows, axis=1)
    cum_a = np.cumsum(pi_a.rows, axis=1)
    sd = profit_vector(g, "defender")
    sa = profit_vector(g, "attacker")
    draws = rng.random((steps, 2))
    s = int(rng.integers(k * k))
    ud = np.empty(steps)
    ua = np.empty(steps)
    for t in range(steps):
        d = int(np.searchsorted(cum_d[s], draws[t, 0], side="right"))
        a = int(np.searchsorted(cum_a[s], draws[t, 1], side="right"))
        d, a = min(d, k - 1), min(a, k - 1)
        s = d * k + a
        ud[t] = sd[s]
        ua[t] = sa[s]
    def batch_se(x, nb=1000):
        means = x[: (len(x) // nb) * nb].reshape(nb, -1).mean(axis=1)
        return means.std(ddof=1) / np.sqrt(nb)
    return ud.mean(), ua.mean(), batch_se(ud), batch_se(ua)


def test_long_run_utilities_vs_monte_carlo():
    rng = np.random.default_rng(7)
    g = GameSpec(3, (2, 1, 3), (0, -1, 1), (-2, 0, 1), (4, 2, 3))
    pi_d, pi_a = random_strategy(3, rng), random_strategy(3, rng)
    exact = long_run_utilities(g, pi_d, pi_a)
    mud, mua, se_d, se_a = _mc_average(g, pi_d, pi_a, steps=10**6, seed=7)
    assert abs(exact.u_d - mud) <= 3 * se_d
    assert abs(exact.u_a - mua) <= 3 * se_a


def test_det_utilities_matches_stationary():
    rng = np.random.default_rng(123)
    for k in (2, 3):
        for _ in range(40):
            unc = rng.normal(size=k)
            g = GameSpec(k, unc + rng.uniform(0.1, 2, size=k), unc,
                         rng.normal(size=k), rng.normal(size=k))
            pi_d, pi_a = random_strategy(k, rng), random_strategy(k, rng)
            u1 = long_run_utilities(g, pi_d, pi_a)
            u2 = det_utilities(g, pi_d, pi_a)
            for a, b in ((u1.u_d, u2.u_d), (u1.u_a, u2.u_a)):
                assert abs(a - b) <= 1e-6 * max(1.0, abs(a))


def test_det_utilities_pure_and_singular():
    u = det_utilities(PENNIES, pure_strategy(2, 1), pure_strategy(2, 1))
    assert u.u_d == pytest.approx(1.0, abs=1e-12)
    assert u.u_a == pytest.approx(-1.0, abs=1e-12)

    # both players repeating their own action: states (1,1) and (2,2) absorb
    with pytest.raises(SingularChainError):
        det_utilities(PENNIES, repeat_own_action(2), repeat_own_action(2))


def test_zd_residual_zero_params():
    rng = np.random.default_rng(5)
    pi_d, pi_a = random_strategy(2, rng), random_strategy(2, rng)
    assert zd_residual(PENNIES, pi_d, pi_a, 0, 0, 0) == 0.0


def test_zd_residual_nonzero_for_non_zd_strategy():
    g = GameSpec(2, (2, 3), (0, 1), (-1, 0), (2, 1))
    pi_a = pure_strategy(2, 2)
    r = zd_residual(g, uniform_strategy(2), pi_a, 1.0, -0.5, 0.25)
    # pinned: uniform defender vs always-2 gives u_d = 2, u_a = 0.5
    assert r == pytest.approx(2.0 - 0.25 + 0.25, abs=1e-12)
    assert r > 0.01


def test_eps_mixed_preserves_stochasticity():
    s = pure_strategy(3, 2)
    m = eps_mixed(s)
    assert np.allclose(m.rows.sum(axis=1), 1, atol=1e-15)
    assert np.min(m.rows) > 0


def test_stationary_reducible_closed_forms():
    # closed classes {1} and {2, 3}; state 0 is transient and is absorbed
    # into {1} with probability 0.3 / 0.8
    m = np.array([[.2, .3, .5, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    st = stationary(TransitionMatrix(2, m))
    assert st.method == "reducible"
    assert np.allclose(st.v, [0, .34375, .328125, .328125], rtol=0, atol=1e-15)

    # two periodic closed classes, {0, 1} of period 2 and {2, 3, 4} of
    # period 3, and four transient states that reach them by different paths
    m = np.zeros((9, 9))
    m[0, 1] = m[1, 0] = 1.0
    m[2, 3] = m[3, 4] = m[4, 2] = 1.0
    m[5, 0] = m[5, 2] = 0.5
    m[6, 5] = 1.0
    m[7, 7] = m[7, 1] = 0.5
    m[8, 6], m[8, 3] = 0.25, 0.75
    st = stationary(TransitionMatrix(3, m))
    # absorption into {0, 1} from states 5..8 is 1/2, 1/2, 1, 1/8
    expect = np.array([11 / 48] * 2 + [13 / 72] * 3 + [0] * 4)
    assert st.method == "reducible"
    assert np.allclose(st.v, expect, rtol=0, atol=1e-15)
    assert st.residual <= 1e-15
    # the same limit as averaging the iterates from the uniform start
    avg, v = np.zeros(9), np.full(9, 1 / 9)
    for _ in range(6000):
        avg += v
        v = v @ m
    assert np.max(np.abs(avg / 6000 - expect)) < 1e-3


def test_stationary_repeated_actions_average_the_classes():
    # both players repeat their own action: (1,1) and (2,2) absorb, and the
    # uniform start reaches each from one of the two off-diagonal states
    st = stationary(build_transition(repeat_own_action(2), repeat_own_action(2)))
    assert st.method == "reducible"
    assert np.array_equal(st.v, [.5, 0, 0, .5])


def test_stationary_stack_matches_chain_by_chain():
    rng = np.random.default_rng(11)
    k = 3
    d_rows = random_strategy(k, rng).rows
    chains = [chain(d_rows, random_strategy(k, rng).rows) for _ in range(5)]
    chains.insert(2, build_transition(repeat_own_action(k), random_strategy(k, rng)).m)
    chains.append(np.eye(9))  # every state absorbing: the direct system is exactly singular
    stacked = stationary(TransitionMatrix(k, np.stack(chains)))
    singles = [stationary(TransitionMatrix(k, m)) for m in chains]
    assert stacked.v.shape == (7, 9)
    for row, single in zip(stacked.v, singles):
        assert np.array_equal(row, single.v)
    assert [s.method for s in singles] == ["direct"] * 2 + ["reducible"] + ["direct"] * 3 + ["reducible"]
    assert np.allclose(singles[-1].v, 1 / 9, rtol=0, atol=1e-15)
    assert stacked.method == "reducible"
    assert stacked.residual == max(s.residual for s in singles)
    direct_only = stationary(TransitionMatrix(k, np.stack(chains[:2])))
    assert direct_only.method == "direct"


def test_max_line_residual_matches_sample_by_sample(monkeypatch):
    g = GameSpec(3, (2, 1, 3), (0, -1, 1), (-2, 0, 1), (4, 2, 3))
    pi_d = random_strategy(3, np.random.default_rng(3))
    alpha, beta, gamma = 0.5, -1.0, 0.25
    rng = stream(9, "zd-verify")
    expect = max(zd_residual(g, pi_d, MemoryOneStrategy(3, rng.dirichlet(np.ones(3), size=9)),
                             alpha, beta, gamma) for _ in range(10))
    # stacks of 3, 3, 3 and 1 chains draw the same attackers in the same order
    monkeypatch.setattr(markov, "VERIFY_STACK_ENTRIES", 3 * 81)
    got = max_line_residual(g, pi_d, alpha, beta, gamma, 10, stream(9, "zd-verify"))
    assert abs(got - expect) <= 1e-15 * max(1.0, expect)


def test_stack_sharing_a_support_finds_its_classes_once(monkeypatch):
    # a defender strategy with zero entries against positive attackers: every
    # chain of the stack has the same support graph
    rng = np.random.default_rng(4)
    d_rows = random_strategy(3, rng).rows.copy()
    d_rows[:, 2] = 0.0
    d_rows /= d_rows.sum(axis=1, keepdims=True)
    chains = [chain(d_rows, random_strategy(3, rng).rows) for _ in range(6)]
    calls = []
    find = markov._closed_classes
    monkeypatch.setattr(markov, "_closed_classes", lambda s: calls.append(1) or find(s))
    stacked = stationary(TransitionMatrix(3, np.stack(chains)))
    assert len(calls) == 1
    for row, m in zip(stacked.v, chains):
        assert np.array_equal(row, stationary(TransitionMatrix(3, m)).v)
