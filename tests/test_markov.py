import numpy as np
import pytest

from zdmtd.game import (
    GameSpec,
    MemoryOneStrategy,
    flat_index,
    profit_vector,
)
from zdmtd import markov
from zdmtd.cli import solve_game
from zdmtd.markov import (
    TransitionMatrix,
    build_transition,
    chain,
    eps_mixed,
    long_run_utilities,
    max_line_residual,
    stationary,
    zd_residual,
)
from zdmtd.rng import stream

from oracles import (
    SingularChainError,
    det_utilities,
    ideal_feasible_game,
    pure_strategy,
    random_strategy,
    uniform_strategy,
)

PENNIES = GameSpec(2, (1, 1), (-1, -1), (-1, -1), (1, 1))
G4 = GameSpec(4, (3, 2, 1.5, 1), (0, -1, 0.5, -2), (-2, 0, 1, 0.5), (4, 2, 3, -1))


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


def test_stationary_transient_state_that_leaves_with_probability_below_rounding():
    # state 1 leaves for state 0 with probability 4.3e-17, so 1 - m[1, 1]
    # rounds to 0; it is still transient, and the uniform start ends in the
    # closed class {2, 3} (a deterministic defender against a Dirichlet(0.05)
    # attacker, as the enforced-line property drew it)
    p, r = 2.2e-3, 7.6e-7
    m = np.array([[0, 0, 4.2e-6, 1 - 4.2e-6], [4.3e-17, 1, 0, 0],
                  [0, 0, p, 1 - p], [0, 0, 1 - r, r]])
    st = stationary(TransitionMatrix(2, m))
    assert st.method == "reducible"
    expect = np.array([0, 0, 1 - r, 1 - p]) / (2 - p - r)
    assert np.allclose(st.v, expect, rtol=0, atol=1e-15)


def test_closed_class_limit_of_transient_states_that_leak_below_rounding():
    # states 3..5 move among themselves and leak into the one closed class
    # {0, 1, 2} with probability ~1e-23, below the rounding of their rows'
    # other mass, so the absorption system is singular in floating point;
    # with one closed class every start ends in it (a sampled verification
    # chain of a tied-attacker game on which `solve` exited 64)
    m = np.zeros((6, 6))
    m[:3, :3] = [[.5, .25, .25], [.25, .5, .25], [.25, .25, .5]]
    m[3:, 3:] = [[.25, .5, .25], [.125, .5, .375], [.5, .25, .25]]
    m[3, :2] = m[4, 1:3] = 1e-23
    classes = markov._closed_classes(m > 0.0)
    assert [c.tolist() for c in classes] == [[True] * 3 + [False] * 3]
    v = markov._closed_class_limit(m, classes)
    assert np.allclose(v, [1 / 3] * 3 + [0] * 3, rtol=0, atol=1e-15)


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


@pytest.mark.parametrize("solver", [markov._direct, markov._direct_offdiag])
def test_direct_solves_pass_numpy_1_and_2_the_same_right_hand_side(monkeypatch, solver):
    # numpy 1.x solves a 1-D right-hand side against a stack of matrices only
    # when it has one dimension fewer than the stack, so every system gets its
    # own (n, 1) column; a stack's solution matches each chain solved alone
    rng = np.random.default_rng(5)
    chains = np.stack([chain(random_strategy(3, rng).rows, random_strategy(3, rng).rows)
                       for _ in range(4)])
    shapes, solve = [], np.linalg.solve

    def recording_solve(a, b):
        shapes.append((a.ndim, b.shape))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", recording_solve)
    stacked = solver(chains)
    singles = [solver(m) for m in chains]
    assert shapes == [(3, (4, 9, 1))] + [(2, (9, 1))] * 4
    assert np.allclose(stacked, singles, rtol=0.0, atol=1e-15)
    assert np.allclose(stacked[:, None, :] @ chains, stacked[:, None, :], rtol=0.0, atol=1e-15)


def test_direct_offdiag_keeps_self_loops_near_one():
    # a two-state chain leaving each state with probability ~1e-9: 1 - m[s, s]
    # keeps seven digits, the off-diagonal entry all of them
    p, q = 1.234567890123e-9, 3.1e-9
    m = np.array([[1.0 - p, p], [q, 1.0 - q]])
    exact = np.array([q, p]) / (p + q)
    assert np.max(np.abs(markov._direct_offdiag(m) - exact)) <= 1e-15
    assert np.max(np.abs(markov._direct(m) - exact)) > 1e-10


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


def test_verification_finds_its_support_classes_once_across_stacks(monkeypatch):
    # a defender that never plays target 4 and never moves from state 0 to
    # target 1: every chain has zero entries, and all share one support, as
    # the attacker rows are positive.  With one chain per stack the closure
    # still runs once per call, and the residual is that of one stack
    rows = random_strategy(4, np.random.default_rng(7)).rows.copy()
    rows[:, 3] = 0.0
    rows[0, 0] = 0.0
    pi_d = MemoryOneStrategy(4, rows / rows.sum(axis=1, keepdims=True))
    calls = []
    find = markov._closed_classes
    monkeypatch.setattr(markov, "_closed_classes", lambda s: calls.append(1) or find(s))
    want = max_line_residual(G4, pi_d, 0.5, -1.0, 0.25, 12, stream(4, "zd-verify"))
    assert len(calls) == 1
    calls.clear()
    monkeypatch.setattr(markov, "VERIFY_STACK_ENTRIES", 1)
    got = max_line_residual(G4, pi_d, 0.5, -1.0, 0.25, 12, stream(4, "zd-verify"))
    assert len(calls) == 1 and got == want


def test_transition_matrix_accepts_square_chains_up_to_k_squared_states():
    for m in (np.eye(4), np.eye(3), np.full((1, 1), 1.0), np.stack([np.eye(2)] * 3)):
        assert TransitionMatrix(2, m).m.shape == m.shape
    for m in (np.full((4, 3), 1 / 3), np.eye(5), np.stack([np.eye(5)] * 2), np.ones((0, 0)),
              np.ones(4), np.ones((1, 1, 1, 1))):
        with pytest.raises(ValueError, match="square on 1 to 4 states"):
            TransitionMatrix(2, m)


def _unplayed(k, rng, cols):
    """A random defender strategy that never plays the given targets."""
    rows = random_strategy(k, rng).rows.copy()
    rows[:, cols] = 0.0
    return MemoryOneStrategy(k, rows / rows.sum(axis=1, keepdims=True))


def _zd_solution(k):
    """A ZD strategy of the ideal program and its line, on an ideal-feasible
    game; at this seed it plays 2 or 3 targets for every K = 4..10."""
    g = ideal_feasible_game(k, np.random.default_rng(3))
    out = solve_game(g, verify_samples=0)
    assert out.kind == "ideal"
    p = out.params
    return g, out.strategy, (p.alpha, p.beta, p.gamma)


def _full_chain_max(g, pi_d, line, n_samples, rng):
    """The sampled line residual with every attacker scored on its full K^2
    chain, from one block of draws."""
    k = g.k
    att = rng.dirichlet(np.ones(k), size=(n_samples, k * k))
    worst = 0.0
    for rows in att:
        u = long_run_utilities(g, pi_d, MemoryOneStrategy(k, rows))
        worst = max(worst, abs(line[0] * u.u_d + line[1] * u.u_a + line[2]))
    return worst


def _played(pi_d):
    return np.nonzero(pi_d.rows.max(axis=0) > 0)[0]


@pytest.mark.parametrize("k", [4, 5, 6])
def test_max_line_residual_on_played_states_matches_full_chains_zd(k):
    g, pi_d, line = _zd_solution(k)
    assert len(_played(pi_d)) < k  # the reduction drops states
    got = max_line_residual(g, pi_d, *line, 16, stream(k, "zd-verify"))
    expect = _full_chain_max(g, pi_d, line, 16, stream(k, "zd-verify"))
    assert abs(got - expect) <= 1e-12 * max(1.0, expect)


def test_max_line_residual_on_played_states_matches_full_chains_random():
    rng = np.random.default_rng(8)
    pi_d = _unplayed(4, rng, [0, 2])
    line = (0.5, -1.0, 0.25)  # no ZD line: the residuals are utilities-sized
    got = max_line_residual(G4, pi_d, *line, 12, stream(8, "zd-verify"))
    expect = _full_chain_max(G4, pi_d, line, 12, stream(8, "zd-verify"))
    assert expect > 0.1
    assert abs(got - expect) <= 1e-12 * max(1.0, expect)


@pytest.mark.parametrize("entries", [None, 3 * 64])
def test_max_line_residual_leaves_the_stream_after_every_draw(monkeypatch, entries):
    # stacks of 3 chains on 8 states when entries is set: the draws come in
    # four chunks, and the generator ends where one block of draws leaves it
    if entries is not None:
        monkeypatch.setattr(markov, "VERIFY_STACK_ENTRIES", entries)
    pi_d = _unplayed(4, np.random.default_rng(2), [1, 3])
    rng, ref = stream(5, "zd-verify"), stream(5, "zd-verify")
    max_line_residual(G4, pi_d, 0.5, -1.0, 0.25, 10, rng)
    ref.dirichlet(np.ones(4), size=(10, 16))
    assert np.array_equal(rng.dirichlet(np.ones(4), size=3), ref.dirichlet(np.ones(4), size=3))


def test_max_line_residual_bit_identical_when_every_target_is_played():
    pi_d = random_strategy(4, np.random.default_rng(6))
    att = stream(6, "zd-verify").dirichlet(np.ones(4), size=(64, 16))
    v = stationary(TransitionMatrix(4, chain(pi_d.rows, att))).v
    sd, sa = profit_vector(G4, "defender"), profit_vector(G4, "attacker")
    expect = float(np.max(np.abs(0.5 * (v @ sd) - (v @ sa) + 0.25)))
    assert max_line_residual(G4, pi_d, 0.5, -1.0, 0.25, 64, stream(6, "zd-verify")) == expect


@pytest.mark.parametrize("k", [4, 7, 10])
def test_max_line_residual_solves_one_stack_on_the_played_states(monkeypatch, k):
    g, pi_d, line = _zd_solution(k)
    calls = []
    solve = markov.stationary
    monkeypatch.setattr(markov, "stationary",
                        lambda tm, *classes_of: calls.append(tm.m.shape) or solve(tm, *classes_of))
    max_line_residual(g, pi_d, *line, 64, stream(k, "zd-verify"))
    n = len(_played(pi_d)) * k
    assert n < k * k
    assert calls == [(64, n, n)]


def test_max_line_residual_starts_uniform_over_the_played_states():
    # the defender repeats its own last target and never plays target 3, so
    # {(1, *)} and {(2, *)} are closed; the reduced chain starts uniform over
    # its 6 states and reaches each class with probability 1/2, while the full
    # chain's uniform start also sends the (3, *) states, mostly to class 1
    k = 3
    rows = np.zeros((9, 3))
    rows[0:3, 0] = rows[3:6, 1] = 1.0
    rows[6:9, :2] = (0.9, 0.1)
    pi_d = MemoryOneStrategy(k, rows)
    g = GameSpec(3, (2, 1, 3), (0, -1, 1), (-2, 0, 1), (4, 2, 3))
    line = (1.0, 0.5, -0.75)
    att = stream(3, "zd-verify").dirichlet(np.ones(k), size=(1, 9))[0]
    # oracle: iterate the full K^2 chain from the uniform start on the played
    # states; every closed class is aperiodic, so the iterates converge
    full = build_transition(pi_d, MemoryOneStrategy(k, att)).m
    start = np.r_[np.full(6, 1 / 6), np.zeros(3)]
    v = start
    for _ in range(2000):
        v = v @ full
    expect = abs(line[0] * (v @ profit_vector(g, "defender"))
                 + line[1] * (v @ profit_vector(g, "attacker")) + line[2])
    got = max_line_residual(g, pi_d, *line, 1, stream(3, "zd-verify"))
    assert abs(got - expect) <= 1e-12 * max(1.0, expect)
    u = long_run_utilities(g, pi_d, MemoryOneStrategy(k, att))  # the full chain's convention
    assert abs(abs(line[0] * u.u_d + line[1] * u.u_a + line[2]) - expect) > 0.01
