import numpy as np
import pytest

from zdmtd import mdp as mdp_module
from zdmtd.cli import solve_game
from zdmtd.game import (
    GameSpec,
    MemoryOneStrategy,
    flat_index,
)
from zdmtd.markov import UtilityPair, chain, long_run_utilities
from zdmtd.mdp import (
    TIE_TOL,
    best_response,
    defender_utility_under_br,
    _effective_tables,
    _fundamental,
    _policy_index,
    _policy_value,
    _policy_values_batch,
    _screen_values,
    _swap_values,
)
from zdmtd.lp import LpNumericalError
from zdmtd.programs import realize_params, solve_ideal
from zdmtd.scenarios import iot_game, iot_scenario
from zdmtd.sse import oneshot_sse

from oracles import (
    bellman_residual,
    exhaustive_br,
    ideal_feasible_game,
    policy_values_reference,
    pure_strategy,
    random_strategy,
    swap_search_direct,
    tie_choice_reference,
    uniform_strategy,
)


def random_game(k, rng, scale=1.0):
    unc = rng.normal(size=k) * scale
    return GameSpec(k, unc + rng.uniform(0.1, 2, size=k), unc,
                    rng.normal(size=k) * scale, rng.normal(size=k) * scale)


def r_eff_bruteforce(g, f, w, s, a):
    """sum_d F[s, d] sum_a' W[a, a'] u_a(d, a'), 1-based action a."""
    return sum(f[s, d - 1] * sum(w[a - 1, b - 1] * g.one_shot(d, b)[1]
                                 for b in range(1, g.k + 1))
               for d in range(1, g.k + 1))


def test_build_mdp_pure_defender():
    g = GameSpec(2, (1, 1), (-1, -1), (-1, -1), (1, 1))
    pi_d = pure_strategy(2, 1)
    f, w, r_eff, _, _ = _effective_tables(g, pi_d)
    for s in range(4):
        for a in (1, 2):
            # the blended sums round apart from the brute-force order by an ulp
            assert r_eff[s, a - 1] == pytest.approx(r_eff_bruteforce(g, f, w, s, a), abs=1e-15)
            t = chain(pi_d.rows, np.eye(2)[[a - 1] * 4])[s]
            assert t[flat_index(2, 1, a)] == 1.0
            assert t.sum() == pytest.approx(1.0)


def test_build_mdp_uniform_defender():
    g = GameSpec(3, (2, 1, 3), (0, -1, 1), (-2, 0, 1), (4, 2, 3))
    f, w, r_eff, _, _ = _effective_tables(g, uniform_strategy(3))
    for a in range(1, 4):
        expect = [r_eff_bruteforce(g, f, w, s, a) for s in range(9)]
        assert np.allclose(r_eff[:, a - 1], expect)


def test_build_mdp_matches_bruteforce_sum():
    rng = np.random.default_rng(11)
    g = random_game(2, rng)
    pi_d = random_strategy(2, rng)
    f, w, r_eff, _, _ = _effective_tables(g, pi_d)
    for s in range(4):
        for a in (1, 2):
            assert r_eff[s, a - 1] == pytest.approx(r_eff_bruteforce(g, f, w, s, a), abs=1e-14)


@pytest.mark.parametrize("fn", [best_response, defender_utility_under_br, exhaustive_br])
def test_k_mismatch_is_rejected(fn):
    g = GameSpec(3, (2, 1, 3), (0, -1, 1), (-2, 0, 1), (4, 2, 3))
    with pytest.raises(ValueError, match="K mismatch"):
        fn(g, uniform_strategy(2))


def test_best_response_dominant_target():
    g = GameSpec(3, (1, 1, 1), (0, 0, 0), (0, 3, 0), (0, 2, 0))
    br = best_response(g, uniform_strategy(3))
    assert br.policy == tuple([2] * 9)
    expect = 3 / 3 + (1 - 1 / 3) * 2
    assert br.gain == pytest.approx(expect, abs=1e-7)


def test_exhaustive_counts_and_guard():
    rng = np.random.default_rng(1)
    g2 = random_game(2, rng)
    br = exhaustive_br(g2, random_strategy(2, rng))
    assert br.policies_evaluated == 2**4 == 16

    g3 = random_game(3, rng)
    br = exhaustive_br(g3, random_strategy(3, rng))
    assert br.policies_evaluated == 3**9 == 19683

    g4 = random_game(4, rng)
    with pytest.raises(ValueError, match="K <= 3"):
        exhaustive_br(g4, random_strategy(4, rng))


@pytest.mark.parametrize("k,seed", [(2, 3), (3, 5)])
def test_policy_iteration_matches_exhaustive_seeded(k, seed):
    rng = np.random.default_rng(seed)
    g = random_game(k, rng)
    pi_d = random_strategy(k, rng)
    pi = best_response(g, pi_d)
    ex = exhaustive_br(g, pi_d)
    assert abs(pi.gain - ex.gain) <= 1e-8


def test_policy_iteration_matches_exhaustive_many():
    rng = np.random.default_rng(2024)
    for k, trials in ((2, 50), (3, 10)):
        for _ in range(trials):
            g = random_game(k, rng)
            pi_d = random_strategy(k, rng)
            pi = best_response(g, pi_d)
            ex = exhaustive_br(g, pi_d)
            assert abs(pi.gain - ex.gain) <= 1e-8


def test_gain_dominates_random_attackers():
    rng = np.random.default_rng(99)
    g = random_game(2, rng)
    pi_d = random_strategy(2, rng)
    br = best_response(g, pi_d)
    for _ in range(1000):
        pi_a = random_strategy(2, rng)
        u = long_run_utilities(g, pi_d, pi_a)
        assert br.gain >= u.u_a - 1e-8


def test_bellman_residual_bound():
    rng = np.random.default_rng(4)
    for k in (2, 3, 4):
        g = random_game(k, rng)
        pi_d = random_strategy(k, rng)
        br = best_response(g, pi_d)
        assert bellman_residual(g, pi_d, br) <= 1e-9


def test_defender_utility_matches_exhaustive_tieset():
    rng = np.random.default_rng(21)
    g = random_game(2, rng)
    pair, br = defender_utility_under_br(g, uniform_strategy(2))
    # exhaustive reference: best attacker gain, then best defender value in ties
    pols, u_d, u_a = _policy_values_batch(g, uniform_strategy(2))
    tie = u_a >= u_a.max() - 1e-9
    assert pair.u_a == pytest.approx(u_a.max(), abs=1e-9)
    assert pair.u_d == pytest.approx(u_d[tie].max(), abs=1e-12)


def test_defender_favoring_tie_choice():
    # attacker utility is identically zero, so every policy is a best
    # response; the optimistic follower must attack the defender's favorite
    g = GameSpec(2, (1, 2), (0, 0), (0, 0), (0, 0))
    pi_d = uniform_strategy(2)
    plain = best_response(g, pi_d)
    assert plain.policy == (1, 1, 1, 1)  # lexicographic tie rule
    pair, chosen = defender_utility_under_br(g, pi_d)
    assert chosen.policy == (2, 2, 2, 2)
    # the epsilon action blending biases the value by O(1e-8)
    assert pair.u_d == pytest.approx(1.0, abs=1e-7)


def test_defender_tie_choice_large_k():
    # same equal-attacker-utility construction at K=4 takes the swap path
    g = GameSpec(4, (1, 2, 3, 4), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0))
    pair, chosen = defender_utility_under_br(g, uniform_strategy(4))
    assert pair.u_d == pytest.approx(1.0, abs=1e-8)
    assert set(chosen.policy) == {4}


def test_extortion_line_pins_defender_value_under_br():
    # alpha < 0, beta > 0: the attacker's own optimization walks the defender
    # to the top of the enforced line, the best covered profit
    from zdmtd.programs import realize_params, solve_ideal
    g = GameSpec(3, (2.0, 1.2, 1.0), (1.5, 0.6, -1.0), (1.0, 0.5, 2.0),
                 (1.0, 0.3, -1.0))
    ideal = solve_ideal(g)
    assert ideal.found and ideal.params.alpha < 0 < ideal.params.beta
    strategy, _, _ = realize_params(g, ideal.params, ideal.role1, ideal.role_k)
    pair, _ = defender_utility_under_br(g, strategy)
    assert pair.u_d == pytest.approx(2.0, abs=1e-6)


def test_policy_value_matches_long_run_for_interior_defender():
    rng = np.random.default_rng(8)
    g = random_game(3, rng)
    pi_d = random_strategy(3, rng)
    # a mixed attacker policy is itself a memory-one strategy; evaluating it
    # through the markov module must agree up to the epsilon blending
    policy = [int(a) + 1 for a in rng.integers(0, 3, size=9)]
    ud, ua = _policy_value(g, pi_d, policy)
    rows = np.zeros((9, 3))
    rows[np.arange(9), np.asarray(policy) - 1] = 1.0
    from zdmtd.game import MemoryOneStrategy
    from zdmtd.markov import eps_mixed
    pi_a = eps_mixed(MemoryOneStrategy(3, rows))
    u = long_run_utilities(g, pi_d, pi_a)
    assert ud == pytest.approx(u.u_d, abs=1e-10)
    assert ua == pytest.approx(u.u_a, abs=1e-10)


def _zd_strategy(k, rng):
    g = ideal_feasible_game(k, rng)
    ideal = solve_ideal(g)
    assert ideal.found
    built = realize_params(g, ideal.params, ideal.role1, ideal.role_k)
    assert built is not None
    return g, built[0]


def _condition(f, w, pol):
    """||Z||_inf of the policy's fundamental matrix, the sensitivity of its
    stationary vector to rounding."""
    n = f.shape[0]
    return np.abs(np.linalg.inv(np.eye(n) - chain(f, w[pol]) + 1.0 / n)).sum(axis=1).max()


@pytest.mark.parametrize("k", [4, 5, 7])
@pytest.mark.parametrize("kind", ["random", "zd"])
def test_rank_one_swap_values_match_direct_solves(k, kind):
    # 1e-12 wherever the base and swapped chains are well conditioned
    # (||Z|| <= 100, every random-strategy chain here).  A ZD strategy's
    # 1e-9 floor entries make nearly decomposable chains (||Z|| ~ 1e8),
    # either the base policy's or one a swap creates by closing a rarely
    # entered class around s.  The rounding-error bound of both the update
    # and the direct solve is then about eps * ||Z||, and the tolerance grows
    # with it.  In the second case the update is the less accurate of the
    # two (it divides v_s ~ 1e-9 by 1 - (delta Z)_s ~ 1e-8; 1.1e-9 off at
    # K = 4 where the direct solve is within 3e-15 of a 40-digit solve),
    # which is why an accepted swap is re-scored by a direct solve.
    rng = np.random.default_rng(100 + k)
    if kind == "random":
        g = random_game(k, rng)
        pi_d = random_strategy(k, rng)
    else:
        g, pi_d = _zd_strategy(k, rng)
    f, w, _, sd, sa = _effective_tables(g, pi_d)
    pol = rng.integers(0, k, size=k * k)
    fund = _fundamental(f, w, sd, sa, pol)
    base = _condition(f, w, pol)
    for s in range(k * k):
        ud, ua = _swap_values(f, w, fund, pol, s)
        for a in range(k):
            swapped = pol.copy()
            swapped[s] = a
            tol = 1e-12 * max(1.0, base / 100, _condition(f, w, swapped) / 100)
            if kind == "random":
                assert tol == 1e-12
            ref_d, ref_a = _policy_value(g, pi_d, swapped + 1)
            assert abs(ud[a] - ref_d) <= tol
            assert abs(ua[a] - ref_a) <= tol


def test_swap_search_matches_direct_solve_reference():
    rng = np.random.default_rng(2605)
    cases = []
    for k in range(4, 9):
        for _ in range(3):
            cases.append((random_game(k, rng), None))
        for _ in range(3):
            cases.append(_zd_strategy(k, rng))
    for g, pi_d in cases:
        if pi_d is None:
            pi_d = random_strategy(g.k, rng)
        pair, chosen = defender_utility_under_br(g, pi_d)
        policy, (ref_d, ref_a) = swap_search_direct(g, pi_d)
        assert chosen.policy == policy
        assert abs(pair.u_d - ref_d) <= 1e-12
        assert abs(pair.u_a - ref_a) <= 1e-12


def _batch_inputs(k, kind):
    """(game, strategy) pairs for the enumeration kernel checks."""
    rng = np.random.default_rng(700 + k)
    if kind == "random":
        return [(random_game(k, rng), random_strategy(k, rng)) for _ in range(3)]
    if kind == "zd":  # the pipeline's strategies, floor entries and zeros included
        cases = []
        while len(cases) < 4:
            g = random_game(k, rng)
            out = solve_game(g, verify_samples=0, evaluate_br=False)
            if out.strategy is not None:
                cases.append((g, out.strategy))
        return cases
    if kind == "zeros":  # exact zero entries take the eps_mixed path
        rows = random_strategy(k, rng).rows * (rng.random((k * k, k)) < 0.6)
        rows[:, 0] += rows.sum(axis=1) == 0.0
        return [(random_game(k, rng), pure_strategy(k, 1)),
                (random_game(k, rng), MemoryOneStrategy(k, rows / rows.sum(axis=1, keepdims=True)))]
    g = iot_game(iot_scenario(k, 2, theta=0.5))  # memoryless: every policy ties
    return [(g, oneshot_sse(g).lifted(k))]


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("kind", ["random", "zd", "zeros", "oneshot"])
def test_policy_values_batch_matches_chain_kernel(k, kind):
    cases = _batch_inputs(k, kind)
    if kind == "zd" and k == 2:
        assert any(0.0 < s.rows.min() <= 1e-8 for _, s in cases)
    if kind == "zeros":
        assert all(s.rows.min() == 0.0 for _, s in cases)
    for g, pi_d in cases:
        got = _policy_values_batch(g, pi_d)
        ref = policy_values_reference(g, pi_d)
        for x, y in zip(got, ref):
            assert np.array_equal(x, y)
        if kind == "oneshot":
            u_a = got[2]
            assert np.all(u_a >= u_a.max() - TIE_TOL)


@pytest.mark.parametrize("k", [2, 3])
def test_best_response_paths_match_reference_kernel(k, monkeypatch):
    cases = [case for kind in ("random", "zd", "zeros", "oneshot") for case in _batch_inputs(k, kind)]
    got = [(defender_utility_under_br(g, s), exhaustive_br(g, s)) for g, s in cases]
    monkeypatch.setattr(mdp_module, "_policy_values_batch", policy_values_reference)
    for ((pair, chosen), ex), (g, s) in zip(got, cases):
        (ref_pair, ref_chosen), ref_ex = defender_utility_under_br(g, s), exhaustive_br(g, s)
        assert pair == ref_pair
        for a, b in ((chosen, ref_chosen), (ex, ref_ex)):
            assert a.policy == b.policy and a.gain == b.gain
            assert a.policies_evaluated == b.policies_evaluated
            assert np.array_equal(a.bias, b.bias)


def test_policy_values_batch_matches_chain_kernel_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=12, deadline=None)
    @hypothesis.given(st.sampled_from([2, 3]), st.integers(0, 2**31), st.floats(0.0, 0.9))
    def check(k, seed, zero_frac):
        rng = np.random.default_rng(seed)
        rows = rng.dirichlet(np.ones(k), size=k * k) * (rng.random((k * k, k)) >= zero_frac)
        rows[:, 0] += rows.sum(axis=1) == 0.0
        g = random_game(k, rng, scale=float(rng.uniform(0.1, 100.0)))
        pi_d = MemoryOneStrategy(k, rows / rows.sum(axis=1, keepdims=True))
        for x, y in zip(_policy_values_batch(g, pi_d), policy_values_reference(g, pi_d)):
            assert np.array_equal(x, y)

    check()


def test_policy_index_enumerates_once_per_k_read_only(monkeypatch):
    calls = []
    enumerate_policies = mdp_module._enumerate_policies

    def spy(k):
        calls.append(k)
        return enumerate_policies(k)

    monkeypatch.setattr(mdp_module, "_enumerate_policies", spy)
    _policy_index.cache_clear()
    try:
        rng = np.random.default_rng(3)
        for k in (2, 3, 2, 3, 3):
            pols, _, _ = _policy_values_batch(random_game(k, rng), random_strategy(k, rng))
            assert np.array_equal(pols, enumerate_policies(k))
            with pytest.raises(ValueError, match="read-only"):
                pols[0, 0] = 1
            with pytest.raises(ValueError, match="read-only"):
                _policy_index(k)[1][0, 0, 0] = 0
        assert sorted(calls) == [2, 3]
    finally:
        _policy_index.cache_clear()


def _dirichlet_strategy(k, rng, concentration, zero_frac=0.0, floor=0.0):
    """Dirichlet rows, some entries set to zero, then `floor` added and the
    rows renormalized."""
    rows = rng.dirichlet(np.full(k, concentration), size=k * k)
    rows *= rng.random((k * k, k)) >= zero_frac
    rows[:, 0] += rows.sum(axis=1) == 0.0
    rows += floor
    return MemoryOneStrategy(k, rows / rows.sum(axis=1, keepdims=True))


def _enumeration_inputs(k):
    """(game, strategy) pairs for the K <= 3 enumeration: the batch kernel's
    inputs, Dirichlet rows from spread to concentrated, exact zeros,
    near-deterministic rows, payoff scales 1e-3..1e6 and attacker payoffs
    tied to within 1e-10."""
    cases = [case for kind in ("random", "zd", "zeros", "oneshot") for case in _batch_inputs(k, kind)]
    rng = np.random.default_rng(900 + k)
    for scale in (1e-3, 1.0, 1e6):
        for concentration in (0.05, 1.0, 20.0):
            cases.append((random_game(k, rng, scale), _dirichlet_strategy(k, rng, concentration)))
        cases.append((random_game(k, rng, scale), _dirichlet_strategy(k, rng, 1.0, zero_frac=0.4)))
        cases.append((random_game(k, rng, scale), _dirichlet_strategy(k, rng, 0.05, floor=1e-12)))
    for concentration in (1.0, 20.0):
        base = random_game(k, rng)
        tied = GameSpec(k, base.u_d_cov, base.u_d_unc, 1.0 + 1e-10 * rng.normal(size=k),
                        0.5 + 1e-10 * rng.normal(size=k))
        cases.append((tied, _dirichlet_strategy(k, rng, concentration)))
    return cases


def _screen_errors(g, pi_d):
    """Worst |screen - chain kernel| over every policy for u_a and u_d, in
    units of the margin's rounding allowance 1e-6 max(1, |h|, |S_a|) and of
    its defender analogue 1e-6 max(1, |S_d|)."""
    tables = f, w, _, sd, sa = _effective_tables(g, pi_d)
    br = best_response(g, pi_d, tables)
    _, ref_d, ref_a = policy_values_reference(g, pi_d, tables)
    u_d, u_a = _screen_values(f, w, sd, sa)
    allowance_a = 1e-6 * max(1.0, np.max(np.abs(br.bias)), np.max(np.abs(sa)))
    allowance_d = 1e-6 * max(1.0, np.max(np.abs(sd)))
    return np.max(np.abs(u_a - ref_a)) / allowance_a, np.max(np.abs(u_d - ref_d)) / allowance_d


@pytest.mark.parametrize("k", [2, 3])
def test_screen_values_match_chain_kernel(k):
    # the state reduction and the stacked direct solve agree to a quarter of
    # the allowance (0.050 at worst here).  Not to 1e-12: an eps-blended
    # deterministic attacker makes nearly decomposable chains, on which the
    # direct solve itself is ~1e-8 max(1, |S_a|) off a 50-digit solve
    for g, pi_d in _enumeration_inputs(k):
        assert max(_screen_errors(g, pi_d)) <= 0.25


def test_screen_values_match_chain_kernel_property():
    # u_a only, the value the screen decides by: with 1e-12 entries some
    # K = 2 chains hold entries near 5e-21, and there the direct solve's u_d
    # is up to 1e-2 off a 60-digit solve of its own system (12 allowances),
    # while the reduction stays within 3e-13 of it
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=15, deadline=None)
    @hypothesis.given(st.sampled_from([2, 3]), st.integers(0, 2**31),
                      st.sampled_from([0.05, 1.0, 20.0]), st.floats(0.0, 0.6),
                      st.sampled_from([0.0, 1e-12, 1e-9]), st.integers(-3, 6))
    def check(k, seed, concentration, zero_frac, floor, exponent):
        rng = np.random.default_rng(seed)
        g = random_game(k, rng, scale=10.0**exponent)
        u_a_error, _ = _screen_errors(g, _dirichlet_strategy(k, rng, concentration, zero_frac, floor))
        assert u_a_error <= 0.25

    check()


def _without_pruning(monkeypatch):
    monkeypatch.setattr(mdp_module, "_tie_margin", lambda *args: np.inf)


def _assert_choice_matches_full_enumeration(g, pi_d, monkeypatch=None):
    pair, chosen = defender_utility_under_br(g, pi_d)
    policy, u_d, u_a = tie_choice_reference(g, pi_d)
    assert chosen.policy == policy and pair == UtilityPair(u_d, u_a) and chosen.gain == u_a
    assert 1 <= chosen.policies_evaluated <= g.k ** (g.k * g.k)
    if monkeypatch is not None:
        with monkeypatch.context() as m:
            _without_pruning(m)
            full_pair, full = defender_utility_under_br(g, pi_d)
        assert full_pair == pair and full.policy == chosen.policy and full.gain == chosen.gain
        assert np.array_equal(full.bias, chosen.bias)
        assert full.policies_evaluated == g.k ** (g.k * g.k)


@pytest.mark.parametrize("k", [2, 3])
def test_pruned_enumeration_is_bit_identical(k, monkeypatch):
    for g, pi_d in _enumeration_inputs(k):
        _assert_choice_matches_full_enumeration(g, pi_d, monkeypatch)


def test_pruned_enumeration_is_bit_identical_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=15, deadline=None)
    @hypothesis.given(st.sampled_from([2, 3]), st.integers(0, 2**31),
                      st.sampled_from([0.05, 1.0, 20.0]), st.floats(0.0, 0.6),
                      st.sampled_from([0.0, 1e-12, 1e-9]), st.integers(-3, 6))
    def check(k, seed, concentration, zero_frac, floor, exponent):
        rng = np.random.default_rng(seed)
        g = random_game(k, rng, scale=10.0**exponent)
        _assert_choice_matches_full_enumeration(
            g, _dirichlet_strategy(k, rng, concentration, zero_frac, floor))

    check()


def test_zd_strategy_choice_matches_full_enumeration_property(monkeypatch):
    # the pipeline's ZD strategies: zero and 1e-9 floor entries, the
    # strategies the K <= 3 scoring calls of `solve` see
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def games(draw):
        k = draw(st.sampled_from([2, 3]))
        value = st.floats(-5.0, 5.0)
        vec = st.lists(value, min_size=k, max_size=k)
        unc = draw(vec)
        gaps = draw(st.lists(st.floats(0.1, 3.0), min_size=k, max_size=k))
        return GameSpec(k, [u + d for u, d in zip(unc, gaps)], unc, draw(vec), draw(vec))

    @hypothesis.settings(max_examples=12, deadline=None)
    @hypothesis.given(games())
    def check(g):
        try:
            out = solve_game(g, verify_samples=0)
        except LpNumericalError:  # pinned apart: test_programs' near-tolerance LP case
            hypothesis.reject()
        hypothesis.assume(out.strategy is not None)
        _assert_choice_matches_full_enumeration(g, out.strategy, monkeypatch)

    check()


def test_enumeration_solves_only_screened_policies(monkeypatch):
    # a spread Dirichlet strategy and a ZD strategy (zero and 1e-9 floor
    # entries) prune by the screened deficits; the lifted one-shot strategy
    # (every policy ties) solves every chain, and policies_evaluated counts
    # the systems solved
    solved = []
    solve_direct = mdp_module._solve_direct

    def spy(a):
        solved.append(a.shape[0])
        return solve_direct(a)

    monkeypatch.setattr(mdp_module, "_solve_direct", spy)
    rng = np.random.default_rng(31)
    cases = [(random_game(3, rng), _dirichlet_strategy(3, rng, 1.0))]
    cases += [_batch_inputs(3, "zd")[0], _batch_inputs(3, "oneshot")[0]]
    counts = []
    for g, pi_d in cases:
        solved.clear()
        _, chosen = defender_utility_under_br(g, pi_d)
        assert chosen.policies_evaluated == sum(solved)
        counts.append(sum(solved))
    assert counts[0] < 3**9 and counts[1] < 3**9 and counts[2] == 3**9
    _, chosen = defender_utility_under_br(random_game(4, rng), random_strategy(4, rng))
    assert chosen.policies_evaluated is None  # the swap search above K = 3


@pytest.mark.parametrize("k", [2, 3])
def test_masked_values_match_the_full_stack(k):
    # the solved policies keep the values they have in the full stack: the
    # products with the profit vectors are taken on the full stack, whose
    # rows BLAS rounds by their position
    rng = np.random.default_rng(40 + k)
    for g, pi_d in _batch_inputs(k, "random"):
        for frac in (0.02, 0.1, 0.5):
            solve = rng.random(k ** (k * k)) < frac
            solve[rng.integers(len(solve))] = True
            got = _policy_values_batch(g, pi_d, solve=solve)
            for x, y in zip(got, policy_values_reference(g, pi_d, solve=solve)):
                assert np.array_equal(x, y)
            assert np.all(got[2][~solve] == -np.inf)
