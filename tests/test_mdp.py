from fractions import Fraction

import numpy as np
import pytest

from zdmtd import mdp, programs
from zdmtd.cli import solve_game
from zdmtd.game import (
    GameSpec,
    MemoryOneStrategy,
    flat_index,
    profit_vector,
)
from zdmtd.markov import chain, long_run_utilities
from zdmtd.mdp import (
    TIE_TOL,
    best_response,
    defender_utility_under_br,
    _accept_swap,
    _chain_values,
    _constant_values,
    _effective_tables,
    _fundamental,
    _policy_value,
    _screen_values,
    _start,
    _swap_values,
)
from zdmtd.lp import LpNumericalError
from zdmtd.programs import realize_params, solve_ideal
from zdmtd.scenarios import iot_game, iot_scenario
from zdmtd.sse import oneshot_sse

from oracles import (
    bellman_residual,
    exact_policy_values,
    exhaustive_br,
    ideal_feasible_game,
    policy_values_reference,
    pure_strategy,
    random_strategy,
    screen_values_reference,
    start_direct,
    swap_search_direct,
    swap_search_per_state,
    swap_values_per_state,
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
    pols, u_d, u_a = policy_values_reference(g, uniform_strategy(2))
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
    pair, policy = defender_utility_under_br(g, pi_d)
    assert policy == (2, 2, 2, 2)
    # the epsilon action blending biases the value by O(1e-8)
    assert pair.u_d == pytest.approx(1.0, abs=1e-7)


def test_defender_tie_choice_large_k():
    # same equal-attacker-utility construction at K=4 takes the swap path
    g = GameSpec(4, (1, 2, 3, 4), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0))
    pair, policy = defender_utility_under_br(g, uniform_strategy(4))
    assert pair.u_d == pytest.approx(1.0, abs=1e-8)
    assert set(policy) == {4}


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
    # which is why an accepted swap with a pivot below mdp._PIVOT_FLOOR is
    # re-formed by direct solves rather than updated by rank one.
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
    uds, uas = _swap_values(f, w, fund, pol, np.arange(k * k))
    for s, (ud, ua) in enumerate(zip(uds, uas)):
        for a in range(k):
            swapped = pol.copy()
            swapped[s] = a
            tol = 1e-12 * max(1.0, base / 100, _condition(f, w, swapped) / 100)
            if kind == "random":
                assert tol == 1e-12
            ref_d, ref_a = _policy_value(g, pi_d, swapped + 1)
            assert abs(ud[a] - ref_d) <= tol
            assert abs(ua[a] - ref_a) <= tol


def _swap_inputs(k, kind, count):
    """(game, strategy) pairs: random games with Dirichlet strategies, or
    ideal-feasible games with their ZD strategies (1e-9 floor entries)."""
    rng = np.random.default_rng(900 + k)
    if kind == "random":
        return [(random_game(k, rng), random_strategy(k, rng)) for _ in range(count)]
    return [_zd_strategy(k, rng) for _ in range(count)]


@pytest.mark.parametrize("k", [4, 5, 7, 10])
@pytest.mark.parametrize("kind", ["random", "zd"])
def test_batched_swap_values_match_per_state_rows(k, kind):
    # ranges of states, as the search scores them: from the start of a sweep
    # or after a swap, to its end or to the end of a pass
    rng = np.random.default_rng(k)
    n = k * k
    for g, pi_d in _swap_inputs(k, kind, 2):
        f, w, _, sd, sa = _effective_tables(g, pi_d)
        pol = rng.integers(0, k, size=n)
        fund = _fundamental(f, w, sd, sa, pol)
        for start, stop in ((0, n), (1, n), (n // 2, n), (n - 1, n), (1, n // 2), (3, 4)):
            ud, ua = _swap_values(f, w, fund, pol, np.arange(start, stop))
            assert ud.shape == ua.shape == (stop - start, k)
            for i, s in enumerate(range(start, stop)):
                ref_d, ref_a = swap_values_per_state(f, w, fund, pol, s)
                assert np.array_equal(ud[i], ref_d) and np.array_equal(ua[i], ref_a)


@pytest.mark.parametrize("k", [4, 5, 7, 10])
@pytest.mark.parametrize("kind", ["random", "zd"])
@pytest.mark.parametrize("pass_entries", [None, 1])
def test_swap_search_matches_per_state_sweep(k, kind, pass_entries, monkeypatch):
    # below K = 13 one pass holds every state left in a sweep; a cap of one
    # entry scores one state per pass, as the cap does for a part of a sweep
    # at large K
    if pass_entries is not None:
        monkeypatch.setattr(mdp, "_SWAP_PASS_ENTRIES", pass_entries)
    for g, pi_d in _swap_inputs(k, kind, 3):
        assert defender_utility_under_br(g, pi_d) == swap_search_per_state(g, pi_d)


def test_swap_search_matches_per_state_sweep_in_capped_passes():
    # K = 16: 85 of the 256 states per pass
    g, pi_d = _swap_inputs(16, "random", 1)[0]
    assert defender_utility_under_br(g, pi_d) == swap_search_per_state(g, pi_d)


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
        pair, policy = defender_utility_under_br(g, pi_d)
        ref_policy, (ref_d, ref_a) = swap_search_direct(g, pi_d)
        assert policy == ref_policy
        assert abs(pair.u_d - ref_d) <= 1e-12
        assert abs(pair.u_a - ref_a) <= 1e-12


@pytest.mark.parametrize("k", [4, 5, 6, 8, 11, 16, 23, 30])
@pytest.mark.parametrize("kind", ["random", "zd"])
def test_start_matches_direct_solves(k, kind):
    # the lumped constant-policy pairs and Howard's fundamental-mean pair
    # agree with direct solves on K^2 states to 1e-13 of the payoff scale,
    # and the start policy is the one the direct solves choose
    for g, pi_d in _swap_inputs(k, kind, 2 if k < 16 else 1):
        f, w, _, sd, sa = _effective_tables(g, pi_d)
        tol = 1e-13 * max(1.0, *np.abs(sd), *np.abs(sa))
        n = k * k
        lumped = _constant_values(f, w, sd, sa)
        for m in range(k):
            assert np.allclose(lumped[:, m], _chain_values(f, w, sd, sa, np.full(n, m)),
                               rtol=0.0, atol=tol)
        br = best_response(g, pi_d)
        howard = np.asarray(br.policy) - 1
        fund = _fundamental(f, w, sd, sa, howard)
        assert np.allclose(fund[4:], _chain_values(f, w, sd, sa, howard), rtol=0.0, atol=tol)
        floor = br.gain - TIE_TOL
        pol, pair, start_fund = _start(f, w, sd, sa, howard.copy(), floor)
        ref_pol, ref_pair = start_direct(f, w, sd, sa, howard, floor)
        assert np.array_equal(pol, ref_pol)
        assert np.allclose(pair, ref_pair, rtol=0.0, atol=tol)
        ref_fund = _fundamental(f, w, sd, sa, pol)
        assert all(np.array_equal(x, y) for x, y in zip(start_fund, ref_fund))


@pytest.mark.parametrize("kind", ["random", "zd"])
def test_start_is_howards_policy_when_no_candidate_reaches_the_floor(kind):
    # rounding can leave Howard's u_a below gain - TIE_TOL at large payoffs;
    # with the floor above every candidate the start is Howard's policy,
    # with the pair and fundamental tuple of its own fundamental matrix
    for g, pi_d in _swap_inputs(5, kind, 2):
        f, w, _, sd, sa = _effective_tables(g, pi_d)
        howard = np.asarray(best_response(g, pi_d).policy) - 1
        fund = _fundamental(f, w, sd, sa, howard)
        candidates = np.r_[fund[5], _constant_values(f, w, sd, sa)[1]]
        floor = float(np.nextafter(candidates.max(), np.inf))
        pol, pair, start_fund = _start(f, w, sd, sa, howard.copy(), floor)
        assert np.array_equal(pol, howard)
        assert pair == (float(fund[4]), float(fund[5]))
        assert all(np.array_equal(x, y) for x, y in zip(start_fund, fund))
        ref_pol, _ = start_direct(f, w, sd, sa, howard, np.inf)
        assert np.array_equal(ref_pol, howard)


@pytest.mark.parametrize("k", [4, 5, 7, 10, 16])
@pytest.mark.parametrize("kind", ["random", "zd"])
def test_updated_pair_matches_direct_solve_of_returned_policy(k, kind, monkeypatch):
    # after every accepted swap's rank-one update of Z, the returned pair is
    # that of the returned policy, to 1e-12 of the payoff scale.  The ZD
    # strategies here accept few swaps (none at K = 4, 10 and 16)
    accepted = []

    def spy(*args):
        accepted.append(args[6])
        return _accept_swap(*args)

    monkeypatch.setattr(mdp, "_accept_swap", spy)
    for g, pi_d in _swap_inputs(k, kind, 3 if k < 16 else 1):
        pair, policy = defender_utility_under_br(g, pi_d)
        ref_d, ref_a = _policy_value(g, pi_d, policy)
        scale = max(1.0, *np.abs(profit_vector(g, "defender")), *np.abs(profit_vector(g, "attacker")))
        assert abs(pair.u_d - ref_d) <= 1e-12 * scale
        assert abs(pair.u_a - ref_a) <= 1e-12 * scale
    assert accepted or kind == "zd"


@pytest.mark.parametrize("k", [4, 7])
@pytest.mark.parametrize("kind", ["random", "zd"])
def test_pivot_floor_reforms_every_accepted_swap(k, kind, monkeypatch):
    # with the floor above every pivot, each accepted swap re-forms Z and the
    # pair by direct solves, as the search did before the update
    monkeypatch.setattr(mdp, "_PIVOT_FLOOR", np.inf)
    for g, pi_d in _swap_inputs(k, kind, 3):
        assert defender_utility_under_br(g, pi_d) == swap_search_per_state(g, pi_d, reform=True)


def test_swap_with_a_tiny_pivot_is_reformed():
    # the near-decomposable case of test_rank_one_swap_values_match_direct_solves
    # [zd-4]: moving state 2 to action 2 (0-based) has 1 - (delta Z)_s ~ 1e-8
    rng = np.random.default_rng(104)
    g, pi_d = _zd_strategy(4, rng)
    f, w, _, sd, sa = _effective_tables(g, pi_d)
    pol = rng.integers(0, 4, size=16)
    fund = _fundamental(f, w, sd, sa, pol)
    dz = np.outer(f[2], w[2] - w[pol[2]]).ravel() @ fund[0]
    assert abs(1.0 - dz[2]) < 1e-6
    new_fund, pair = _accept_swap(f, w, sd, sa, fund, pol, 2, 2)
    assert pol[2] == 2
    assert pair == _chain_values(f, w, sd, sa, pol)
    assert all(np.array_equal(x, y) for x, y in zip(new_fund, _fundamental(f, w, sd, sa, pol)))


def _batch_inputs(k, kind):
    """(game, strategy) pairs of four kinds for the K <= 3 enumeration."""
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


def _dirichlet_strategy(k, rng, concentration, zero_frac=0.0, floor=0.0):
    """Dirichlet rows, some entries set to zero, then `floor` added and the
    rows renormalized."""
    rows = rng.dirichlet(np.full(k, concentration), size=k * k)
    rows *= rng.random((k * k, k)) >= zero_frac
    rows[:, 0] += rows.sum(axis=1) == 0.0
    rows += floor
    return MemoryOneStrategy(k, rows / rows.sum(axis=1, keepdims=True))


def _enumeration_inputs(k):
    """(game, strategy) pairs for the K <= 3 enumeration: every kind of
    _batch_inputs, Dirichlet rows from spread to concentrated, exact zeros,
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
    """Worst |state reduction - chain kernel| over every policy for u_a and
    u_d, in units of 1e-6 max(1, |h|, |S_a|) and 1e-6 max(1, |S_d|)."""
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
    # the unit (0.050 at worst here).  Not to 1e-12: an eps-blended
    # deterministic attacker makes nearly decomposable chains, on which the
    # direct solve itself is ~1e-8 max(1, |S_a|) off a 50-digit solve
    for g, pi_d in _enumeration_inputs(k):
        assert max(_screen_errors(g, pi_d)) <= 0.25


def test_screen_values_match_chain_kernel_property():
    # u_a only, the value the tie set is decided by: with 1e-12 entries some
    # K = 2 chains hold entries near 5e-21, and there the direct solve's u_d
    # is up to 1e-2 off a 60-digit solve of its own system (12 units),
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


def _scratch_inputs(k):
    """Tables of random strategies, of the pipeline's ZD strategies (zero and
    1e-9 floor entries), and of those ZD strategies with every entry below
    2e-9 moved to 1e-20."""
    zd = _batch_inputs(k, "zd")[:2]
    cases = _batch_inputs(k, "random")[:2] + zd
    for g, pi_d in zd:
        rows = np.where(pi_d.rows < 2e-9, 1e-20, pi_d.rows)
        cases.append((g, MemoryOneStrategy(k, rows / rows.sum(axis=1, keepdims=True))))
    return [_effective_tables(g, pi_d) for g, pi_d in cases]


def _bits(arrays):
    return [a.tobytes() for a in arrays]


def test_screen_values_in_scratch_match_the_fresh_array_reference():
    # interleaved K = 2, 3, 2 calls, each with every scratch array filled
    # with NaN first: an entry a call reads that it did not write shows
    inputs = {k: _scratch_inputs(k) for k in (2, 3)}
    for k in (2, 3, 2):
        for f, w, _, sd, sa in inputs[k]:
            for size in (2, 3):
                for buf in mdp._scratch(size * size, size):
                    buf.fill(np.nan)
            assert _bits(_screen_values(f, w, sd, sa)) == _bits(screen_values_reference(f, w, sd, sa))


def test_screen_values_results_do_not_share_the_scratch():
    f, w, _, sd, sa = _scratch_inputs(3)[2]
    expect = _bits(screen_values_reference(f, w, sd, sa))
    first = _screen_values(f, w, sd, sa)
    assert not any(np.shares_memory(a, buf) for a in first for buf in mdp._scratch(9, 3))
    for a in first:  # writing into a returned array
        a.fill(np.nan)
    second = _screen_values(f, w, sd, sa)
    assert _bits(second) == expect
    for buf in mdp._scratch(9, 3):  # writing into the scratch
        buf.fill(-1.0)
    assert _bits(second) == expect
    assert _bits(_screen_values(f, w, sd, sa)) == expect


def _assert_choice_in_exact_tie_set(g, pi_d, result=None, check_pair=False):
    """The K <= 3 choice `result` (by default defender_utility_under_br's)
    against exact rational solves of the kernel's own systems: the chosen
    policy is in the exact tie set of the best exact u_a among Howard's
    policy, the chosen one and tie_choice_reference's, and its exact u_d is
    no less than the reference choice's when that is in the set too.  Both
    memberships allow for rounding, 1e-14 max(1, |S_a|): TIE_TOL is absolute,
    and at |S_a| ~ 1e6 it spans a few ulps of u_a.  With check_pair, the
    reported pair is within 1e-12 max(1, |S_d|, |S_a|) of the chosen
    policy's exact values."""
    pair, policy = result or defender_utility_under_br(g, pi_d)
    reference = tie_choice_reference(g, pi_d)[0]
    exact = {p: exact_policy_values(g, pi_d, p)
             for p in {best_response(g, pi_d).policy, policy, reference}}
    sd, sa = np.max(np.abs(profit_vector(g, "defender"))), np.max(np.abs(profit_vector(g, "attacker")))
    floor = max(u_a for _, u_a in exact.values()) - Fraction(TIE_TOL)
    rounding = Fraction(1e-14 * max(1.0, sa))
    u_d, u_a = exact[policy]
    assert u_a >= floor - rounding, float(floor - u_a)
    if exact[reference][1] >= floor + rounding:
        assert u_d >= exact[reference][0] - Fraction(1e-12 * max(1.0, sd))
    if check_pair:
        tol = Fraction(1e-12 * max(1.0, sd, sa))
        assert abs(Fraction(pair.u_d) - u_d) <= tol and abs(Fraction(pair.u_a) - u_a) <= tol


@pytest.mark.parametrize("k", [2, 3])
def test_enumeration_chooses_in_the_exact_tie_set(k):
    for g, pi_d in _enumeration_inputs(k):
        _assert_choice_in_exact_tie_set(g, pi_d, check_pair=True)


def test_enumeration_chooses_in_the_exact_tie_set_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=15, deadline=None)
    @hypothesis.given(st.sampled_from([2, 3]), st.integers(0, 2**31),
                      st.sampled_from([0.05, 1.0, 20.0]), st.floats(0.0, 0.6),
                      st.sampled_from([0.0, 1e-12, 1e-9]), st.integers(-3, 6))
    def check(k, seed, concentration, zero_frac, floor, exponent):
        rng = np.random.default_rng(seed)
        g = random_game(k, rng, scale=10.0**exponent)
        _assert_choice_in_exact_tie_set(
            g, _dirichlet_strategy(k, rng, concentration, zero_frac, floor))

    check()


def test_zd_strategy_choice_matches_full_enumeration_property():
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
        except LpNumericalError:  # simplex failures are test_lp's and test_programs' subject
            hypothesis.reject()
        hypothesis.assume(out.strategy is not None)
        _assert_choice_in_exact_tie_set(g, out.strategy)

    check()


def test_solve_pipeline_chooses_in_the_exact_tie_set(monkeypatch):
    # a random K = 3 game whose four scoring calls in `solve` include two
    # where a stacked LAPACK solve of every chain chose a policy 4.1e-9 and
    # 8.3e-9 below the exact maximum gain, outside the tie set
    g = GameSpec(3, [2.60574313, 1.42868402, -0.35174128], [0.80710772, 0.7280049, -0.48226524],
                 [0.64813484, 0.56547711, -0.22515171], [0.05799132, -0.73672194, 0.7317166])
    calls = []

    def spy(game, pi_d):
        calls.append((game, pi_d, defender_utility_under_br(game, pi_d)))
        return calls[-1][2]

    monkeypatch.setattr(programs, "defender_utility_under_br", spy)
    solve_game(g, verify_samples=0)
    assert len(calls) == 4
    for call in calls:
        _assert_choice_in_exact_tie_set(*call)
