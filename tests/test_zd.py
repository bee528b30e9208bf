import numpy as np
import pytest

from zdmtd.game import GameSpec, MemoryOneStrategy
from zdmtd.lp import LpNumericalError
from zdmtd.markov import long_run_utilities, max_line_residual, zd_residual
from zdmtd.rng import stream
from zdmtd.zd import (
    FeasibilityParams,
    ZdConstructionError,
    ZdLinearParams,
    _eq8_existence,
    classify,
    construct_phi,
    construct_strategy,
    defining_residual,
    eq8_violations,
)


from zdmtd.cli import solve_game

from oracles import (existence_check, existence_lp_reference, memory_two_utilities,
                     phi_grid_feasible_k2, random_game)


def line_residual(g, zd, n_samples, seed):
    """Worst |alpha u_d + beta u_a + gamma| of zd's strategy against
    n_samples Dirichlet attackers drawn from stream(seed, "zd-verify")."""
    p = zd.params
    return max_line_residual(g, zd.strategy, p.alpha, p.beta, p.gamma, n_samples,
                             stream(seed, "zd-verify"))


def test_classify_examples():
    assert classify(ZdLinearParams(0, 1, -2)).kind == "equalizer"
    c = classify(ZdLinearParams(-1, 2, 0))
    assert c.kind == "extortion" and c.chi == pytest.approx(2.0)
    c = classify(ZdLinearParams(-1, 0.5, 0))
    assert c.kind == "generous" and c.chi == pytest.approx(0.5)


def test_classify_scale_invariant():
    rng = np.random.default_rng(3)
    for _ in range(50):
        p = ZdLinearParams(*rng.normal(size=3))
        scaled = ZdLinearParams(3.7 * p.alpha, 3.7 * p.beta, 3.7 * p.gamma)
        a, b = classify(p), classify(scaled)
        assert a.kind == b.kind
        if a.chi is not None:
            assert a.chi == pytest.approx(b.chi, rel=1e-12)


def test_construct_phi_hand_example_k3():
    # |c_3| = 1, |u_3| = 0.5, |u_1| = 0.5, |c_1| = 2 with beta-only parameters
    g = GameSpec(3, (1, 1, 1), (0, 0, 0), (2, 7, 1), (0.5, 3, 0.5))
    p = ZdLinearParams(0, 1, 0)
    fp = construct_phi(g, p)
    assert fp.phi.tolist() == [4.5, 1.0, 0.0]


def test_construct_phi_zero_and_k2():
    g = GameSpec(3, (1, 1, 1), (0, 0, 0), (2, 7, 1), (0.5, 3, 0.5))
    assert construct_phi(g, ZdLinearParams(0, 0, 0)).phi.tolist() == [0, 0, 0]

    g2 = GameSpec(2, (2, 1), (0, 0), (0, 3), (2, 1))
    p = ZdLinearParams(0, 1, -1.5)
    fp = construct_phi(g2, p)
    # phi_1 = |u_1| + |c_1| = 0.5 + 1.5
    assert fp.phi.tolist() == [2.0, 0.0]


def test_construct_phi_partial_order():
    # guaranteed shape: phi_1 is the max, phi_{K-1} the min among phi_1..phi_{K-1}
    rng = np.random.default_rng(17)
    for k in (3, 4, 5, 7):
        unc = rng.normal(size=k)
        g = GameSpec(k, unc + rng.uniform(0.1, 2, size=k), unc,
                     rng.normal(size=k), rng.normal(size=k))
        p = ZdLinearParams(*rng.normal(size=3))
        phi = construct_phi(g, p).phi
        assert phi[0] >= np.max(phi[: k - 1]) - 1e-12
        assert phi[k - 2] <= np.min(phi[: k - 1]) + 1e-12
        assert phi[k - 1] == 0.0


def test_existence_zero_params():
    g = GameSpec(2, (2, 1), (0, 0), (0, 3), (2, 1))
    res = existence_check(g, ZdLinearParams(0, 0, 0))
    assert res.exists
    assert np.array_equal(res.phi.phi, [0, 0])


def test_existence_feasible_k2_with_grid_oracle():
    g = GameSpec(2, (2, 1), (0, 0), (0, 3), (2, 1))
    p = ZdLinearParams(0, 1, -1.5)
    res = existence_check(g, p)
    assert res.exists
    assert not eq8_violations(g, p, res.phi)
    assert phi_grid_feasible_k2(g, p)


def test_existence_infeasible_k2_with_grid_oracle():
    g = GameSpec(2, (1, 1), (0, 0), (0, 0), (1, 1))
    p = ZdLinearParams(1, 0, -5)
    res = existence_check(g, p)
    assert not res.exists
    assert res.witness
    assert not phi_grid_feasible_k2(g, p)


def test_existence_requires_canonical_labels():
    g = GameSpec(2, (1, 2), (0, 0), (0, 3), (2, 1))
    with pytest.raises(ValueError, match="canonical"):
        existence_check(g, ZdLinearParams(0, 1, -1.5))


def sign_ready_draw(rng, broken=False):
    """A game and parameters whose line values meet the sign conditions of
    one argmax index m: c_m <= 0 <= u_m, u_t = 0 at the other t < K and
    u_K <= 0 <= c_K, at a scale from 1e-3 to 1e3.  `broken` makes c_K
    negative, which no argmax admits."""
    k = int(rng.integers(2, 9))
    scale = 10.0 ** rng.uniform(-3, 3)
    m = int(rng.integers(k - 1))
    c = rng.normal(size=k) * scale
    u = np.zeros(k)
    c[m], u[m] = -abs(c[m]), abs(rng.normal()) * scale
    c[-1], u[-1] = abs(c[-1]), -abs(rng.normal()) * scale
    if broken:
        c[-1] = -c[-1] - 0.1 * scale
    alpha, beta, gamma = rng.normal(size=3)
    u_d_unc = rng.normal(size=k) * scale
    u_d_cov = u_d_unc + rng.uniform(0.1, 2, size=k) * scale
    g = GameSpec(k, u_d_cov, u_d_unc, (c - alpha * u_d_cov - gamma) / beta,
                 (u - alpha * u_d_unc - gamma) / beta)
    return g, ZdLinearParams(alpha, beta, gamma)


def test_least_multipliers_match_the_per_argmax_lp():
    # the closed-form least point gives the LP's verdict and, to rounding,
    # its point; the LP that minimizes sum(phi) lands there too, so the
    # closed form is the least feasible point
    rng = np.random.default_rng(2828)
    fallbacks = 0
    for i in range(2400):
        g, p = sign_ready_draw(rng, broken=i % 6 == 5)
        got, ref = _eq8_existence(g, p), existence_lp_reference(g, p)
        assert got.exists == ref.exists, (i, got.witness, ref.witness)
        if not got.exists:
            continue
        fallbacks += bool(eq8_violations(g, p, construct_phi(g, p)))
        ulps = 8 * np.finfo(float).eps * np.maximum(1.0, np.abs(got.phi.phi))
        assert np.all(np.abs(got.phi.phi - ref.phi.phi) <= ulps), (i, got.phi.phi, ref.phi.phi)
        least = existence_lp_reference(g, p, least=True)
        assert np.all(np.abs(got.phi.phi - least.phi.phi) <= ulps), (i, got.phi.phi, least.phi.phi)
    assert fallbacks >= 1000  # most draws must reach the least point


def test_existence_solves_no_lp(monkeypatch):
    def no_lp(*args, **kwargs):
        raise AssertionError("existence ran the simplex")

    monkeypatch.setattr("zdmtd.lp._simplex", no_lp)
    rng = np.random.default_rng(5)
    g, p = sign_ready_draw(rng)
    while not eq8_violations(g, p, construct_phi(g, p)):
        g, p = sign_ready_draw(rng)
    res = _eq8_existence(g, p)
    assert res.exists and not eq8_violations(g, p, res.phi)


def test_construct_strategy_hand_example_k2():
    g = GameSpec(2, (2, 1), (0, 0), (0, 3), (2, 1))
    p = ZdLinearParams(0, 1, -1.5)
    fp = construct_phi(g, p)
    zd = construct_strategy(g, p, fp)
    # one-step recursion by hand: R = (-1.5, -0.5, 0.5, 1.5), phi_1 = 2
    # pi_d(1) = R/2 + hat(1) = (0.25, 0.75, 0.25, 0.75)
    expect = np.array([[0.25, 0.75], [0.75, 0.25], [0.25, 0.75], [0.75, 0.25]])
    assert np.allclose(zd.strategy.rows, expect, atol=1e-12)
    assert zd.residual <= 1e-12
    assert zd.classification.kind == "equalizer"


def test_construct_strategy_enforces_line():
    g = GameSpec(2, (2, 1), (0, 0), (0, 3), (2, 1))
    p = ZdLinearParams(0, 1, -1.5)
    zd = construct_strategy(g, p, construct_phi(g, p))
    assert defining_residual(g, zd.strategy, p, zd.phi.phi) <= 1e-12
    assert line_residual(g, zd, 300, seed=9) <= 1e-8
    assert np.max(np.abs(zd.strategy.rows.sum(axis=1) - 1.0)) <= 1e-12


def test_construct_strategy_error_paths():
    g = GameSpec(2, (2, 1), (0, 0), (0, 3), (2, 1))
    with pytest.raises(ZdConstructionError, match="all-zero"):
        construct_strategy(g, ZdLinearParams(0, 0, 0), FeasibilityParams([0.0, 0.0]))
    with pytest.raises(ZdConstructionError, match="phi_1"):
        construct_strategy(g, ZdLinearParams(0, 1, -1.5), FeasibilityParams([0.0, 0.0]))
    # parameters whose line values violate the existence inequalities
    bad = ZdLinearParams(1, 0, -5)
    with pytest.raises(ZdConstructionError):
        construct_strategy(g, bad, FeasibilityParams([4.0, 0.0]))


def test_verify_without_samples_and_perturbation_pin():
    g = GameSpec(2, (2, 1), (0, 0), (0, 3), (2, 1))
    p = ZdLinearParams(0, 1, -1.5)
    zd = construct_strategy(g, p, construct_phi(g, p))
    assert line_residual(g, zd, 0, seed=0) == 0.0  # no attacker sampled
    assert defining_residual(g, zd.strategy, p, zd.phi.phi) <= 1e-12

    rows = zd.strategy.rows.copy()
    rows[0, 0] += 0.05
    rows[0] /= rows[0].sum()
    perturbed = MemoryOneStrategy(2, rows)
    res = defining_residual(g, perturbed, p, zd.phi.phi)
    # pinned: phi_1 * (0.30/1.05 - 0.25) = 2 * 0.0357142857...
    assert res == pytest.approx(0.0714285714285714, abs=1e-12)
    assert res > 1e-3


def test_uniform_weight_construction_enforces_line():
    g = GameSpec(3, (3, 2, 1), (0, 0, 0), (-2, 1, 0), (3, -2, -4))
    p = ZdLinearParams(0, 1, 2)  # gamma = -beta * u_a_cov[0]
    res = existence_check(g, p)
    assert res.exists
    zd = construct_strategy(g, p, res.phi)
    assert zd.residual <= 1e-8
    assert line_residual(g, zd, 100, seed=4) <= 1e-8


def equalizer_instance(k, rng):
    """Random game with the attacker-value shape that admits an equalizer
    line through the label-1 covered point, plus those parameters."""
    u_d_unc = rng.normal(size=k)
    u_d_cov = u_d_unc + rng.uniform(0.1, 2, size=k)
    order = np.argsort(-u_d_cov, kind="stable")
    t = float(rng.normal())
    u_a_cov = np.empty(k)
    u_a_unc = np.empty(k)
    u_a_cov[0] = t
    u_a_cov[1:] = t + rng.uniform(0, 2, size=k - 1)
    u_a_unc[0] = t + rng.uniform(0, 2)
    u_a_unc[1 : k - 1] = t
    u_a_unc[k - 1] = t - rng.uniform(0, 2)
    g = GameSpec(k, u_d_cov[order], u_d_unc[order], u_a_cov, u_a_unc)
    beta = float(rng.uniform(0.5, 2))
    return g, ZdLinearParams(0.0, beta, -beta * t)


def test_existence_implies_construction_and_enforcement():
    rng = np.random.default_rng(2718)
    built = 0
    for k in (2, 3):
        for trial in range(60):
            if trial % 2:
                g, p = equalizer_instance(k, rng)
            else:
                u_d_unc = rng.normal(size=k)
                u_d_cov = u_d_unc + rng.uniform(0.1, 2, size=k)
                order = np.argsort(-u_d_cov, kind="stable")
                g = GameSpec(k, u_d_cov[order], u_d_unc[order],
                             rng.normal(size=k)[order], rng.normal(size=k)[order])
                p = ZdLinearParams(*rng.normal(size=3))
            res = existence_check(g, p)
            if not res.exists:
                if k == 2 and not p.is_zero():
                    assert not phi_grid_feasible_k2(g, p)
                continue
            if p.is_zero():
                continue
            zd = construct_strategy(g, p, res.phi)
            built += 1
            assert zd.residual <= 1e-8
            for _ in range(20):
                pi_a = MemoryOneStrategy(k, rng.dirichlet(np.ones(k), size=k * k))
                r = zd_residual(g, zd.strategy, pi_a, p.alpha, p.beta, p.gamma)
                assert r <= 1e-8
    assert built >= 30  # the draw must actually exercise the construction


def test_feasibility_params_validation():
    with pytest.raises(ValueError, match="phi_K"):
        FeasibilityParams([1.0, 0.5])
    with pytest.raises(ValueError, match="nonnegative"):
        FeasibilityParams([-1.0, 0.0])


def test_line_holds_against_memory_two_attackers():
    # the enforced line binds the defender's memory-one strategy against any
    # attacker (Press & Dyson 2012), not only the memory-one ones sampled
    # elsewhere: exact solves of the K^4-state chain of a memory-two attacker
    games, attackers = np.random.default_rng(2012), np.random.default_rng(4)
    strategies = 0
    for k in (2, 3):
        for _ in range(10):
            g = random_game(k, games)
            out = solve_game(g, verify_samples=0)
            if out.params is None:  # no enforceable line
                continue
            strategies += 1
            p = out.params
            # an attacker that forgets the older state is a memory-one one
            pi_a = MemoryOneStrategy(k, attackers.dirichlet(np.ones(k), size=k * k))
            u = memory_two_utilities(g, out.strategy, np.tile(pi_a.rows, (k * k, 1)))
            exact = long_run_utilities(g, out.strategy, pi_a)
            assert np.allclose((u.u_d, u.u_a), (exact.u_d, exact.u_a), rtol=0, atol=1e-12)
            for i in range(50):
                rows = attackers.dirichlet(np.full(k, (0.05, 1.0, 20.0)[i % 3]), size=k ** 4)
                u = memory_two_utilities(g, out.strategy, rows)
                assert abs(p.alpha * u.u_d + p.beta * u.u_a + p.gamma) <= 1e-8, (k, i)
    assert strategies >= 15


def test_line_holds_against_any_attacker_property():
    # the same claim over hypothesis-drawn games: whenever solve_game finds a
    # line, memory-one and memory-two attackers alike realize a point on it
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def cases(draw):
        k = draw(st.sampled_from([2, 3]))
        value = st.floats(-5.0, 5.0)
        vec = st.lists(value, min_size=k, max_size=k)
        unc = draw(vec)
        gaps = draw(st.lists(st.floats(0.1, 3.0), min_size=k, max_size=k))
        g = GameSpec(k, [u + d for u, d in zip(unc, gaps)], unc, draw(vec), draw(vec))
        return g, draw(st.integers(0, 2**31))

    @hypothesis.settings(max_examples=20, deadline=None)
    @hypothesis.given(cases())
    def check(case):
        g, seed = case
        try:
            out = solve_game(g, verify_samples=0)
        except LpNumericalError:  # simplex failures are test_lp's and test_programs' subject
            hypothesis.reject()
        hypothesis.assume(out.params is not None)
        p, k = out.params, g.k
        rng = np.random.default_rng(seed)
        for conc in (0.05, 1.0, 20.0):
            pi_a = MemoryOneStrategy(k, rng.dirichlet(np.full(k, conc), size=k * k))
            u = long_run_utilities(g, out.strategy, pi_a)
            assert abs(p.alpha * u.u_d + p.beta * u.u_a + p.gamma) <= 1e-8, ("memory-one", conc)
            u = memory_two_utilities(g, out.strategy, rng.dirichlet(np.full(k, conc), size=k ** 4))
            assert abs(p.alpha * u.u_d + p.beta * u.u_a + p.gamma) <= 1e-8, ("memory-two", conc)

    check()
