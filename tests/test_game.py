import dataclasses
import json

import numpy as np
import pytest

from zdmtd.game import (
    CanonicalPermutation,
    GameSpec,
    MemoryOneStrategy,
    canonicalize,
    flat_index,
    game_from_dict,
    game_to_dict,
    hat_indicator,
    profit_vector,
    relabeling,
)

from oracles import (profit_vector_reference, pure_strategy, random_game, random_strategy,
                     uniform_strategy)

MATCHING_PENNIES = GameSpec(2, (1, 1), (-1, -1), (-1, -1), (1, 1))


def test_flat_index_roundtrip():
    for k in (2, 3, 5):
        seen = set()
        for i in range(1, k + 1):
            for j in range(1, k + 1):
                s = flat_index(k, i, j)
                assert divmod(s, k) == (i - 1, j - 1)
                seen.add(s)
        assert seen == set(range(k * k))


def test_one_shot_utilities_examples():
    g = MATCHING_PENNIES
    assert g.one_shot(1, 1) == (1, -1)
    assert g.one_shot(1, 2) == (-1, 1)
    assert g.one_shot(2, 2) == (1, -1)
    with pytest.raises(IndexError):
        g.one_shot(0, 1)
    with pytest.raises(IndexError):
        g.one_shot(1, 3)


def test_profit_vector_examples():
    g = GameSpec(2, (1, 4), (0, 2), (-1, -3), (5, 6))
    assert profit_vector(g, "defender").tolist() == [1, 2, 0, 4]
    assert profit_vector(g, "attacker").tolist() == [-1, 6, 5, -3]
    with pytest.raises(ValueError, match="read-only"):
        profit_vector(g, "defender")[0] = 0.0
    with pytest.raises(ValueError, match="player"):
        profit_vector(g, "worker")

    g3 = GameSpec(3, (1, 1, 1), (0, 0, 0), (0, 0, 0), (1, 1, 1))
    v = profit_vector(g3, "defender")
    expect = np.zeros(9)
    expect[[0, 4, 8]] = 1
    assert np.array_equal(v, expect)


def test_profit_vectors_are_built_once_per_game():
    g = random_game(4, np.random.default_rng(25))
    with pytest.raises(ValueError, match="player"):  # before the tables exist
        profit_vector(g, "worker")
    for player in ("defender", "attacker"):
        v = profit_vector(g, player)
        assert profit_vector(g, player) is v
        assert not v.flags.writeable
        assert v.tobytes() == profit_vector_reference(g, player).tobytes()
    for u, player in zip(g.payoff_matrices(), ("defender", "attacker")):
        assert not u.flags.writeable and u.tobytes() == profit_vector(g, player).tobytes()
    with pytest.raises(ValueError, match="player"):
        profit_vector(g, "worker")

    # a canonicalized, relabeled or replaced game is a new object with its own tables
    others = [canonicalize(g)[0], relabeling(4, 2, 3).apply_game(g),
              dataclasses.replace(g, u_a_unc=g.u_a_unc + 1.0), dataclasses.replace(g)]
    for other in others:
        for player in ("defender", "attacker"):
            v = profit_vector(other, player)
            assert not np.shares_memory(v, profit_vector(g, player))
            assert v.tobytes() == profit_vector_reference(other, player).tobytes()


def test_profit_vector_matches_one_shot():
    rng = np.random.default_rng(0)
    for k in (2, 3, 4):
        unc = rng.normal(size=k)
        g = GameSpec(k, unc + rng.uniform(0.1, 2, size=k), unc,
                     rng.normal(size=k), rng.normal(size=k))
        sd = profit_vector(g, "defender")
        sa = profit_vector(g, "attacker")
        for d in range(1, k + 1):
            for a in range(1, k + 1):
                ud, ua = g.one_shot(d, a)
                assert sd[flat_index(k, d, a)] == ud
                assert sa[flat_index(k, d, a)] == ua


def test_hat_indicator_examples():
    assert hat_indicator(2, 1).tolist() == [1, 1, 0, 0]
    assert hat_indicator(2, 2).tolist() == [0, 0, 1, 1]
    assert hat_indicator(3, 2).tolist() == [0, 0, 0, 1, 1, 1, 0, 0, 0]
    with pytest.raises(IndexError):
        hat_indicator(2, 3)


def test_hat_indicators_partition():
    for k in (2, 3, 5):
        total = sum(hat_indicator(k, t) for t in range(1, k + 1))
        assert np.array_equal(total, np.ones(k * k))


def test_assumption_violation_rejected():
    with pytest.raises(ValueError, match="target"):
        GameSpec(2, (1, 0), (0, 0), (0, 0), (0, 0))
    with pytest.raises(ValueError):
        GameSpec(1, (1,), (0,), (0,), (0,))
    with pytest.raises(ValueError):
        GameSpec(2, (1, np.inf), (0, 0), (0, 0), (0, 0))


def test_payoff_magnitude_bound():
    GameSpec(2, (1e100, 1), (0, -1e100), (-1e100, 0), (0, 1e100))
    with pytest.raises(ValueError, match="u_a_cov"):
        GameSpec(2, (1, 1), (0, 0), (2, -1e300), (0, 0))
    with pytest.raises(ValueError, match="u_d_unc"):
        GameSpec(2, (1, 1), (0, -2e100), (0, 0), (0, 0))


def test_canonicalize_sorts_by_covered_profit():
    g = GameSpec(3, (3, 7, 5), (0, 0, 0), (0, 0, 0), (1, 1, 1))
    cg, cp = canonicalize(g)
    assert cp.perm[1] == 1  # original target 2 becomes label 1
    assert cg.u_d_cov.tolist() == [7, 5, 3]
    assert cp.inverse == (2, 3, 1)
    assert CanonicalPermutation(cp.inverse).apply_game(cg).u_d_cov.tolist() == g.u_d_cov.tolist()


def test_canonicalize_identity_and_ties():
    g = GameSpec(3, (7, 5, 3), (0, 0, 0), (0, 0, 0), (1, 1, 1))
    _, cp = canonicalize(g)
    assert cp.is_identity()

    tie = GameSpec(3, (7, 7, 1), (0, 0, 0), (0, 0, 0), (1, 1, 1))
    _, cp = canonicalize(tie)
    assert cp.perm[0] == 1


def test_permutation_roundtrips_strategy_and_profit():
    rng = np.random.default_rng(42)
    g = GameSpec(3, (3, 7, 5), (0, 1, 2), (-1, 0, 1), (2, 0, 1))
    cg, cp = canonicalize(g)
    s = random_strategy(3, rng)
    back = CanonicalPermutation(cp.inverse)  # the relabeling into canonical labels
    cs = back.invert_strategy(s)
    assert np.array_equal(cp.invert_strategy(cs).rows, s.rows)
    phi = rng.normal(size=3)
    assert np.array_equal(cp.invert_phi(back.invert_phi(phi)), phi)

    # the relabeled strategy, multipliers and profits agree pointwise with the label map
    p, cpv = profit_vector(g, "attacker"), profit_vector(cg, "attacker")
    for i in range(1, 4):
        assert back.invert_phi(phi)[cp.perm[i - 1] - 1] == phi[i - 1]
        for j in range(1, 4):
            canon = flat_index(3, cp.perm[i - 1], cp.perm[j - 1])
            assert cpv[canon] == p[flat_index(3, i, j)]
            for t in range(1, 4):
                assert cs.rows[canon, cp.perm[t - 1] - 1] == s.rows[flat_index(3, i, j), t - 1]


def test_relabeling_roles():
    cp = relabeling(4, role1=3, role_k=2)
    assert cp.perm[2] == 1
    assert cp.perm[1] == 4
    # middles keep order: originals 1, 4 -> labels 2, 3
    assert cp.perm[0] == 2 and cp.perm[3] == 3


def test_strategy_validation():
    with pytest.raises(ValueError, match="sum"):
        MemoryOneStrategy(2, np.full((4, 2), 0.4))
    with pytest.raises(ValueError):
        MemoryOneStrategy(2, np.array([[1.2, -0.2]] * 4))
    # every comparison with NaN is False, so a NaN must fail the range check
    for bad in (np.nan, np.inf, -np.inf):
        rows = np.full((4, 2), 0.5)
        rows[1] = (bad, 0.5)
        with pytest.raises(ValueError, match="finite"):
            MemoryOneStrategy(2, rows)
    s = uniform_strategy(3)
    assert np.allclose(s.rows.sum(axis=1), 1)
    p = pure_strategy(2, 2)
    assert p.rows[:, 1].tolist() == [1, 1, 1, 1]


def test_game_json_strict():
    g = MATCHING_PENNIES
    d = game_to_dict(g)
    g2 = game_from_dict(json.loads(json.dumps(d)))
    assert game_to_dict(g2) == d

    with pytest.raises(ValueError, match="unknown"):
        game_from_dict({**d, "extra": 1})
    with pytest.raises(ValueError, match="missing"):
        game_from_dict({k: v for k, v in d.items() if k != "u_a_cov"})
    with pytest.raises(ValueError, match="length"):
        game_from_dict({**d, "u_d_cov": [1, 1, 1]})
    # an entry that is not a JSON number is rejected, not converted
    for entry in ("1", None, {}, True):
        with pytest.raises(ValueError, match="each entry of u_a_unc must be a number"):
            game_from_dict({**d, "u_a_unc": [1, entry]})
    with pytest.raises(ValueError, match="u_a_unc contains non-finite entries"):
        game_from_dict({**d, "u_a_unc": [1, float("nan")]})


def test_canonicalize_then_invert_is_identity_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    # small integers make covered-profit ties common; floats cover the rest
    value = st.one_of(st.integers(-3, 3).map(float),
                      st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False))
    gap = st.one_of(st.integers(1, 3).map(float), st.floats(1e-6, 1e6))

    @st.composite
    def games(draw):
        k = draw(st.integers(2, 5))
        vec = st.lists(value, min_size=k, max_size=k)
        unc = draw(vec)
        gaps = draw(st.lists(gap, min_size=k, max_size=k))
        cov = [u + d for u, d in zip(unc, gaps)]
        return GameSpec(k, cov, unc, draw(vec), draw(vec))

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(games())
    def check(g):
        gc, cp = canonicalize(g)
        assert np.all(np.diff(gc.u_d_cov) <= 0)
        assert game_to_dict(CanonicalPermutation(cp.inverse).apply_game(gc)) == game_to_dict(g)

    check()
