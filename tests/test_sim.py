import dataclasses
import json
import math
from bisect import bisect_right

import numpy as np
import pytest

from zdmtd import sim
from zdmtd.cli import _load_strategy, main, solve_game
from zdmtd.game import PROB_TOL, GameSpec, MemoryOneStrategy
from zdmtd.markov import long_run_utilities
from zdmtd.scenarios import crowd_game, crowd_scenario, scenario_to_dict, with_switching
from zdmtd.sim import (
    _CHUNK,
    TrajectoryStats,
    _cumulative_rows,
    _pick_table,
    _running_sums,
    best_response_profile,
    fixed_profile,
    regime_summaries,
    simulate,
    switching_experiment,
    switching_profile,
)
from zdmtd.zd import ZdLinearParams

from oracles import (
    pure_strategy,
    random_game,
    random_strategy,
    regime_summaries_reference,
    running_sums_reference,
    segment_records,
    simulate_reference,
)

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
    assert segment_records(a) == segment_records(b)
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
    assert a.segment_regime.tolist() == ["honest"]


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
    seq_a = a.stats.segment_regime.tolist()
    seq_b = b.stats.segment_regime.tolist()
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
    assert a.segment_regime.tolist() == b.segment_regime.tolist()
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
    segments = segment_records(stats)
    assert len(segments) == len(ref["segments"])
    for seg, want in zip(segments, ref["segments"]):
        assert (seg["regime"], seg["start"], seg["length"]) == \
            (want["regime"], want["start"], want["length"])
        assert seg.get("phi_boundary") == want.get("phi_boundary")
        for key in ("mean_u_d", "mean_u_a", "ref_mean_u_d", "ref_mean_u_a"):
            got = seg.get(key)
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


def edge_row(k, kind, weights, j, neg):
    """A strategy row of one kind: `weights` normalized (exact zeros kept),
    one-hot at j, summing to 1 - 1e-13, or with entry j set to -neg
    (0 <= neg <= PROB_TOL) and the rest scaled to 1 + neg."""
    row = np.array(weights, dtype=float)
    if kind == "one-hot" or not row.any():
        return np.eye(k)[j]
    row /= row.sum()
    if kind == "short":
        row[-1] -= 1e-13
    elif kind == "negative":
        row[j] = 0.0
        if not row.any():
            row[(j + 1) % k] = 1.0
        row *= (1.0 + neg) / row.sum()
        row[j] = -neg
    return row


def edge_example():
    """A fixed K = 3 case of every row kind, over one block boundary."""
    kinds = ("mixed", "one-hot", "short", "negative")
    rows = [edge_row(3, kinds[s % 4], [s % 3, 0.0, 1.0], s % 3, PROB_TOL)
            for s in range(9)]
    return 3, np.array(rows), np.array(rows[::-1]), "switching", _CHUNK + 3, 7, 50, 3, True, 11


def test_simulate_matches_reference_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def cases(draw):
        k = draw(st.sampled_from([2, 3, 4]))
        weight = st.one_of(st.sampled_from([0.0, 0.25, 1.0, 3.0]), st.floats(0.01, 1.0))

        def rows():
            return np.array([edge_row(
                k, draw(st.sampled_from(["mixed", "one-hot", "short", "negative"])),
                draw(st.lists(weight, min_size=k, max_size=k)), draw(st.integers(0, k - 1)),
                draw(st.floats(0.0, PROB_TOL))) for _ in range(k * k)])

        return (k, rows(), rows(), draw(st.sampled_from(["fixed", "best_response", "switching"])),
                draw(st.integers(1, 400)), draw(st.integers(1, 50)), draw(st.integers(1, 60)),
                draw(st.integers(0, 80)), draw(st.booleans()), draw(st.integers(0, 2**31)))

    @hypothesis.settings(max_examples=80, deadline=None)
    @hypothesis.given(cases())
    @hypothesis.example(edge_example())
    def check(case):
        k, rows_d, rows_a, kind, steps, stride, period, lag, honest_first, seed = case
        rng = np.random.default_rng(seed)
        honest, malicious = random_game(k, rng), random_game(k, rng)
        pi_d = MemoryOneStrategy(k, rows_d)
        profile = {
            "fixed": lambda: fixed_profile(MemoryOneStrategy(k, rows_a)),
            "best_response": best_response_profile,
            "switching": lambda: switching_profile(
                period, "honest" if honest_first else "malicious", honest, malicious, lag=lag),
        }[kind]()
        # phi = 10^(d - 1) makes every segment's phi_boundary name both defender actions
        kwargs = {"reference_game": malicious, "gauge_phi": 10.0 ** np.arange(k)}
        stats = simulate(honest, pi_d, profile, steps, seed, stride=stride, **kwargs)
        assert_matches_reference(stats, simulate_reference(
            honest, pi_d, profile, steps, seed, stride=stride, **kwargs))
        # pooling from the segment columns is the pooling of per-segment records, bit for bit
        params = ZdLinearParams(*rng.normal(size=3).tolist())
        assert regime_summaries(stats, params) == \
            regime_summaries_reference(segment_records(stats), params)

    check()


def test_running_sums_are_compensated_across_blocks():
    x = np.array([[1.0] + [1e-16] * 999, [0.1] * 1000])
    exact = [[math.fsum(row[:i + 1]) for i in range(row.size)] for row in x]
    whole = _running_sums(x, np.zeros((2, 2)), np.empty((2, 2, 1001)))
    first = _running_sums(x[:, :300], np.zeros((2, 2)), np.empty((2, 2, 301)))
    rest = _running_sums(x[:, 300:], first[..., -1], np.empty((2, 2, 701)))
    assert np.array_equal(np.concatenate([first, rest], axis=2), whole)
    assert np.all(np.abs(whole.sum(0) - exact) <= 2.3e-16 * np.abs(exact))
    # a plain running sum drops every 1e-16 after the leading 1.0
    assert np.cumsum(x[0])[-1] == 1.0 and exact[0][-1] > 1.0


def sum2_blocks(rng, n):
    """Blocks for `_running_sums`: signed entries from 1e-16 to 1e16 with
    exact and negative zeros, 2 and 4 rows, and the [1.0, 1e-16, ...] row."""
    for rows in (2, 4):
        x = rng.choice([-1.0, 1.0], size=(rows, n)) * 10.0 ** rng.uniform(-16, 16, (rows, n))
        x[rng.random((rows, n)) < 0.05] = 0.0
        x[rng.random((rows, n)) < 0.05] = -0.0
        yield x
    yield np.array([[1.0] + [1e-16] * (n - 1), [0.1] * n])


@pytest.mark.parametrize("n", [1, 2, 4096])
def test_running_sums_match_the_concatenating_reference(n):
    rng = np.random.default_rng(n)
    for x in sum2_blocks(rng, n):
        rows = len(x)
        carries = [np.zeros((2, rows)),
                   np.stack([rng.normal(size=rows) * 1e8, rng.normal(size=rows) * 1e-8]),
                   running_sums_reference(x[:, ::-1], np.zeros((2, rows)))[..., -1]]
        for carry in carries:
            buf = np.full((2, rows, n + 3), np.nan)  # wider than the block, as the last one is
            got, want = _running_sums(x, carry, buf), running_sums_reference(x, carry)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()  # -0.0 included
            # the next block's carry is a view of the buffer it is written into
            chained = _running_sums(x, got[..., -1], buf)
            assert chained.tobytes() == running_sums_reference(x, want[..., -1]).tobytes()


def test_simulate_bits_do_not_depend_on_the_block_size(monkeypatch):
    honest, malicious, pi_d, _, phi = reference_case(seed=3)
    profile = switching_profile(11, "honest", honest, malicious, lag=4)
    steps = 2 * _CHUNK + 5  # crosses two default block boundaries

    def run(chunk):
        monkeypatch.setattr(sim, "_CHUNK", chunk)
        return simulate(honest, pi_d, profile, steps, seed=8, stride=37,
                        reference_game=malicious, gauge_phi=phi)

    want = run(_CHUNK)
    for chunk in (1, 7):
        got = run(chunk)
        for field in dataclasses.fields(TrajectoryStats):
            a, b = getattr(got, field.name), getattr(want, field.name)
            if isinstance(b, np.ndarray):
                assert (a.dtype, a.shape) == (b.dtype, b.shape), field.name
                if a.dtype == object:
                    assert a.tolist() == b.tolist(), field.name
                else:
                    assert a.tobytes() == b.tobytes(), field.name
            else:
                assert a == b, field.name


def test_dense_k16_defender_matches_reference():
    # a Dirichlet defender fills its pick table: 256 x (256 * 15 + 1) entries
    rng = np.random.default_rng(16)
    honest, malicious = random_game(16, rng), random_game(16, rng)
    pi_d = random_strategy(16, rng)
    profile = switching_profile(500, "malicious", honest, malicious, lag=9)
    kwargs = {"reference_game": malicious, "gauge_phi": rng.normal(size=16)}
    stats = simulate(honest, pi_d, profile, _CHUNK + 3, seed=4, stride=250, **kwargs)
    assert_matches_reference(stats, simulate_reference(
        honest, pi_d, profile, _CHUNK + 3, 4, stride=250, **kwargs))


class ScriptedStream:
    """Stands in for `stream(seed, "simulate")`: a fixed start state, then
    the scripted draws in order, whether taken a block or one at a time."""

    def __init__(self, start, draws):
        self.start, self.draws = start, list(draws)

    def integers(self, n):
        return self.start % n

    def random(self, shape=None):
        if shape is None:
            return self.draws.pop(0)
        n = int(np.prod(shape))
        block, self.draws = self.draws[:n], self.draws[n:]
        return np.array(block).reshape(shape)


def script_stream(monkeypatch, start, draws):
    """Give `simulate` and the reference the same scripted draws."""
    monkeypatch.setattr("zdmtd.sim.stream", lambda *_: ScriptedStream(start, draws))
    monkeypatch.setattr("oracles.stream", lambda *_: ScriptedStream(start, draws))


def clamped_pick(row, u):
    """The clamped search on the plain cumulative row, as the reference
    simulator makes it."""
    return min(bisect_right(np.cumsum(row).tolist(), u), len(row) - 1)


def row_kinds(k):
    """Rows where the clamp mattered: one-hot, zero-probability tails and a
    sum 1e-13 short of 1 (top cumulative entry below 1)."""
    short = np.full(k, 1.0 / k)
    short[-1] -= 1e-13
    tail = np.zeros(k)
    tail[:2] = (0.3, 0.7)
    short_tail = np.zeros(k)
    short_tail[:2] = (0.5, 0.5 - 1e-13)
    return {"one-hot": np.eye(k)[0], "zero-tail": tail, "short": short,
            "short-zero-tail": short_tail}


def rolled(row, k, shift):
    return np.array([np.roll(row, shift(s)) for s in range(k * k)])


def edge_draws(rows, rng, n):
    """Draws from a pool of every cumulative entry of `rows`, the next float
    above each (past the top entry when it is below 1), 1.0 itself, and
    uniforms; `n` of them."""
    entries = np.unique(np.concatenate([np.cumsum(r, axis=1).ravel() for r in rows]))
    pool = np.concatenate([entries, np.nextafter(entries, np.inf), [1.0],
                           rng.random(entries.size)])
    return rng.choice(pool, size=n).tolist()


@pytest.mark.parametrize("kind", ["one-hot", "zero-tail", "short", "short-zero-tail"])
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_unclamped_search_matches_clamped_reference(monkeypatch, k, kind):
    rng = np.random.default_rng(100 * k + len(kind))
    row = row_kinds(k)[kind]
    pi_d = MemoryOneStrategy(k, rolled(row, k, lambda s: s % k))
    pi_a = MemoryOneStrategy(k, rolled(row, k, lambda s: (s // k + 1) % k))
    draws = edge_draws([pi_d.rows, pi_a.rows], rng, 4001)
    for rows in (pi_d.rows, pi_a.rows):
        tops = _cumulative_rows(rows)
        assert all(bisect_right(tops[s], u) == clamped_pick(rows[s], u)
                   for s in range(k * k) for u in draws)

    honest, malicious = random_game(k, rng), random_game(k, rng)
    phi = 10.0 ** np.arange(k)  # exact defender actions through phi_boundary
    for profile, kwargs in [(fixed_profile(pi_a), {}),
                            (switching_profile(1, "honest", honest, malicious),
                             {"gauge_phi": phi})]:
        script_stream(monkeypatch, 7, draws)
        stats = simulate(honest, pi_d, profile, 2000, seed=0, **kwargs)
        assert_matches_reference(stats, simulate_reference(
            honest, pi_d, profile, 2000, 0, **kwargs))


@pytest.mark.parametrize("k", [2, 3, 4, 5, 8])
def test_pick_table_matches_bisect_in_every_cell(k):
    # bisect_right(row, u) moves only at entries of row, so one lookup per
    # grid cell is exact for every draw in it, on rows that decrease too
    rng = np.random.default_rng(k)
    kinds = ("mixed", "one-hot", "short", "negative")
    rows = np.array([edge_row(k, kinds[s % 4], rng.choice([0.0, 0.5, 1.0], size=k),
                              int(rng.integers(k)), PROB_TOL * rng.random())
                     for s in range(4 * k)])
    cum = _cumulative_rows(rows)
    assert k < 3 or np.any(np.diff(cum[:, :-1]) < 0)  # some rows decrease
    grid = np.unique(cum[:, :-1])
    table = _pick_table(cum, grid, k)
    lefts, rights = np.append(-np.inf, grid), np.append(grid, np.inf)
    for c, (lo, hi) in enumerate(zip(lefts, rights)):
        inside = [u for u in (lo, np.nextafter(hi, -np.inf), (lo + hi) / 2, -1.0, 2.0)
                  if lo <= u < hi]
        assert inside and np.searchsorted(grid, inside, "right").tolist() == [c] * len(inside)
        for r, row in enumerate(cum):
            assert {bisect_right(row, u) * k for u in inside} == {table[r * (grid.size + 1) + c]}


def test_negative_top_entry_where_the_forms_part():
    # entries down to -PROB_TOL pass validation, and a negative last entry
    # makes the top cumulative entry drop below the one before it; the
    # +inf-topped search then keeps K - 2 for a draw in that gap, where the
    # clamped one picks the last action whenever binary search probes the
    # top entry from lo = K - 2
    parts = {}
    for k in range(2, 9):
        row = np.zeros(k)
        row[-2:] = (1.0, -1e-13)
        MemoryOneStrategy(k, np.tile(row, (k * k, 1)))  # admitted
        top = float(np.cumsum(row)[-1])
        gap = [top, (top + 1.0) / 2, np.nextafter(1.0, 0.0)]
        for u in gap + [0.0, 0.5, 1.0]:
            got = bisect_right(_cumulative_rows(row[None])[0], u)
            want = clamped_pick(row, u)
            assert got == (k - 2 if u in gap else want)
        parts[k] = clamped_pick(row, gap[0]) != k - 2
    assert parts == {2: True, 3: False, 4: False, 5: True, 6: True, 7: False, 8: False}


def test_json_strategy_with_negative_entry(tmp_path, monkeypatch, capsys):
    # package strategies never carry a negative entry (zd.py clips its
    # columns); a strategy file may, down to -PROB_TOL.  At the crowd
    # scenario's K = 3 the two searches agree on every draw, gap included
    sc = with_switching(crowd_scenario("honest", 10), "malicious", 7)
    k = sc.k
    rows = rolled(np.array([0.2, 0.8, -1e-13]), k, lambda s: s % k)
    (tmp_path / "scenario.json").write_text(json.dumps(scenario_to_dict(sc)))
    (tmp_path / "strategy.json").write_text(json.dumps({"k": k, "pi": rows.tolist()}))
    argv = ["simulate", "--scenario", str(tmp_path / "scenario.json"),
            "--strategy", str(tmp_path / "strategy.json"), "--steps", "3000",
            "--stride", "1", "--out", str(tmp_path / "trajectory.csv")]
    assert main(argv) == 0
    capsys.readouterr()

    pi_d = _load_strategy(str(tmp_path / "strategy.json"))[0]
    assert pi_d.rows.min() == -1e-13
    honest, malicious = crowd_game(sc, "honest"), crowd_game(sc, "malicious")
    profile = switching_profile(sc.period, sc.initial_type, honest, malicious)
    top = float(np.cumsum(pi_d.rows[0])[-1])
    draws = edge_draws([pi_d.rows], np.random.default_rng(5), 6001)
    draws[::3] = [top] * len(draws[::3])  # in the gap [top, 1.0) of rows ending in -1e-13
    phi = np.array([1.0, 10.0, 100.0])
    script_stream(monkeypatch, 4, draws)
    stats = simulate(honest, pi_d, profile, 3000, seed=0, gauge_phi=phi)
    assert_matches_reference(stats, simulate_reference(
        honest, pi_d, profile, 3000, 0, gauge_phi=phi))
