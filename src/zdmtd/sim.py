"""Trajectory-level simulator for the repeated game.

Samples play of a committed defender strategy against an attacker profile
(fixed strategy, best responder, or a worker whose type switches
periodically), with compensated running averages, per-regime segment
summaries, and bit-identical replay from a seed via the package's
counter-based random streams.

A stage picks each action as `bisect_right` on the current state's
cumulative row would, without searching: every block of draws is placed
once in a grid of all the cumulative entries, and each draw's cell becomes a
base offset into a table, built once per run, of the pick in every (grid
cell, state), cell-major (`_pick_table`).  A stage is then two adds and two
list lookups whatever K is, s = pick_d[cd + s] + pick_a[ca + s]; tables
past PICK_TABLE_ENTRIES entries (a dense strategy's grow as K^5) give way to
`bisect_right` on the two rows (`_walker`).  A block's states go into a
plain list that np.fromiter reads; its utilities then come from one
`np.take` on a table flattened to (quantity, regime * K^2 + state), and
their compensated running sums are formed in one buffer that every block of
a run reuses (`_running_sums`).  Segment statistics stay columns of the
trajectory, and per-regime summaries are pooled from those columns.

For type-switching runs the realized utilities follow the current type's
game.  A reference game (the one a zero-determinant strategy was built
against) can be tracked in parallel: its utilities evaluated along the same
trajectory satisfy the enforced line in every regime, because the line is a
property of the defender strategy against any attacker behavior.

Finite windows see that enforcement only up to an exact boundary term: the
defining equality makes z_t = alpha u_d(t) + beta u_a(t) + gamma a
martingale difference after subtracting phi(d_{t+1}) - phi(d_t), so a
window's z-sum equals the phi-weight difference at its endpoints plus pure
noise.  Per-regime residuals are therefore reported both raw and with that
boundary compensation; the compensated one is the statistic that tests
enforcement at short switching periods (the raw one carries an O(1/period)
artifact that no run length can average away).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .game import GameSpec, MemoryOneStrategy, profit_vector
from .markov import UtilityPair
from .mdp import best_response
from .rng import stream
from .scenarios import CrowdScenario, crowd_game


@dataclass(frozen=True)
class AttackerProfile:
    kind: str  # fixed | best_response | type_switching
    strategy: MemoryOneStrategy = None
    period: int = None
    initial_type: str = None
    games: tuple = None  # ((type_name, GameSpec), (type_name, GameSpec))
    lag: int = 0         # stages until the best response adapts after a switch

    def __post_init__(self):
        if self.kind == "fixed" and self.strategy is None:
            raise ValueError("fixed profile needs a strategy")
        if self.kind == "type_switching":
            if self.period is None or self.period < 1:
                raise ValueError("type_switching period must be >= 1")
            if self.games is None or self.initial_type is None:
                raise ValueError("type_switching needs per-type games and an initial type")
        if self.lag < 0:
            raise ValueError("lag must be >= 0")


def fixed_profile(strategy: MemoryOneStrategy) -> AttackerProfile:
    return AttackerProfile("fixed", strategy=strategy)


def best_response_profile() -> AttackerProfile:
    return AttackerProfile("best_response")


def switching_profile(period: int, initial_type: str, honest: GameSpec,
                      malicious: GameSpec, lag: int = 0) -> AttackerProfile:
    return AttackerProfile(
        "type_switching", period=period, initial_type=initial_type,
        games=(("honest", honest), ("malicious", malicious)), lag=lag,
    )


@dataclass(frozen=True)
class TrajectoryStats:
    steps: int
    stride: int
    seed: int
    series_step: np.ndarray
    series_avg_u_d: np.ndarray
    series_avg_u_a: np.ndarray
    series_regime: tuple
    final: UtilityPair
    # one column entry per maximal same-regime stretch (segment)
    segment_regime: np.ndarray  # regime name
    segment_bounds: np.ndarray  # stage index of each first step, then `steps`
    segment_means: np.ndarray   # rows mean u_d, u_a, then the reference game's if tracked
    # phi[d after the segment] - phi[d at its first stage], when phi was given
    segment_phi_boundary: np.ndarray = None


_CHUNK = 1 << 12  # stages per block of draws, states and sums; any size gives the same bits
PICK_TABLE_ENTRIES = 1 << 18  # both players' pick-table entries; past it, stages bisect the rows


def _phase(t: np.ndarray, period: int) -> np.ndarray:
    """Regime index (0 or 1) of stage indices `t`; negative ones count as 0."""
    return (np.maximum(t, 0) // period) % 2


def _within(x: np.ndarray, lo: int, hi: int) -> np.ndarray:
    return x[(x >= lo) & (x < hi)]


def _running_sums(x: np.ndarray, carry: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """Running sums along the rows of `x`, continuing from the last column
    of a previous result `carry` (2, rows), so blocks chain bit-identically.

    Returns (2, rows, n): np.cumsum adds in order, so TwoSum recovers each
    partial sum's rounding error exactly, and the errors are summed apart
    (Ogita, Rump & Oishi's Sum2): the two layers add up to the exact running
    sum within about (n * eps)**2 * sum(|x|).  Both layers run in place in
    the first n + 1 columns of `buf` (2, rows, at least n + 1), whose column
    0 takes the carry; the result is a view of the others.  The carry is
    read first, so it may be a view of `buf` (the previous block's result).
    """
    rows, n = x.shape
    buf = buf[:, :, :n + 1]
    c, err = buf
    c[:, 0], err[:, 0] = carry
    c[:, 1:] = x
    np.cumsum(c, axis=1, out=c)
    prev, s = c[:, :-1], c[:, 1:]
    z = s - prev
    e = err[:, 1:]
    np.subtract(prev, np.subtract(s, z, out=e), out=e)
    e += np.subtract(x, z, out=z)
    np.cumsum(err, axis=1, out=err)
    return buf[:, :, 1:]


def _cumulative_rows(rows: np.ndarray) -> np.ndarray:
    """Row-wise cumulative sums with the last entry set to +inf.

    `bisect_right(row, u)` on such a row is the action a uniform draw `u`
    picks: the number of entries <= u among the first K - 1, on a
    nondecreasing row.  The +inf top stands in for a clamp to K - 1, so a
    draw above a top entry left below 1 still picks the last action.
    Entries admitted down to -PROB_TOL can make a row decrease; the pick is
    then whatever `bisect_right` returns, which `_pick_table` reproduces."""
    cum = np.cumsum(rows, axis=1)
    cum[:, -1] = np.inf
    return cum


def _pick_table(cum: np.ndarray, grid: np.ndarray, scale: int) -> list:
    """`bisect_right(cum[r], u) * scale` for every row r of `cum` (cumulative
    rows topped with +inf) and every cell of `grid`, the sorted finite
    entries of `cum`: a flat list, cell-major, so (cell c, row r) is entry
    c * rows + r.  Cell c holds the draws u with grid[c - 1] <= u < grid[c]
    (no bound beyond the ends).

    Binary search compares u only with entries of the row, and each of them
    is on the grid, so every u in a cell takes the same branches: one value
    per cell is exact for any row.  It is also nondecreasing in u (where two
    draws part, the larger goes right), and it moves only at the row's
    entries, so `bisect_right` runs at -inf and at those K - 1 entries
    alone, and each value is carried forward over the cells up to the next
    entry."""
    rows = cum.shape[0]
    entries = cum[:, :-1]
    picks = np.array([[bisect_right(row, u) for u in [-np.inf] + row[:-1]]
                      for row in cum.tolist()])
    table = np.zeros((rows, grid.size + 1), dtype=np.intp)
    table[:, 0] = picks[:, 0]
    # the cell whose lower end is an entry starts that entry's value
    np.maximum.at(table, (np.arange(rows)[:, None], np.searchsorted(grid, entries) + 1),
                  picks[:, 1:])
    return (np.maximum.accumulate(table, axis=1).T * scale).ravel().tolist()


def _walker(cum_d: np.ndarray, cum_a: np.ndarray, k: int):
    """The state recursion, as `walk(s, u, row_a)`: the list of states that
    the draws u (n, 2) lead to from state s, where row_a (a scalar, or one
    per stage) is the attacker's row offset regime * K^2 into `cum_a`; and
    `close(s, u)`: the defender's action for one more draw u at state s.

    Each action is the one `bisect_right` picks on the +inf-topped
    cumulative row.  While the two pick tables (`_pick_table`) hold at most
    PICK_TABLE_ENTRIES entries together, a block's draws become the base
    offsets of their grid cells in numpy, and a stage is two adds and two
    list lookups: s = pick_d[cd + s] + pick_a[ca + s].  Above that, a dense
    strategy's tables would grow as K^5, and each stage runs `bisect_right`
    on the two rows instead."""
    kk = k * k
    rows_a = cum_a.shape[0]
    grid_d, grid_a = np.unique(cum_d[:, :-1]), np.unique(cum_a[:, :-1])
    if kk * (grid_d.size + 1) + rows_a * (grid_a.size + 1) > PICK_TABLE_ENTRIES:
        lists_d, lists_a = cum_d.tolist(), cum_a.tolist()

        def walk(s, u, row_a):
            states = []
            append = states.append
            for (u0, u1), r in zip(u.tolist(), np.broadcast_to(row_a, len(u)).tolist()):
                s = bisect_right(lists_d[s], u0) * k + bisect_right(lists_a[r + s], u1)
                append(s)
            return states

        def close(s, u):
            return bisect_right(lists_d[s], u)

        return walk, close

    pick_d, pick_a = _pick_table(cum_d, grid_d, k), _pick_table(cum_a, grid_a, 1)

    def walk(s, u, row_a):
        cells_d = (np.searchsorted(grid_d, u[:, 0], "right") * kk).tolist()
        cells_a = (np.searchsorted(grid_a, u[:, 1], "right") * rows_a + row_a).tolist()
        table_d, table_a = pick_d, pick_a  # locals, read twice a stage
        states = []
        append = states.append
        for cd, ca in zip(cells_d, cells_a):
            s = table_d[cd + s] + table_a[ca + s]
            append(s)
        return states

    def close(s, u):
        return pick_d[int(np.searchsorted(grid_d, u, "right")) * kk + s] // k

    return walk, close


def _policy_rows(g: GameSpec, pi_d: MemoryOneStrategy) -> np.ndarray:
    br = best_response(g, pi_d)
    rows = np.zeros((g.k * g.k, g.k))
    rows[np.arange(g.k * g.k), np.asarray(br.policy) - 1] = 1.0
    return rows


def simulate(
    g: GameSpec,
    pi_d: MemoryOneStrategy,
    profile: AttackerProfile,
    steps: int,
    seed: int,
    stride: int = 1,
    reference_game: GameSpec = None,
    gauge_phi: np.ndarray = None,
) -> TrajectoryStats:
    """Sample `steps` stages of play; fully deterministic given the seed.

    The state starts uniform over the K^2 previous-action profiles; each
    stage draws both actions from their conditional rows, realizes the
    current game's utilities, and advances the state.  Running averages are
    recorded every `stride` stages (and at the final stage).

    Only the state recursion runs step by step (`_walker`): each block of
    draws is first placed in a grid of the cumulative rows' entries (one
    np.searchsorted per player), whose cells become base offsets into
    cell-major tables of the action `bisect_right` picks (`_pick_table`),
    so a stage is two adds and two list lookups; past PICK_TABLE_ENTRIES
    table entries a stage bisects the two rows instead.  The block's states
    are collected in a list that np.fromiter reads; one np.take gathers
    every utility row of the block, whose Sum2 running sums are formed in
    place in one buffer that every block reuses (`_running_sums`).  Running
    averages and segment statistics are read from those sums at the series
    marks and segment bounds.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    k = g.k
    if pi_d.k != k:
        raise ValueError("strategy K mismatch")

    if profile.kind == "fixed":
        if profile.strategy.k != k:
            raise ValueError("attacker strategy K mismatch")
        regimes = [("fixed", g, profile.strategy.rows)]
    elif profile.kind == "best_response":
        regimes = [("best_response", g, _policy_rows(g, pi_d))]
    else:
        regimes = [(name, game, _policy_rows(game, pi_d)) for name, game in profile.games]
        if regimes[0][0] != profile.initial_type:
            regimes = regimes[::-1]
        for _, game, _ in regimes:
            if game.k != k:
                raise ValueError("profile game K mismatch")
    names = np.array([name for name, _, _ in regimes], dtype=object)

    # utility tables [quantity, regime * K^2 + state]: realized u_d and u_a,
    # then the reference game's, which do not depend on the regime
    tables = [np.concatenate([profit_vector(game, role) for _, game, _ in regimes])
              for role in ("defender", "attacker")]
    if reference_game is not None:
        tables += [np.tile(profit_vector(reference_game, role), len(regimes))
                   for role in ("defender", "attacker")]
    tables = np.array(tables)

    phi = None
    if gauge_phi is not None:
        phi = np.asarray(gauge_phi, dtype=float)
        if phi.shape != (k,):
            raise ValueError("gauge_phi must list one multiplier per target")

    switching = profile.kind == "type_switching"
    period = profile.period if switching else steps
    marks = np.arange(stride, steps + 1, stride)
    if steps % stride:
        marks = np.append(marks, steps)
    bounds = np.append(np.arange(0, steps, period), steps)

    # the attacker's rows of every regime are one stack; a stage's row
    # offset into it is its (lagged) regime * K^2
    walk, close = _walker(_cumulative_rows(pi_d.rows),
                          _cumulative_rows(np.concatenate([rows for _, _, rows in regimes])), k)
    rng = stream(seed, "simulate")
    s = int(rng.integers(k * k))

    # draws come a block at a time, in the order of one (steps, 2) array
    acc = np.zeros((2, len(tables), 1))
    # one buffer for every block's sums: a fresh one per block is large
    # enough to be mapped and unmapped by the allocator each time
    buf = np.empty((2, len(tables), _CHUNK + 1))
    avg, at_bounds, d_bounds = [], [acc], []
    for first in range(0, steps, _CHUNK):
        end = min(first + _CHUNK, steps)
        u = rng.random((end - first, 2))
        offset = row_a = 0  # regime * K^2 of each stage; one regime is regime 0 throughout
        if switching:
            t = np.arange(first, end)
            phase = _phase(t, period)
            offset = phase * (k * k)
            # the attacker's policy may adapt `lag` stages after the type flips
            row_a = _phase(t - profile.lag, period) * (k * k) if profile.lag else offset
        walked = walk(s, u, row_a)
        s = walked[-1]
        states = np.fromiter(walked, np.int64, count=end - first)
        x = np.take(tables, states + offset, axis=1)
        acc = _running_sums(x, acc[..., -1], buf)
        m = _within(marks, first + 1, end + 1)
        avg.append(acc[:, :2, m - 1 - first].sum(0) / m)
        at_bounds.append(acc[..., _within(bounds, first + 1, end + 1) - 1 - first])
        d_bounds.append(states[_within(bounds, first, end) - first] // k)
    # one extra defender draw closes the final segment's boundary term
    d_bounds.append([close(s, rng.random())])

    avg = np.concatenate(avg, axis=1)
    means = np.diff(np.concatenate(at_bounds, axis=2), axis=2).sum(0) / np.diff(bounds)

    return TrajectoryStats(
        steps=steps,
        stride=stride,
        seed=seed,
        series_step=marks,
        series_avg_u_d=avg[0],
        series_avg_u_a=avg[1],
        series_regime=tuple(names[_phase(marks - 1, period)]),
        final=UtilityPair(float(avg[0, -1]), float(avg[1, -1])),
        segment_regime=names[_phase(bounds[:-1], period)],
        segment_bounds=bounds,
        segment_means=means,
        segment_phi_boundary=None if phi is None else np.diff(phi[np.concatenate(d_bounds)]),
    )


@dataclass(frozen=True)
class RegimeSummary:
    regime: str
    n_steps: int
    n_segments: int
    mean_u_d: float
    mean_u_a: float
    line_residual: float = None      # boundary-compensated; tests enforcement
    line_residual_raw: float = None  # plain |alpha m_d + beta m_a + gamma|
    line_residual_se: float = None   # across segment statistics


@dataclass(frozen=True)
class SwitchingReport:
    stats: TrajectoryStats
    regimes: dict  # regime -> RegimeSummary


def regime_summaries(stats: TrajectoryStats, zd_params=None) -> dict:
    """Pool segment statistics per regime, from the trajectory's segment
    columns.

    Regime means are length-weighted sums of the segment means, added in
    segment order.  With line parameters, the enforced-line residual at the
    reference-game regime means is reported raw and with the exact
    per-segment boundary compensation (phi-weight difference at the segment
    endpoints, when the trajectory tracked it); the standard error is
    estimated across segments.
    """
    out = {}
    lengths = np.diff(stats.segment_bounds)
    for name in dict.fromkeys(stats.segment_regime.tolist()):
        mine = stats.segment_regime == name
        counts = lengths[mine]
        n = int(counts.sum())
        weights = counts.astype(float)
        # np.cumsum adds in segment order, where np.sum would add pairwise
        mean_d, mean_a = (np.cumsum(stats.segment_means[:2, mine] * weights, axis=1)[:, -1]
                          / n).tolist()
        residual = raw = se = None
        if zd_params is not None and len(stats.segment_means) == 4:
            a_, b_, c_ = zd_params.alpha, zd_params.beta, zd_params.gamma
            vals = a_ * stats.segment_means[2, mine] + b_ * stats.segment_means[3, mine] + c_
            raw = abs(float(vals @ weights) / n)
            comp = vals
            if stats.segment_phi_boundary is not None:
                comp = vals - stats.segment_phi_boundary[mine] / weights
            residual = abs(float(comp @ weights) / n)
            if len(comp) >= 2:
                se = float(comp.std(ddof=1) / np.sqrt(len(comp)))
        out[name] = RegimeSummary(name, n, len(counts), mean_d, mean_a,
                                  residual, raw, se)
    return out


def switching_experiment(
    s: CrowdScenario,
    pi_d: MemoryOneStrategy,
    steps: int,
    seed: int,
    zd_params=None,
    zd_phi=None,
    stride: int = None,
) -> SwitchingReport:
    """Run the periodic-type crowdsourcing experiment for a committed
    defender strategy, gauging the enforced-line residual against the
    malicious-type game (the one the defense is built against).  Passing the
    strategy's phi multipliers (in the game's own labels) enables the exact
    boundary compensation of the per-regime residuals."""
    honest = crowd_game(s, "honest")
    malicious = crowd_game(s, "malicious")
    profile = switching_profile(s.period, s.initial_type, honest, malicious)
    if stride is None:
        stride = max(1, steps // 2000)
    stats = simulate(honest, pi_d, profile, steps, seed, stride=stride,
                     reference_game=malicious if zd_params is not None else None,
                     gauge_phi=zd_phi)
    return SwitchingReport(stats, regime_summaries(stats, zd_params))
