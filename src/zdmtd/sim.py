"""Trajectory-level simulator for the repeated game.

Samples play of a committed defender strategy against an attacker profile
(fixed strategy, best responder, or a worker whose type switches
periodically), with compensated running averages, per-regime segment
summaries, and bit-identical replay from a seed via the package's
counter-based random streams.

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
class SegmentStat:
    regime: str
    start: int   # 0-based stage index of the first step
    length: int
    mean_u_d: float
    mean_u_a: float
    ref_mean_u_d: float = None
    ref_mean_u_a: float = None
    phi_boundary: float = None  # phi[d after segment] - phi[d at first stage]


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
    segments: tuple  # SegmentStat per maximal same-regime stretch


_CHUNK = 1 << 14  # stages drawn and turned into Python floats at once


def _phase(t: np.ndarray, period: int) -> np.ndarray:
    """Regime index (0 or 1) of stage indices `t`; negative ones count as 0."""
    return (np.maximum(t, 0) // period) % 2


def _within(x: np.ndarray, lo: int, hi: int) -> np.ndarray:
    return x[(x >= lo) & (x < hi)]


def _running_sums(x: np.ndarray, carry: np.ndarray) -> np.ndarray:
    """Running sums along the rows of `x`, continuing from the last column
    of a previous result `carry` (2, rows), so blocks chain bit-identically.

    Returns (2, rows, n): np.cumsum adds in order, so TwoSum recovers each
    partial sum's rounding error exactly, and the errors are summed apart
    (Ogita, Rump & Oishi's Sum2): the two layers add up to the exact running
    sum within about (n * eps)**2 * sum(|x|).
    """
    c = np.cumsum(np.concatenate([carry[0][:, None], x], axis=1), axis=1)
    prev, s = c[:, :-1], c[:, 1:]
    z = s - prev
    err = np.concatenate([carry[1][:, None], (prev - (s - z)) + (x - z)], axis=1)
    return np.stack([s, np.cumsum(err, axis=1)[:, 1:]])


def _cumulative_rows(rows: np.ndarray) -> list:
    """Row-wise cumulative sums as lists, the last entry set to +inf.  On a
    nondecreasing row (nonnegative entries) bisect_right then returns exactly
    min(bisect_right(cumsum, u), K - 1): both count the entries <= u among
    the first K - 1, even for a draw above a top entry left below 1.  A
    negative last entry (admitted down to -PROB_TOL) can change the pick
    only for a draw in the gap it opens below the entry before it."""
    cum = np.cumsum(rows, axis=1)
    cum[:, -1] = np.inf
    return cum.tolist()


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

    Only the state recursion runs step by step: one bisect_right per action
    on cumulative rows topped with +inf, which needs no clamp.  Utilities,
    running averages and segment statistics are gathered from each block of
    states.
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

    # utility tables [quantity, regime, state]: realized u_d and u_a, then
    # the reference game's, which do not depend on the regime
    tables = [[profit_vector(game, role) for _, game, _ in regimes]
              for role in ("defender", "attacker")]
    if reference_game is not None:
        tables += [[profit_vector(reference_game, role)] * len(regimes)
                   for role in ("defender", "attacker")]
    tables = np.array(tables)

    phi = None
    if gauge_phi is not None:
        phi = np.asarray(gauge_phi, dtype=float)
        if phi.shape != (k,):
            raise ValueError("gauge_phi must list one multiplier per target")

    switching = profile.kind == "type_switching"
    period = profile.period if switching else steps
    # the attacker's policy may adapt `lag` stages after the type flips
    lag = profile.lag if switching else 0
    marks = np.unique(np.append(np.arange(stride, steps + 1, stride), steps))
    bounds = np.append(np.arange(0, steps, period), steps)

    cum_d = _cumulative_rows(pi_d.rows)
    cum_a = [_cumulative_rows(rows) for _, _, rows in regimes]
    rng = stream(seed, "simulate")
    s = int(rng.integers(k * k))

    # draws come a block at a time, in the order of one (steps, 2) array
    acc = np.zeros((2, len(tables), 1))
    avg, at_bounds, d_bounds = [], [acc], []
    for first in range(0, steps, _CHUNK):
        t = np.arange(first, min(first + _CHUNK, steps))
        states = []
        for u0, u1, p in zip(*rng.random((len(t), 2)).T.tolist(),
                             _phase(t - lag, period).tolist()):
            s = bisect_right(cum_d[s], u0) * k + bisect_right(cum_a[p][s], u1)
            states.append(s)
        states, end = np.array(states), first + len(t)
        acc = _running_sums(tables[:, _phase(t, period), states], acc[..., -1])
        m = _within(marks, first + 1, end + 1)
        avg.append(acc[:, :2, m - 1 - first].sum(0) / m)
        at_bounds.append(acc[..., _within(bounds, first + 1, end + 1) - 1 - first])
        d_bounds.append(states[_within(bounds, first, end) - first] // k)
    # one extra defender draw closes the final segment's boundary term
    d_bounds.append([bisect_right(cum_d[s], rng.random())])

    avg = np.concatenate(avg, axis=1)
    lengths = np.diff(bounds)
    means = (np.diff(np.concatenate(at_bounds, axis=2), axis=2).sum(0) / lengths).tolist()
    if reference_game is None:
        means += [[None] * len(lengths)] * 2
    boundary = [None] * len(lengths)
    if phi is not None:
        boundary = np.diff(phi[np.concatenate(d_bounds)]).tolist()
    segments = tuple(map(SegmentStat, names[_phase(bounds[:-1], period)],
                         bounds[:-1].tolist(), lengths.tolist(), *means, boundary))

    return TrajectoryStats(
        steps=steps,
        stride=stride,
        seed=seed,
        series_step=marks,
        series_avg_u_d=avg[0],
        series_avg_u_a=avg[1],
        series_regime=tuple(names[_phase(marks - 1, period)]),
        final=UtilityPair(float(avg[0, -1]), float(avg[1, -1])),
        segments=segments,
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
    """Pool segment statistics per regime.

    With line parameters, the enforced-line residual at the reference-game
    regime means is reported raw and with the exact per-segment boundary
    compensation (phi-weight difference at the segment endpoints, when the
    trajectory tracked it); the standard error is estimated across segments.
    """
    out = {}
    for name in dict.fromkeys(seg.regime for seg in stats.segments):
        segs = [seg for seg in stats.segments if seg.regime == name]
        n = sum(seg.length for seg in segs)
        mean_d = sum(seg.mean_u_d * seg.length for seg in segs) / n
        mean_a = sum(seg.mean_u_a * seg.length for seg in segs) / n
        residual = raw = se = None
        if zd_params is not None and segs[0].ref_mean_u_d is not None:
            a_, b_, c_ = zd_params.alpha, zd_params.beta, zd_params.gamma
            vals = np.array([a_ * seg.ref_mean_u_d + b_ * seg.ref_mean_u_a + c_
                             for seg in segs])
            weights = np.array([seg.length for seg in segs], dtype=float)
            raw = abs(float(vals @ weights) / n)
            comp = vals
            if segs[0].phi_boundary is not None:
                comp = vals - np.array([seg.phi_boundary for seg in segs]) / weights
            residual = abs(float(comp @ weights) / n)
            if len(comp) >= 2:
                se = float(comp.std(ddof=1) / np.sqrt(len(comp)))
        out[name] = RegimeSummary(name, n, len(segs), mean_d, mean_a,
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
