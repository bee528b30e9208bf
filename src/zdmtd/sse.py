"""Stackelberg baselines at desk scale.

Exact equilibrium computation for the repeated game is a mixed-integer
nonconvex program; this module emits that program to a portable LP-format
text file for external solvers and provides in-repo bounds instead: a
memoryless one-shot equilibrium (multiple-LPs method, each program decided
exactly by its breakpoints), a seeded local search over memory-one
strategies, an exhaustive search over deterministic defender strategies
(K <= 3), and the analytic upper bound max_k U_d^c(k).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .game import GameSpec, MemoryOneStrategy
from .mdp import _policy_value, best_response, defender_utility_under_br
from .rng import stream


class OneshotInfeasibleError(RuntimeError):
    """No attacked target can be kept attacker-optimal.  Every valid game
    has one (the attacker's best target under any coverage), so this is
    numerical trouble."""


def big_m(g: GameSpec) -> float:
    """Conservative big-M: ten times (1 + max |utility|) times K^2."""
    umax = float(max(np.max(np.abs(v)) for v in
                     (g.u_d_cov, g.u_d_unc, g.u_a_cov, g.u_a_unc)))
    return 10.0 * (1.0 + umax) * g.k * g.k


@dataclass(frozen=True)
class MipConstraint:
    name: str
    linear: tuple  # ((coef, var), ...)
    quad: tuple    # ((coef, var1, var2), ...)
    rel: str       # <= | = | >=
    rhs: float


@dataclass(frozen=True)
class MipModel:
    """The bilevel equilibrium program flattened to a single level: binary
    attacker picks, continuous defender rows, value scalars and per-state
    value matrices, with big-M switches tying best-response optimality in."""

    k: int
    z: float
    objective_var: str
    constraints: tuple
    bounds: tuple    # ((var, lo, hi) with None for free, ...)
    binaries: tuple

    @property
    def n_binary(self) -> int:
        return len(self.binaries)

    @property
    def n_strategy_vars(self) -> int:
        return sum(1 for v, lo, hi in self.bounds if v.startswith("pid_"))

    @property
    def n_value_vars(self) -> int:
        return sum(1 for v, lo, hi in self.bounds
                   if not v.startswith(("pid_", "pia_")))


def build_mip(g: GameSpec) -> MipModel:
    k = g.k
    z = big_m(g)
    ud, ua = g.payoff_matrices()
    cons = []

    for i in range(1, k + 1):
        for j in range(1, k + 1):
            for a in range(1, k + 1):
                lin_ua = tuple((float(ua[d - 1, a - 1]), f"pid_{d}_{i}_{j}")
                               for d in range(1, k + 1))
                quad_q = tuple((1.0, f"pid_{d}_{i}_{j}", f"Q_{d}_{a}")
                               for d in range(1, k + 1))
                base = lin_ua + ((-1.0, "Va"), (-1.0, f"Q_{i}_{j}"))
                cons.append(MipConstraint(
                    f"br_ub_{i}_{j}_{a}", base, quad_q, "<=", 0.0))
                cons.append(MipConstraint(
                    f"br_lb_{i}_{j}_{a}",
                    base + ((-z, f"pia_{a}_{i}_{j}"),), quad_q, ">=", -z))
                lin_ud = tuple((float(ud[d - 1, a - 1]), f"pid_{d}_{i}_{j}")
                               for d in range(1, k + 1))
                quad_w = tuple((1.0, f"pid_{d}_{i}_{j}", f"W_{d}_{a}")
                               for d in range(1, k + 1))
                cons.append(MipConstraint(
                    f"vd_lb_{i}_{j}_{a}",
                    lin_ud + ((-1.0, "Vd"), (-1.0, f"W_{i}_{j}"),
                              (-z, f"pia_{a}_{i}_{j}")),
                    quad_w, ">=", -z))

    for i in range(1, k + 1):
        for j in range(1, k + 1):
            cons.append(MipConstraint(
                f"pia_simplex_{i}_{j}",
                tuple((1.0, f"pia_{t}_{i}_{j}") for t in range(1, k + 1)),
                (), "=", 1.0))
            cons.append(MipConstraint(
                f"pid_simplex_{i}_{j}",
                tuple((1.0, f"pid_{t}_{i}_{j}") for t in range(1, k + 1)),
                (), "=", 1.0))

    bounds = [("Vd", None, None), ("Va", None, None)]
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            bounds.append((f"Q_{i}_{j}", None, None))
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            bounds.append((f"W_{i}_{j}", None, None))
    binaries = []
    for t in range(1, k + 1):
        for i in range(1, k + 1):
            for j in range(1, k + 1):
                bounds.append((f"pid_{t}_{i}_{j}", 0.0, 1.0))
                binaries.append(f"pia_{t}_{i}_{j}")

    return MipModel(k, z, "Vd", tuple(cons), tuple(bounds), tuple(binaries))


def _num(x: float) -> str:
    return repr(float(x))


def _render_terms(linear, quad) -> str:
    parts = []
    for coef, var in linear:
        sign = "-" if coef < 0 else "+"
        parts.append(f"{sign} {_num(abs(coef))} {var}")
    if quad:
        qparts = []
        for coef, v1, v2 in quad:
            sign = "-" if coef < 0 else "+"
            qparts.append(f"{sign} {_num(abs(coef))} {v1} * {v2}")
        parts.append("[ " + " ".join(qparts) + " ]")
    return " ".join(parts)


def render_mip(model: MipModel) -> str:
    out = [
        "\\ zdmtd repeated-security-game equilibrium program",
        f"\\ k = {model.k}",
        f"\\ z = {_num(model.z)}",
        "Maximize",
        f" obj: + 1.0 {model.objective_var}",
        "Subject To",
    ]
    for c in model.constraints:
        out.append(f" {c.name}: {_render_terms(c.linear, c.quad)} {c.rel} {_num(c.rhs)}")
    out.append("Bounds")
    for var, lo, hi in model.bounds:
        if lo is None and hi is None:
            out.append(f" {var} free")
        else:
            out.append(f" {_num(lo)} <= {var} <= {_num(hi)}")
    out.append("Binaries")
    out.append(" " + " ".join(model.binaries))
    out.append("End")
    return "\n".join(out) + "\n"


@dataclass(frozen=True)
class OneshotSse:
    coverage: np.ndarray
    value: float
    attacked: int

    def lifted(self, k: int) -> MemoryOneStrategy:
        """The memoryless coverage replayed from every state."""
        return MemoryOneStrategy(k, np.tile(self.coverage, (k * k, 1)))


_SUM_TOL = 1e-12  # slack, in coverage units, of the rows sum lo <= 1 - c_a <= sum hi


def _gap_fraction(g: GameSpec, u):
    """clip((u - u_a_unc[j]) / d_j, 0, 1) for each target j, with attacker
    gap d_j = u_a_cov[j] - u_a_unc[j] (0 where d_j = 0); u broadcasts
    against the target axis.  The attacker's value at j is at most u when j's
    coverage is at least this fraction (d_j < 0) or at most it (d_j > 0); a
    target with no gap is free once u >= u_a_unc[j]."""
    gap = g.u_a_cov - g.u_a_unc
    return np.minimum(np.maximum((u - g.u_a_unc) / np.where(gap == 0.0, 1.0, gap), 0.0), 1.0)


def _largest_coverage(g: GameSpec):
    """(x, u): for each target a, the largest coverage x[a] of a under which
    some coverage of the others keeps a attacker-optimal, and the attacker's
    value u[a] at a there; NaN where there is none.

    With c_a = x fixed, the attacker's value at a is U = u_a_unc[a] + x d_a,
    and each other target's row bounds c_j alone, to [lo_j(U), hi_j(U)]
    (`_gap_fraction`).  So x is feasible when U is at least the floor
    max_j min(u_a_cov[j], u_a_unc[j]) and sum_{j != a} lo_j <= 1 - x <=
    sum_{j != a} hi_j.  Every term is linear in x between breakpoints, where
    U equals some target's u_a_unc or u_a_cov.  Those payoffs, clipped into
    the range of U above the floor, are the exact breakpoint values of U,
    ordered so that x ascends.  On each segment between neighbouring
    breakpoints, the largest x where both sum rows are at most zero comes
    from linear interpolation, and a row may miss by _SUM_TOL."""
    k = g.k
    unc, cov = g.u_a_unc, g.u_a_cov
    gap = cov - unc
    low = np.maximum(np.minimum(unc, cov), np.max(np.minimum(unc, cov)))[:, None]
    high = np.maximum(unc, cov)[:, None]
    points = np.sort(np.concatenate([unc, cov]))
    u = np.minimum(np.maximum(np.where((gap < 0.0)[:, None], points[::-1], points), low), high)
    x = (u - unc[:, None]) / np.where(gap == 0.0, 1.0, gap)[:, None]
    x[gap == 0.0] = np.arange(2 * k) >= k  # U is constant; x spans [0, 1]
    # the sums over all targets, then target a's own term (lo_a = x when
    # d_a < 0, hi_a = x when d_a > 0, else 0 and 1) taken back out
    coef = (np.sign(gap)[:, None] == [-1.0, 1.0]) * [1.0, -1.0]  # sum lo, -(sum of moving hi)
    rows = _gap_fraction(g, u[:, :, None]) @ coef
    rows[..., 0] += np.where(gap < 0.0, 0.0, x.T).T - 1.0
    rows[..., 1] += np.where(gap > 0.0, 0.0, 1.0 - x.T).T + (1.0 - np.count_nonzero(gap <= 0.0))
    left, right = rows[:, :-1], rows[:, 1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        cross = left / (left - right)
    # the segment fraction s where the first row turns positive; a segment
    # with a row positive at both ends fails the check at s
    s = np.maximum(np.where(right > 0.0, cross, 1.0).min(axis=2), 0.0)
    ok = (left + s[..., None] * (right - left) <= _SUM_TOL).all(axis=2)
    x_at = np.where(ok, x[:, :-1] * (1.0 - s) + x[:, 1:] * s, -np.inf)
    seg = np.argmax(x_at, axis=1)
    a = np.arange(k)
    x_best, s_best = x_at[a, seg], s[a, seg]
    u_best = u[a, seg] * (1.0 - s_best) + u[a, seg + 1] * s_best
    found = (x_best > -np.inf) & (low[:, 0] <= high[:, 0])
    return np.where(found, x_best, np.nan), np.where(found, u_best, np.nan)


def oneshot_sse(g: GameSpec) -> OneshotSse:
    """The one-shot Strong Stackelberg equilibrium by the multiple-LPs
    method: for each candidate attacked target a, the defender's best
    coverage subject to a being attacker-optimal.  The defender gains by
    covering a (u_d_cov > u_d_unc), so each program's optimum is its largest
    feasible c_a, decided exactly by its breakpoints (`_largest_coverage`).
    The first program in target order wins unless a later one is better by
    more than 1e-12.

    Where the optimal coverage is not unique, the rule is: c_a, then each
    other target at its least coverage lo_j, then what remains of the unit
    mass given to the targets in order, each up to its most coverage hi_j.
    The vector is divided by its sum, which it meets to rounding."""
    x, u = _largest_coverage(g)
    best = None
    for a in range(g.k):
        if np.isnan(x[a]):
            continue
        value = float(x[a] * (g.u_d_cov[a] - g.u_d_unc[a]) + g.u_d_unc[a])
        if best is None or value > best[0] + 1e-12:
            best = (value, a)
    if best is None:
        raise OneshotInfeasibleError("no attacked target is enforceable; malformed game")
    value, a = best
    gap = g.u_a_cov - g.u_a_unc
    t = _gap_fraction(g, u[a])
    lo, hi = np.where(gap < 0.0, t, 0.0), np.where(gap > 0.0, t, 1.0)
    lo[a] = hi[a] = x[a]
    room = hi - lo
    coverage = lo + np.clip(1.0 - lo.sum() - (np.cumsum(room) - room), 0.0, room)
    return OneshotSse(coverage / coverage.sum(), value, a + 1)


def sse_upper_bound(g: GameSpec) -> float:
    """max_k U_d^c(k): no stationary average can exceed the best covered
    profit (uncovered profits sit strictly below their covered ones)."""
    return float(np.max(g.u_d_cov))


@dataclass(frozen=True)
class SseSearch:
    strategy: MemoryOneStrategy
    value: float
    attacker_value: float
    iterations: int


def _score(g: GameSpec, strategy: MemoryOneStrategy):
    pair, _ = defender_utility_under_br(g, strategy)
    return pair


def _dirichlet_rows(rng: np.random.Generator, conc: np.ndarray) -> np.ndarray:
    """One Dirichlet(conc[s]) draw per row s from a single gamma call, the
    draws and generator state of per-row `rng.dirichlet(conc[s])` calls bit
    for bit while every row has an entry >= 0.1: numpy then draws the row's
    gammas in order and scales them by the reciprocal of their sequential
    sum."""
    g = rng.standard_gamma(conc)
    return g * (1.0 / g.cumsum(axis=1)[:, -1:])


def search_sse(g: GameSpec, budget: int, seed: int, seeds_in=(), scored=()) -> SseSearch:
    """Annealed random-restart local search over defender memory-one
    strategies, scored by defender utility under attacker best response.

    Proposals resample each row from Dirichlet(kappa * current + 0.1) with
    kappa annealed 1 -> 100 over the budget.  seeds_in strategies are always
    evaluated first, so the result never scores below them; a seed whose
    rows equal a strategy already scored (an earlier seed, or one of the
    (strategy, UtilityPair) pairs in scored) reuses that pair, and still
    counts as an iteration.  Deterministic given (budget, seed, seeds_in).
    """
    if budget < 0:
        raise ValueError("budget must be >= 0")
    rng = stream(seed, "sse-search")
    k = g.k

    candidates = list(seeds_in)
    if not candidates:
        candidates = [MemoryOneStrategy(k, rng.dirichlet(np.ones(k), size=k * k))]
    evals = 0
    known = list(scored)
    best_strategy, best_pair = None, None
    for cand in candidates:
        pair = next((p for s, p in known if np.array_equal(s.rows, cand.rows)), None)
        if pair is None:
            pair = _score(g, cand)
            known.append((cand, pair))
        evals += 1
        if best_pair is None or pair.u_d > best_pair.u_d + 1e-12:
            best_strategy, best_pair = cand, pair

    incumbent = best_strategy
    restart_every = max(8, budget // 4) if budget else 1
    batch_size = 4  # proposals per incumbent; part of every seeded trajectory
    step = 0
    while step < budget:
        batch = min(batch_size, budget - step)
        kappa = 1.0 * (100.0 ** (step / max(budget - 1, 1)))
        conc = kappa * incumbent.rows + 0.1
        proposals = [MemoryOneStrategy(k, _dirichlet_rows(rng, conc)) for _ in range(batch)]
        evals += len(proposals)
        for cand in proposals:
            pair = _score(g, cand)
            if pair.u_d > best_pair.u_d + 1e-12:
                best_strategy, best_pair = cand, pair
                incumbent = cand
        step += batch
        if step % restart_every == 0 and step < budget:
            incumbent = MemoryOneStrategy(k, rng.dirichlet(np.ones(k), size=k * k))
    return SseSearch(best_strategy, best_pair.u_d, best_pair.u_a, evals)


def exhaustive_sse(g: GameSpec):
    """Exact search over deterministic defender memory-one strategies with
    best response computed per candidate (K <= 3; K^(K^2) candidates).

    A desk-scale lower bound on the equilibrium value: deterministic
    strategies are a subset of memory-one ones.  Each candidate is scored at
    Howard's best response, which breaks the attacker's ties by the lowest
    action index, not in the defender's favour or against it.
    """
    if g.k > 3:
        raise ValueError(f"exhaustive search guarded to K <= 3, got K={g.k}")
    k, n = g.k, g.k * g.k
    best = None
    for code in range(k**n):
        actions = [(code // (k ** (n - 1 - s))) % k for s in range(n)]
        rows = np.zeros((n, k))
        rows[np.arange(n), actions] = 1.0
        strategy = MemoryOneStrategy(k, rows)
        br = best_response(g, strategy)
        u_d, _ = _policy_value(g, strategy, br.policy)
        if best is None or u_d > best[0] + 1e-12:
            best = (u_d, strategy)
    return SseSearch(best[1], best[0], float("nan"), k**n)
