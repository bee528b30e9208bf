"""Stackelberg baselines at desk scale.

Exact equilibrium computation for the repeated game is a mixed-integer
nonconvex program; this module emits that program to a portable LP-format
text file for external solvers and provides in-repo bounds instead: a
memoryless one-shot equilibrium (multiple-LP method), a seeded local search
over memory-one strategies, an exhaustive search over deterministic
defender strategies (K <= 3), and the analytic upper bound max_k U_d^c(k).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .game import GameSpec, MemoryOneStrategy
from .lp import EQ, GE, LinearProgram, LpNumericalError, solve_each
from .mdp import _policy_value, best_response, defender_utility_under_br
from .rng import stream


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


def oneshot_sse(g: GameSpec) -> OneshotSse:
    """Multiple-LP method: for each candidate attacked target, maximize the
    defender's value subject to that target being attacker-optimal; keep the
    best (defender-favoring ties).  The K programs are one stack: the
    program of target a has its own objective and, for each other target
    in order, its own >= row and right-hand side.  The value is the best
    program's objective; its coverage is put on the simplex, clipped to
    [0, 1] and divided by its sum."""
    k = g.k
    delta_a = g.u_a_cov - g.u_a_unc
    attacked = np.arange(k)
    obj = np.zeros((k, k))
    obj[attacked, attacked] = g.u_d_cov - g.u_d_unc
    rows = [(np.ones(k), EQ, 1.0)]
    for j in range(k - 1):
        other = np.where(attacked <= j, j + 1, j)  # target a's j-th other target
        row = np.zeros((k, k))
        row[attacked, attacked] = delta_a
        row[attacked, other] = -delta_a[other]
        rows.append((row, GE, g.u_a_unc[other] - g.u_a_unc))
    best = None
    for out in solve_each(LinearProgram(obj, "max", rows, [(0.0, 1.0)] * k)):
        if out.status != "optimal":
            continue
        value = out.objective + float(g.u_d_unc[out.index])
        if best is None or value > best.value + 1e-12:
            best = OneshotSse(out.x, value, out.index + 1)
    if best is None:
        raise LpNumericalError("no attacked target is enforceable; malformed game")
    # the simplex meets sum(x) = 1 only to its feasibility tolerance; a
    # coverage that misses it by more than PROB_TOL would be rejected as the
    # lifted strategy's rows
    coverage = np.clip(best.coverage, 0.0, 1.0)
    return OneshotSse(coverage / coverage.sum(), best.value, best.attacked)


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


@dataclass(frozen=True)
class SseBaseline:
    oneshot: OneshotSse
    search: SseSearch
    upper_bound: float


def baselines(g: GameSpec, budget: int, seed: int, seeds_in=(), oneshot: OneshotSse = None,
              scored=()) -> SseBaseline:
    """One-shot proxy, seeded search (one-shot lift always included), and
    the analytic upper bound.  A caller that already has the one-shot
    equilibrium or scored pairs (see `search_sse`) passes them in."""
    one = oneshot_sse(g) if oneshot is None else oneshot
    seeds = [one.lifted(g.k)] + list(seeds_in)
    search = search_sse(g, budget, seed, seeds, scored=scored)
    return SseBaseline(one, search, sse_upper_bound(g))
