"""Stackelberg baselines at desk scale.

Exact equilibrium computation for the repeated game is a mixed-integer
nonconvex program; this module emits that program to a portable LP-format
text file for external solvers and provides in-repo bounds instead: a
memoryless one-shot equilibrium (multiple-LP method), a seeded local search
over memory-one strategies, an exhaustive search over deterministic
defender strategies (K <= 3), and the analytic upper bound max_k U_d^c(k).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .game import GameSpec, MemoryOneStrategy
from .lp import EQ, GE, LinearProgram, solve_lp
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


def emit_mip(g: GameSpec) -> str:
    return render_mip(build_mip(g))


def _walk_terms(tokens, line):
    """Walk '+ coef var' / '+ coef var * var' token triples/quintuples."""
    out = []
    i = 0
    while i < len(tokens):
        if tokens[i] not in ("+", "-") or i + 3 > len(tokens):
            raise ValueError(f"malformed term near {tokens[i:]!r} in: {line}")
        coef = float(tokens[i + 1]) * (1 if tokens[i] == "+" else -1)
        var = tokens[i + 2]
        i += 3
        if i < len(tokens) and tokens[i] == "*":
            if i + 1 >= len(tokens):
                raise ValueError(f"dangling product in: {line}")
            out.append((coef, var, tokens[i + 1]))
            i += 2
        else:
            out.append((coef, var))
    return out


def parse_mip(text: str) -> MipModel:
    """Parse the emitter's own format back into a model (strict grammar)."""
    lines = text.splitlines()
    k = z = None
    idx = 0
    while idx < len(lines) and lines[idx].startswith("\\"):
        m = re.match(r"\\ k = (\d+)", lines[idx])
        if m:
            k = int(m.group(1))
        m = re.match(r"\\ z = (\S+)", lines[idx])
        if m:
            z = float(m.group(1))
        idx += 1
    if k is None or z is None:
        raise ValueError("missing k/z header comments")
    if lines[idx] != "Maximize":
        raise ValueError("expected Maximize section")
    obj_var = lines[idx + 1].split()[-1]
    idx += 2
    if lines[idx] != "Subject To":
        raise ValueError("expected Subject To section")
    idx += 1
    cons = []
    while lines[idx] != "Bounds":
        line = lines[idx].strip()
        name, body = line.split(": ", 1)
        tokens = body.split()
        rel, rhs = tokens[-2], float(tokens[-1])
        if rel not in ("<=", "=", ">="):
            raise ValueError(f"malformed constraint relation in: {line}")
        rest = tokens[:-2]
        if "[" in rest:
            lb, rb = rest.index("["), rest.index("]")
            lin_tokens, quad_tokens = rest[:lb], rest[lb + 1 : rb]
        else:
            lin_tokens, quad_tokens = rest, []
        linear = _walk_terms(lin_tokens, line)
        quad = _walk_terms(quad_tokens, line)
        if any(len(t) != 2 for t in linear) or any(len(t) != 3 for t in quad):
            raise ValueError(f"mixed term kinds in: {line}")
        cons.append(MipConstraint(name, tuple(linear), tuple(quad), rel, rhs))
        idx += 1
    idx += 1
    bounds = []
    while lines[idx] != "Binaries":
        line = lines[idx].strip()
        if line.endswith(" free"):
            bounds.append((line[: -len(" free")], None, None))
        else:
            lo, _, var, _, hi = line.split()
            bounds.append((var, float(lo), float(hi)))
        idx += 1
    binaries = tuple(lines[idx + 1].split())
    if lines[idx + 2] != "End":
        raise ValueError("expected End")
    return MipModel(k, z, obj_var, tuple(cons), tuple(bounds), binaries)


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
    best (defender-favoring ties)."""
    k = g.k
    delta_a = g.u_a_cov - g.u_a_unc
    best = None
    for a in range(1, k + 1):
        obj = np.zeros(k)
        obj[a - 1] = g.u_d_cov[a - 1] - g.u_d_unc[a - 1]
        rows = [(np.ones(k), EQ, 1.0)]
        for other in range(1, k + 1):
            if other == a:
                continue
            row = np.zeros(k)
            row[a - 1] = delta_a[a - 1]
            row[other - 1] = -delta_a[other - 1]
            rows.append((row, GE, float(g.u_a_unc[other - 1] - g.u_a_unc[a - 1])))
        out = solve_lp(LinearProgram(obj, "max", rows, [(0.0, 1.0)] * k))
        if out.status != "optimal":
            continue
        value = out.objective + float(g.u_d_unc[a - 1])
        if best is None or value > best.value + 1e-12:
            best = OneshotSse(out.x, value, a)
    if best is None:
        raise RuntimeError("no attacked target is enforceable; malformed game")
    return best


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
        proposals = []
        for _ in range(batch):
            conc = kappa * incumbent.rows + 0.1
            rows = np.vstack([rng.dirichlet(conc[s]) for s in range(k * k)])
            proposals.append(MemoryOneStrategy(k, rows))
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
