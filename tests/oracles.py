"""Shared brute-force oracles used by module and acceptance tests.

These re-derive expected values through independent computations (dense
grids, exhaustive enumeration, direct linear algebra) rather than through
the code paths they check.
"""

import math

import numpy as np

from zdmtd.game import GameSpec, profit_vector
from zdmtd.lp import EQ, FEAS_TOL as LP_FEAS_TOL, GE, LE, LpError, LpNumericalError, LpOutcome
from zdmtd.lp import _violation
from zdmtd.markov import EPSILON_MIX, _direct, chain
from zdmtd.mdp import (
    TIE_TOL,
    _SWITCH_TOL,
    _effective_tables,
    _enumerate_policies,
    _policy_value,
    best_response,
    defender_utility_under_br,
)
from zdmtd.cli import solve_game
from zdmtd.programs import FEAS_TOL, _SWEEP_STEP
from zdmtd.rng import stream


def random_game(k, rng, scale=1.0):
    unc = rng.normal(size=k) * scale
    cov = unc + rng.uniform(0.1, 2, size=k)
    order = np.argsort(-cov, kind="stable")
    return GameSpec(k, cov[order], unc[order],
                    rng.normal(size=k)[order] * scale,
                    rng.normal(size=k)[order] * scale)


def ideal_feasible_game(k, rng, scale=1.0):
    """Random game whose attacker values take the equalizer-friendly shape
    (covered value at label 1 reappears as the middle uncovered values), so
    the ideal program is feasible by construction."""
    unc = rng.normal(size=k) * scale
    cov = unc + rng.uniform(0.1, 2, size=k)
    order = np.argsort(-cov, kind="stable")
    t = float(rng.normal()) * scale
    u_a_cov = np.empty(k)
    u_a_unc = np.empty(k)
    u_a_cov[0] = t
    u_a_cov[1:] = t + rng.uniform(0, 2, size=k - 1) * scale
    u_a_unc[0] = t + rng.uniform(0, 2) * scale
    u_a_unc[1 : k - 1] = t
    u_a_unc[k - 1] = t - rng.uniform(0.1, 2) * scale
    return GameSpec(k, cov[order], unc[order], u_a_cov, u_a_unc)


def phi_grid_feasible_k2(g, p, lo=0.0, hi=10.0, step=1e-2, tol=1e-9):
    """Grid oracle for the K=2 existence inequalities over phi_1 (phi_2 = 0)."""
    c1 = p.alpha * g.u_d_cov[0] + p.beta * g.u_a_cov[0] + p.gamma
    c2 = p.alpha * g.u_d_cov[1] + p.beta * g.u_a_cov[1] + p.gamma
    u1 = p.alpha * g.u_d_unc[0] + p.beta * g.u_a_unc[0] + p.gamma
    u2 = p.alpha * g.u_d_unc[1] + p.beta * g.u_a_unc[1] + p.gamma
    phis = np.arange(lo, hi + step / 2, step)
    ok = (
        (c1 >= -phis - tol) & (c1 <= tol)
        & (c2 >= -tol) & (c2 <= phis + tol)
        & (u1 >= -tol) & (u1 <= phis + tol)
        & (u2 >= -phis - tol) & (u2 <= tol)
    )
    return bool(np.any(ok))


def k2_grid_oracle(g: GameSpec, step: float = 1e-2, tol: float = 1e-9):
    """Best realized defender value over a dense sphere grid of normalized
    line coefficients at the given angular resolution.

    Every grid direction is existence-checked through the K=2 inequalities
    (covered value at 1 nonpositive, at 2 nonnegative, uncovered reversed);
    feasible ones are constructed by the explicit one-step formula and
    scored under exhaustive attacker best response with the optimistic tie
    rule, all batched in numpy.
    """
    assert g.k == 2
    thetas = np.arange(step / 2, np.pi, step)
    phis = np.arange(0.0, 2 * np.pi, step)
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    dirs = np.stack(
        [np.sin(tt) * np.cos(pp), np.sin(tt) * np.sin(pp), np.cos(tt)], axis=-1
    ).reshape(-1, 3)

    cov = np.column_stack([g.u_d_cov, g.u_a_cov, np.ones(2)])
    unc = np.column_stack([g.u_d_unc, g.u_a_unc, np.ones(2)])
    c1, c2 = dirs @ cov[0], dirs @ cov[1]
    u1, u2 = dirs @ unc[0], dirs @ unc[1]
    feas = (c1 <= tol) & (c2 >= -tol) & (u1 >= -tol) & (u2 <= tol)

    c1, c2, u1, u2 = c1[feas], c2[feas], u1[feas], u2[feas]
    tight = np.maximum.reduce([-c1, c2, u1, -u2])
    alg = np.abs(u1) + np.abs(c1)  # explicit construction's multiplier
    phi1 = np.where(alg >= tight - 1e-15, alg, tight)
    ok = phi1 > 1e-9
    c1, c2, u1, u2, phi1 = c1[ok], c2[ok], u1[ok], u2[ok], phi1[ok]
    n = len(phi1)
    if n == 0:
        return -np.inf, 0

    # one-step construction: column of target 1 over states (11, 12, 21, 22)
    r = np.column_stack([c1, u2, u1, c2])
    col1 = np.clip(r / phi1[:, None] + np.array([1.0, 1.0, 0.0, 0.0]), 0.0, 1.0)
    rows = np.stack([col1, 1.0 - col1], axis=-1)  # n x 4 x 2

    eps = EPSILON_MIX
    f = (1.0 - eps) * rows + eps / 2.0
    w = (1.0 - eps) * np.eye(2) + eps / 2.0
    pols = ((np.arange(16)[:, None] // (2 ** (3 - np.arange(4)))) % 2)
    wr = w[pols]  # 16 x 4 x 2
    m = np.einsum("gsd,psa->gpsda", f, wr).reshape(n, 16, 4, 4)
    a = np.swapaxes(m, -1, -2) - np.eye(4)
    a[..., -1, :] = 1.0
    b = np.zeros((4, 1))
    b[-1, 0] = 1.0
    v = np.linalg.solve(a, np.broadcast_to(b, (n, 16, 4, 1)))[..., 0]

    sd = np.array([g.u_d_cov[0], g.u_d_unc[1], g.u_d_unc[0], g.u_d_cov[1]])
    sa = np.array([g.u_a_cov[0], g.u_a_unc[1], g.u_a_unc[0], g.u_a_cov[1]])
    u_d = v @ sd
    u_a = v @ sa
    gain = u_a.max(axis=1)
    tie = u_a >= gain[:, None] - 1e-9
    value = np.where(tie, u_d, -np.inf).max(axis=1)
    return float(value.max()), n


def line_section(hp, a, b, c, tol=FEAS_TOL):
    """Reference for the section in `programs._pencil_values`, one line at a
    time: the points where a*x + b*y + c = 0 meets the boundary of the hull
    polygon hp (its vertices on the line first, then strict edge crossings);
    empty when the line misses the hull."""
    norm = np.hypot(a, b)
    if norm < 1e-300:
        return []
    a, b, c = a / norm, b / norm, c / norm
    v = hp.vertices
    scale = max(1.0, float(np.max(np.abs(v))))
    f = a * v[:, 0] + b * v[:, 1] + c
    pts = [tuple(v[i]) for i in range(hp.n) if abs(f[i]) <= tol * scale]
    m = hp.n if hp.n > 2 else hp.n - 1
    for i in range(max(m, 0)):
        j = (i + 1) % hp.n
        if f[i] * f[j] < 0:
            t = f[i] / (f[i] - f[j])
            p = v[i] + t * (v[j] - v[i])
            pts.append((float(p[0]), float(p[1])))
    return pts


def directional_value(p, pts) -> float:
    """Reference for the value in `programs._pencil_values`: the defender
    value a best-responding attacker lets the line p realize on its section
    pts.  With nonnegative correlation (or an indifferent attacker under the
    optimistic tie rule) that is the max-u_d end, otherwise the min-u_d end."""
    xs = [x for x, _ in pts]
    if abs(p[0]) <= 1e-12 or (abs(p[1]) > 1e-12 and -p[0] / p[1] >= 0):
        return max(xs)
    return min(xs)


def sweep_2d_reference(gmat, basis, hp):
    """The optimal program's angular sweep, one angle at a time: each sample
    is checked against the cell rows and scored through ``line_section`` and
    ``directional_value``; the first strictly better sample wins, then a
    24-step ternary refinement."""
    gb = gmat @ basis
    scale = max(1.0, float(np.max(np.abs(gb))))

    def value(p):
        pts = line_section(hp, p[0], p[1], p[2])
        return directional_value(p, pts) if pts else None

    best_t, best_v = None, -np.inf
    for t in np.arange(0.0, 2 * np.pi, _SWEEP_STEP):
        z = np.array([np.cos(t), np.sin(t)])
        if np.any(gb @ z < -FEAS_TOL * scale):
            continue
        v = value(basis @ z)
        if v is not None and v > best_v:
            best_t, best_v = t, v
    if best_t is None:
        return []
    lo, hi = best_t - _SWEEP_STEP, best_t + _SWEEP_STEP
    for _ in range(24):
        for t in (lo + (hi - lo) / 3, hi - (hi - lo) / 3):
            z = np.array([np.cos(t), np.sin(t)])
            if np.all(gb @ z >= -FEAS_TOL * scale):
                v = value(basis @ z)
                if v is not None and v > best_v:
                    best_t, best_v = t, v
        lo, hi = best_t - (hi - lo) / 3, best_t + (hi - lo) / 3
    return [basis @ np.array([np.cos(best_t), np.sin(best_t)])]


def pipeline_value(g: GameSpec, out=None):
    """Realized defender utility of the solve pipeline's strategy under
    attacker best response, scored afresh (None when no strategy exists);
    out is `solve_game(g, verify_samples=0)` when the caller has it."""
    if out is None:
        out = solve_game(g, verify_samples=0)
    if out.kind not in ("ideal", "optimal"):
        return None
    pair, _ = defender_utility_under_br(g, out.strategy)
    return pair.u_d


def policy_values_reference(g: GameSpec, pi_d, tables=None, solve=None):
    """Reference for `mdp._policy_values_batch`: every policy's chain built by
    `chain(F, W[pols])` and solved by `markov._direct`, with the policy table
    enumerated afresh.  Returns (pols, u_d, u_a); with a boolean mask `solve`,
    the policies outside it score u_d = 0 and u_a = -inf."""
    f, w, _, sd, sa = tables or _effective_tables(g, pi_d)
    pols = _enumerate_policies(g.k)
    v = _direct(chain(f, w[pols]))
    u_d, u_a = v @ sd, v @ sa
    if solve is not None:
        u_d, u_a = np.where(solve, u_d, 0.0), np.where(solve, u_a, -np.inf)
    return pols, u_d, u_a


def tie_choice_reference(g: GameSpec, pi_d):
    """The optimistic-follower choice over every policy, each solved on the
    full chain stack: (1-based policy, u_d, u_a) of the first policy that
    maximizes u_d among those within TIE_TOL of the best u_a."""
    pols, u_d, u_a = policy_values_reference(g, pi_d)
    tie = np.nonzero(u_a >= np.max(u_a) - TIE_TOL)[0]
    chosen = tie[int(np.argmax(u_d[tie]))]
    return tuple(int(x) + 1 for x in pols[chosen]), float(u_d[chosen]), float(u_a[chosen])


def bellman_residual(g: GameSpec, pi_d, br) -> float:
    """max_s |gain + h(s) - max_a Q(s, a)| of a best response on the
    effective MDP."""
    k = g.k
    f, w, r_eff, _, _ = _effective_tables(g, pi_d)
    q = r_eff + f @ (br.bias.reshape(k, k) @ w.T)
    return float(np.max(np.abs(br.gain + br.bias - q.max(axis=1))))


def swap_search_direct(g: GameSpec, pi_d):
    """Reference for the optimistic tie search above K = 3: the same start
    policies, state order and first-improvement acceptance as
    `defender_utility_under_br`, with every candidate scored by its own dense
    stationary solve.  Returns (1-based policy tuple, (u_d, u_a))."""
    assert g.k > 3
    n = g.k * g.k
    br = best_response(g, pi_d)
    gain_ref = br.gain
    candidates = [np.asarray(br.policy, dtype=int)]
    candidates += [np.full(n, m, dtype=int) for m in range(1, g.k + 1)]
    best_pol, best_pair = None, None
    for cand in candidates:
        ud, ua = _policy_value(g, pi_d, cand)
        if ua < gain_ref - TIE_TOL:
            continue
        if best_pair is None or ud > best_pair[0] + _SWITCH_TOL:
            best_pol, best_pair = cand.copy(), (ud, ua)
    pol = best_pol
    improved = True
    guard = 0
    while improved and guard < 50:
        improved = False
        guard += 1
        for s in range(n):
            orig = pol[s]
            for a in range(1, g.k + 1):
                if a == orig:
                    continue
                pol[s] = a
                ud, ua = _policy_value(g, pi_d, pol)
                if ua >= gain_ref - TIE_TOL and ud > best_pair[0] + _SWITCH_TOL:
                    best_pair = (ud, ua)
                    orig = a
                    improved = True
                else:
                    pol[s] = orig
            pol[s] = orig
    return tuple(int(x) for x in pol), best_pair


def simulate_reference(g: GameSpec, pi_d, profile, steps, seed, stride=1,
                       reference_game=None, gauge_phi=None):
    """Per-step reference for `sim.simulate`: the same `stream(seed,
    "simulate")` draws (start state, one (steps, 2) block, one closing
    defender draw), actions by np.searchsorted on each cumulative row,
    segments grouped naively whenever the regime name changes, and every sum
    a math.fsum.  Returns a dict of plain lists."""
    k = g.k
    switching = profile.kind == "type_switching"
    if profile.kind == "fixed":
        regimes = [("fixed", g, profile.strategy.rows)]
    else:
        games = list(profile.games) if switching else [("best_response", g)]
        if switching and games[0][0] != profile.initial_type:
            games.reverse()
        regimes = [(name, game, np.eye(k)[np.asarray(
            best_response(game, pi_d).policy) - 1])
            for name, game in games]

    tables = [(profit_vector(game, "defender"), profit_vector(game, "attacker"))
              for _, game, _ in regimes]
    if reference_game is not None:
        ref = (profit_vector(reference_game, "defender"),
               profit_vector(reference_game, "attacker"))

    def pick(row, u):
        return min(int(np.searchsorted(np.cumsum(row), u, side="right")), k - 1)

    rng = stream(seed, "simulate")
    s = int(rng.integers(k * k))
    draws = rng.random((steps, 2))
    names, ds, u_d, u_a, r_d, r_a = [], [], [], [], [], []
    for t in range(steps):
        regime = (t // profile.period) % 2 if switching else 0
        policy = (max(t - profile.lag, 0) // profile.period) % 2 if switching else 0
        d = pick(pi_d.rows[s], draws[t, 0])
        a = pick(regimes[policy][2][s], draws[t, 1])
        s = d * k + a
        names.append(regimes[regime][0])
        ds.append(d)
        u_d.append(tables[regime][0][s])
        u_a.append(tables[regime][1][s])
        if reference_game is not None:
            r_d.append(ref[0][s])
            r_a.append(ref[1][s])
    ds.append(pick(pi_d.rows[s], rng.random()))

    marks = [t + 1 for t in range(steps) if (t + 1) % stride == 0 or t + 1 == steps]
    segments, start = [], 0
    for t in range(1, steps + 1):
        if t == steps or names[t] != names[start]:
            n = t - start
            seg = {"regime": names[start], "start": start, "length": n,
                   "mean_u_d": math.fsum(u_d[start:t]) / n,
                   "mean_u_a": math.fsum(u_a[start:t]) / n}
            if reference_game is not None:
                seg["ref_mean_u_d"] = math.fsum(r_d[start:t]) / n
                seg["ref_mean_u_a"] = math.fsum(r_a[start:t]) / n
            if gauge_phi is not None:
                seg["phi_boundary"] = float(gauge_phi[ds[t]] - gauge_phi[ds[start]])
            segments.append(seg)
            start = t
    return {
        "series_step": marks,
        "series_regime": [names[m - 1] for m in marks],
        "series_avg_u_d": [math.fsum(u_d[:m]) / m for m in marks],
        "series_avg_u_a": [math.fsum(u_a[:m]) / m for m in marks],
        "final": (math.fsum(u_d) / steps, math.fsum(u_a) / steps),
        "segments": segments,
    }


def simplex_reference(lp):
    """Reference for `lp.solve_lp`: the same standard form, two-phase simplex
    and Bland rule, with every row mapped, scaled, ratio-tested and pivoted
    one at a time in Python loops.  Returns an LpOutcome; raises as
    `solve_lp` does."""
    n = lp.n
    cols, shifts, extra_rows, ncol = [], np.zeros(n), [], 0
    for i, (lo, hi) in enumerate(lp.bounds):
        if lo is None and hi is None:
            cols.append([(ncol, 1.0), (ncol + 1, -1.0)])
            ncol += 2
        elif lo is not None and hi is None:
            shifts[i] = lo
            cols.append([(ncol, 1.0)])
            ncol += 1
        elif lo is None and hi is not None:
            shifts[i] = hi
            cols.append([(ncol, -1.0)])
            ncol += 1
        else:
            if hi < lo:
                raise LpError(f"variable {i} has empty bound interval [{lo}, {hi}]")
            shifts[i] = lo
            cols.append([(ncol, 1.0)])
            extra_rows.append((ncol, hi - lo))
            ncol += 1

    def to_y(row):
        out = np.zeros(ncol)
        for i, coef in enumerate(row):
            if coef != 0.0:
                for c, s in cols[i]:
                    out[c] += coef * s
        return out

    rows = [(to_y(row), rel, rhs - float(row @ shifts)) for row, rel, rhs in lp.constraints]
    for c, ub in extra_rows:
        r = np.zeros(ncol)
        r[c] = 1.0
        rows.append((r, LE, ub))
    c = to_y(lp.objective)
    if lp.sense == "max":
        c = -c

    status, y = _simplex_rows(c, rows, ncol)
    if status != "optimal":
        return LpOutcome(status=status)
    x = shifts.copy()
    for i in range(n):
        for col, s in cols[i]:
            x[i] += s * y[col]
    for i, (lo, hi) in enumerate(lp.bounds):
        if lo is not None and x[i] < lo:
            x[i] = lo
        if hi is not None and x[i] > hi:
            x[i] = hi
    viol = _violation(lp, x)
    if viol > LP_FEAS_TOL:
        raise LpNumericalError(
            f"simplex returned 'optimal' but the point violates constraints by {viol:.3e}")
    return LpOutcome("optimal", x, float(lp.objective @ x), viol)


def _simplex_rows(c, rows, ncol, eps=1e-9, max_pivots=50_000):
    m = len(rows)
    if m == 0:
        if np.any(c < -eps):
            return "unbounded", None
        return "optimal", np.zeros(ncol)
    A, b, rels = np.zeros((m, ncol)), np.zeros(m), []
    for i, (row, rel, rhs) in enumerate(rows):
        scale = max(1.0, np.max(np.abs(row))) if row.size else 1.0
        r, rv = row / scale, rhs / scale
        if rv < 0:
            r, rv = -r, -rv
            rel = {LE: GE, GE: LE, EQ: EQ}[rel]
        A[i], b[i] = r, rv
        rels.append(rel)
    n_slack = sum(1 for r in rels if r != EQ)
    n_art = sum(1 for r in rels if r != LE)
    width = ncol + n_slack + n_art
    T = np.zeros((m, width + 1))
    T[:, :ncol] = A
    T[:, -1] = b
    basis = np.empty(m, dtype=int)
    si, ai, art_cols = ncol, ncol + n_slack, []
    for i, rel in enumerate(rels):
        if rel == LE:
            T[i, si] = 1.0
            basis[i] = si
            si += 1
        elif rel == GE:
            T[i, si] = -1.0
            si += 1
            T[i, ai] = 1.0
            basis[i] = ai
            art_cols.append(ai)
            ai += 1
        else:
            T[i, ai] = 1.0
            basis[i] = ai
            art_cols.append(ai)
            ai += 1

    def run(obj_row):
        pivots = 0
        while True:
            enter = -1
            for j in range(width):
                if obj_row[j] < -eps:
                    enter = j
                    break
            if enter < 0:
                return "optimal"
            leave, best = -1, np.inf
            for i in range(m):
                a = T[i, enter]
                if a > eps:
                    ratio = T[i, -1] / a
                    if ratio < best - eps or (
                        abs(ratio - best) <= eps and (leave < 0 or basis[i] < basis[leave])
                    ):
                        best, leave = ratio, i
            if leave < 0:
                return "unbounded"
            piv = T[leave, enter]
            T[leave] /= piv
            for i in range(m):
                if i != leave and T[i, enter] != 0.0:
                    T[i] -= T[i, enter] * T[leave]
            obj_row -= obj_row[enter] * T[leave]
            basis[leave] = enter
            pivots += 1
            if pivots > max_pivots:
                raise LpNumericalError("pivot budget exhausted (degenerate basis?)")

    if art_cols:
        w = np.zeros(width + 1)
        for j in art_cols:
            w[j] = 1.0
        for i in range(m):
            if basis[i] in art_cols:
                w -= T[i]
        if run(w) != "optimal":
            raise LpNumericalError("phase-1 reported unbounded; inconsistent tableau")
        if -w[-1] > LP_FEAS_TOL:
            return "infeasible", None
        art_set = set(art_cols)
        for i in range(m):
            if basis[i] in art_set:
                for j in range(ncol + n_slack):
                    if abs(T[i, j]) > 1e-7:
                        piv = T[i, j]
                        T[i] /= piv
                        for r in range(m):
                            if r != i and T[r, j] != 0.0:
                                T[r] -= T[r, j] * T[i]
                        basis[i] = j
                        break
        for j in art_cols:
            T[:, j] = 0.0
    z = np.zeros(width + 1)
    z[:ncol] = c
    for i in range(m):
        if z[basis[i]] != 0.0:
            z -= z[basis[i]] * T[i]
    if run(z) != "optimal":
        return "unbounded", None
    y = np.zeros(width)
    for i in range(m):
        y[basis[i]] = T[i, -1]
    return "optimal", np.maximum(y[:ncol], 0.0)
