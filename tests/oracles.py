"""Shared brute-force oracles used by module and acceptance tests.

These re-derive expected values through independent computations (dense
grids, exhaustive enumeration, direct linear algebra) rather than through
the code paths they check.
"""

import math
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from zdmtd.game import GameSpec, MemoryOneStrategy, flat_index, profit_vector
from zdmtd.lp import (EQ, FEAS_TOL as LP_FEAS_TOL, GE, LE, LinearProgram, LpError,
                      LpNumericalError, LpOutcome, check_feasible, solve_lp)
from zdmtd.lp import _violation
from zdmtd.markov import (EPSILON_MIX, TransitionMatrix, UtilityPair, _direct, build_transition,
                          chain, stationary)
from zdmtd.mdp import (
    TIE_TOL,
    _SWITCH_TOL,
    _accept_swap,
    _chain_values,
    _effective_tables,
    _fundamental,
    _policy_value,
    _start,
    best_response,
    defender_utility_under_br,
)
from zdmtd.cli import solve_game
from zdmtd.programs import FEAS_TOL, _SWEEP_STEP, HullPolygon, IdealResult
from zdmtd.rng import stream
from zdmtd.sim import RegimeSummary
from zdmtd.sse import MipConstraint, MipModel
from zdmtd.zd import (EQ8_TOL, ExistenceResult, FeasibilityParams, ZdLinearParams, _eq8_existence,
                      _require_canonical, _terms, construct_phi, eq8_violations)

DET_SINGULAR_TOL = 1e-12


def uniform_strategy(k: int) -> MemoryOneStrategy:
    return MemoryOneStrategy(k, np.full((k * k, k), 1.0 / k))


def pure_strategy(k: int, target: int) -> MemoryOneStrategy:
    """Always play `target` regardless of state."""
    rows = np.zeros((k * k, k))
    rows[:, target - 1] = 1.0
    return MemoryOneStrategy(k, rows)


def random_strategy(k: int, rng: np.random.Generator) -> MemoryOneStrategy:
    rows = rng.dirichlet(np.ones(k), size=k * k)
    return MemoryOneStrategy(k, rows)


def profit_vector_reference(g: GameSpec, player: str) -> np.ndarray:
    """`profit_vector` built per call: the uncovered profits tiled over the
    defender's previous actions, the covered one written at each flat(t, t)."""
    cov, unc = {"defender": (g.u_d_cov, g.u_d_unc), "attacker": (g.u_a_cov, g.u_a_unc)}[player]
    entries = np.tile(unc, g.k)
    for t in range(g.k):
        entries[flat_index(g.k, t + 1, t + 1)] = cov[t]
    return entries


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


def hull_reference(g: GameSpec) -> HullPolygon:
    """`programs.hull` as it was: the monotone chain walked on the rows of
    the sorted numpy array, numpy scalars in every cross product."""
    pts = np.concatenate(
        [np.column_stack([g.u_d_cov, g.u_a_cov]), np.column_stack([g.u_d_unc, g.u_a_unc])]
    )
    uniq = np.unique(pts, axis=0)  # lexicographic sort included
    if len(uniq) == 1:
        return HullPolygon(uniq)

    def half(points):
        out = []
        for p in points:
            while len(out) >= 2:
                o, a = out[-2], out[-1]
                if (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0]) <= 0:
                    out.pop()
                else:
                    break
            out.append(p)
        return out

    lower = half(uniq)
    upper = half(uniq[::-1])
    verts = np.array(lower[:-1] + upper[:-1])
    if len(verts) < 2:  # all points collinear and reduced
        verts = np.array([uniq[0], uniq[-1]])
    return HullPolygon(verts)


def null_space(rows: np.ndarray) -> np.ndarray:
    """Orthonormal basis (3 x d) of the null space of a (m x 3) system, as
    the per-cell candidate builder took it: ``vt[rank:].T`` of one SVD."""
    if rows.size == 0:
        return np.eye(3)
    u, s, vt = np.linalg.svd(rows)
    rank = int(np.sum(s > FEAS_TOL * max(1.0, s[0] if len(s) else 1.0)))
    return vt[rank:].T


def cell_ineq_rows(g: GameSpec, cell) -> np.ndarray:
    """Rows r with the cell requiring r @ p >= 0."""
    cov = np.column_stack([g.u_d_cov, g.u_a_cov, np.ones(g.k)])
    unc = np.column_stack([g.u_d_unc, g.u_a_unc, np.ones(g.k)])
    i1, i2 = cell.i1 - 1, cell.i2 - 1
    return np.array([-cov[i1], unc[i1], cov[i2], -unc[i2]])


def _cone_rays_2d(gmat: np.ndarray, basis: np.ndarray):
    """Extreme rays of {z in R^2 : (G B) z >= 0}, mapped back to R^3."""
    gb = gmat @ basis
    tol = -FEAS_TOL * max(1.0, float(np.max(np.abs(gb))))
    rays = []
    for row in gb:
        if np.hypot(row[0], row[1]) < 1e-14:
            continue
        for z in (np.array([-row[1], row[0]]), np.array([row[1], -row[0]])):
            if np.all(gb @ z >= tol):
                rays.append(basis @ z)
    return rays


def _cone_rays_3d(gmat: np.ndarray):
    """Extreme rays of {p in R^3 : G p >= 0} from pairs of active rows."""
    rays = []
    scale = max(1.0, float(np.max(np.abs(gmat))))
    m = len(gmat)
    for i in range(m):
        for j in range(i + 1, m):
            basis = null_space(np.array([gmat[i], gmat[j]]))
            if basis.shape[1] != 1:
                continue
            for s in (1.0, -1.0):
                r = s * basis[:, 0]
                if np.all(gmat @ r >= -FEAS_TOL * scale):
                    rays.append(r)
    return rays


def cell_candidates_reference(cell, hp, unc: np.ndarray, gmat: np.ndarray, scale: float):
    """`programs._game_candidates` one cell at a time, as the per-cell
    builder it replaced: one SVD per system, one product per vector."""
    eq_rows = np.delete(unc, [cell.i1 - 1, cell.i2 - 1], axis=0)
    basis = null_space(eq_rows)
    d = basis.shape[1]
    if d == 0:
        return []

    def feasible(p):
        return np.all(gmat @ p >= -FEAS_TOL * scale)

    cands = []
    if d == 1:
        for s in (1.0, -1.0):
            p = s * basis[:, 0]
            if feasible(p):
                cands.append(p)
        return cands

    def sub_candidates(extra_row):
        """Candidates on the slice where one extra homogeneous row binds."""
        sub = null_space(np.vstack([eq_rows, extra_row]))
        dd = sub.shape[1]
        if dd == 1:
            for s in (1.0, -1.0):
                p = s * sub[:, 0]
                if feasible(p):
                    cands.append(p)
        elif dd == 2:
            cands.extend(r for r in _cone_rays_2d(gmat, sub) if feasible(r))
            cands.append((gmat, sub))

    if d == 2:
        cands.extend(r for r in _cone_rays_2d(gmat, basis) if feasible(r))
    if d == 3:
        cands.extend(_cone_rays_3d(gmat))
        for row in gmat:  # optima with one sign condition active
            sub_candidates(row)

    # lines through each hull vertex: one extra homogeneous equality
    for vx, vy in hp.vertices:
        sub_candidates(np.array([vx, vy, 1.0]))

    if d == 2:
        cands.append((gmat, basis))
    return cands


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


def _enumerate_policies(k: int) -> np.ndarray:
    """All deterministic policies in lexicographic order, 0-based actions."""
    n = k * k
    return (np.arange(k**n)[:, None] // k ** np.arange(n - 1, -1, -1)) % k


def policy_values_reference(g: GameSpec, pi_d, tables=None):
    """(pols, u_d, u_a) of every deterministic policy, in lexicographic
    order: each policy's chain built by `chain(F, W[pols])` and solved by
    `markov._direct`, one stacked LAPACK solve."""
    f, w, _, sd, sa = tables or _effective_tables(g, pi_d)
    pols = _enumerate_policies(g.k)
    v = _direct(chain(f, w[pols]))
    return pols, v @ sd, v @ sa


def screen_values_reference(f, w, sd, sa):
    """Reference for `mdp._screen_values`: the same GTH state reduction,
    every table a fresh array (the first built by concatenate, each step by
    a product and an in-place sum)."""
    k, n = w.shape[0], f.shape[0]
    p = (f[:, None, :, None] * w[None, :, None, :]).reshape(n, k, n)  # [i, b, flat(d, a)]
    p[..., -1] = np.reshape([math.fsum([1.0, *-row[:-1]]) for row in p.reshape(-1, n)], (n, k))
    per_visit = np.broadcast_to(np.stack([sd, sa, np.ones(n)], axis=1)[:, :, None], (n, 3, k))
    t = np.concatenate([per_visit, p.transpose(0, 2, 1)], axis=1)[..., None]  # [i, column, b, x]
    for m in range(n - 1, 0, -1):
        row = t[m, :m + 3] / t[m, 3:m + 3].sum(axis=0)  # [column, b_m, x]
        step = t[:m, None, m + 3, :, None] * row[None, :, None]  # [i, column, b, b_m, x]
        step += t[:m, :m + 3, :, None]
        t = step.reshape(m, m + 3, k, -1)
    return (t[0, 0] / t[0, 2]).ravel(), (t[0, 1] / t[0, 2]).ravel()


def _solve_exact(a, b):
    """x with a x = b in rational arithmetic (Gaussian elimination on the
    first nonzero pivot); a is a list of rows of Fractions."""
    n = len(b)
    rows = [list(r) + [y] for r, y in zip(a, b)]
    for c in range(n):
        piv = next(i for i in range(c, n) if rows[i][c] != 0)
        rows[c], rows[piv] = rows[piv], rows[c]
        top = rows[c]
        for i in range(c + 1, n):
            if rows[i][c] != 0:
                q = rows[i][c] / top[c]
                rows[i] = [x - q * y for x, y in zip(rows[i], top)]
    x = [Fraction(0)] * n
    for c in range(n - 1, -1, -1):
        x[c] = (rows[c][n] - sum(rows[c][j] * x[j] for j in range(c + 1, n))) / rows[c][c]
    return x


def exact_policy_values(g: GameSpec, pi_d, policy):
    """Exact (u_d, u_a), as Fractions, of a 1-based deterministic policy on
    the system the chain kernel solves: the direct system v (P - I) = 0 with
    the last equation replaced by sum(v) = 1, built from the blended tables'
    float-rounded products P[s, flat(d, a)] = F[s, d] W[b, a], each taken
    exactly."""
    f, w, _, sd, sa = _effective_tables(g, pi_d)
    p = chain(f, w[np.asarray(policy) - 1])
    n = len(p)
    a = [[Fraction(float(p[i, j])) - (i == j) for i in range(n)] for j in range(n - 1)]
    v = _solve_exact(a + [[Fraction(1)] * n], [Fraction(0)] * (n - 1) + [Fraction(1)])
    return (sum(x * Fraction(float(y)) for x, y in zip(v, sd)),
            sum(x * Fraction(float(y)) for x, y in zip(v, sa)))


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


def start_direct(f, w, sd, sa, howard_idx, floor):
    """Reference for `mdp._start`: the same candidates (the 0-based Howard
    policy, then the K constant policies), tie-set floor and strict
    _SWITCH_TOL preference in order, with each candidate scored by its own
    direct solve on K^2 states; Howard's policy when none reaches the
    floor.  Returns (policy, (u_d, u_a))."""
    n = f.shape[0]
    candidates = [howard_idx] + [np.full(n, m, dtype=int) for m in range(w.shape[0])]
    best_pol, best_pair = None, None
    for cand in candidates:
        ud, ua = _chain_values(f, w, sd, sa, cand)
        if ua < floor:
            continue
        if best_pair is None or ud > best_pair[0] + _SWITCH_TOL:
            best_pol, best_pair = cand.copy(), (ud, ua)
    if best_pol is None:
        best_pol, best_pair = howard_idx.copy(), _chain_values(f, w, sd, sa, howard_idx)
    return best_pol, best_pair


def swap_search_direct(g: GameSpec, pi_d):
    """Reference for the optimistic tie search above K = 3: the same start
    policies, state order and first-improvement acceptance as
    `defender_utility_under_br`, with every candidate scored by its own dense
    stationary solve.  Returns (1-based policy tuple, (u_d, u_a))."""
    assert g.k > 3
    n = g.k * g.k
    f, w, _, sd, sa = _effective_tables(g, pi_d)
    br = best_response(g, pi_d)
    gain_ref = br.gain
    pol, best_pair = start_direct(f, w, sd, sa, np.asarray(br.policy) - 1, gain_ref - TIE_TOL)
    pol += 1
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


def swap_values_per_state(f, w, fund, policy_idx, s):
    """Per-state reference for `mdp._swap_values`: (u_d, u_a) arrays over
    every action at the one state s, by the same rank-one update, with the
    state's (K, 3K) product taken as a vector-matrix product."""
    z, v, zsd, zsa, ud, ua = fund
    k = w.shape[0]
    x = np.stack([zsd, zsa, z[:, s]], axis=1).reshape(k, 3 * k)  # [d, (a, j)]
    y = w @ (f[s] @ x).reshape(k, 3)  # y[a, j] = (F[s] (x) W[a]) . x_j
    dy = y - y[policy_idx[s]]
    vs = v[s] / (1.0 - dy[:, 2])
    return ud + vs * dy[:, 0], ua + vs * dy[:, 1]


def swap_search_per_state(g: GameSpec, pi_d, reform=False):
    """Per-state reference for the search above K = 3 in
    `defender_utility_under_br`: the same start, tables and accepted-swap
    updates (`_accept_swap`), but every state of a sweep scored by its own
    `swap_values_per_state` call.  It is a reference for the sweep, not for
    the start, which it takes from `mdp._start` (`start_direct` is the
    start's reference).  With `reform`, an accepted swap re-forms the
    fundamental matrix and the pair by direct solves, as the search does
    below its pivot floor.  Returns ((u_d, u_a), 1-based policy tuple)."""
    assert g.k > 3
    n = g.k * g.k
    tables = f, w, _, sd, sa = _effective_tables(g, pi_d)
    br = best_response(g, pi_d, tables)
    floor = br.gain - TIE_TOL
    pol, best_pair, fund = _start(f, w, sd, sa, np.asarray(br.policy, dtype=int) - 1, floor)
    improved = True
    guard = 0
    while improved and guard < 50:
        improved = False
        guard += 1
        for s in range(n):
            ud, ua = swap_values_per_state(f, w, fund, pol, s)
            orig = pol[s]
            for a in range(g.k):
                if a != orig and ua[a] >= floor and ud[a] > best_pair[0] + _SWITCH_TOL:
                    best_pair = (ud[a], ua[a])
                    orig = a
            if orig == pol[s]:
                continue
            improved = True
            if reform:
                pol[s] = orig
                best_pair = _chain_values(f, w, sd, sa, pol)
                fund = _fundamental(f, w, sd, sa, pol)
            else:
                fund, best_pair = _accept_swap(f, w, sd, sa, fund, pol, s, orig)
    return UtilityPair(*best_pair), tuple(int(x) + 1 for x in pol)


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


def memory_two_utilities(g: GameSpec, pi_d, attacker_rows) -> UtilityPair:
    """Exact long-run (u_d, u_a) of a memory-one defender against a
    memory-two attacker, whose row `attacker_rows[s1 * K^2 + s2]` is its
    distribution over targets after the states s1 then s2.  The chain runs
    on the K^4 pairs of consecutive states, (s1, s2) -> (s2, d * K + a),
    solved by `markov.stationary` (the direct solve, or the closed-class
    limit from the uniform start when the pair chain is reducible);
    utilities come from the marginal of the later state."""
    n = g.k * g.k
    # step[s1, s2, s3]: probability of the next state s3 = d * K + a
    step = np.einsum("td,rta->rtda", pi_d.rows,
                     np.asarray(attacker_rows).reshape(n, n, g.k)).reshape(n, n, n)
    m = np.zeros((n, n, n, n))
    m[:, np.arange(n), np.arange(n), :] = step
    last = stationary(TransitionMatrix(n, m.reshape(n * n, n * n))).v.reshape(n, n).sum(axis=0)
    return UtilityPair(float(last @ profit_vector(g, "defender")),
                       float(last @ profit_vector(g, "attacker")))


def running_sums_reference(x: np.ndarray, carry: np.ndarray) -> np.ndarray:
    """Reference for `sim._running_sums`: the same Sum2 operations (one
    np.cumsum over the carry and the block, TwoSum errors, their own
    np.cumsum), written with fresh arrays from concatenate and stack."""
    c = np.cumsum(np.concatenate([carry[0][:, None], x], axis=1), axis=1)
    prev, s = c[:, :-1], c[:, 1:]
    z = s - prev
    err = np.concatenate([carry[1][:, None], (prev - (s - z)) + (x - z)], axis=1)
    return np.stack([s, np.cumsum(err, axis=1)[:, 1:]])


def segment_records(stats):
    """The segment columns of `sim.simulate`'s stats as one dict per segment,
    keyed like `simulate_reference`'s segments, in plain Python numbers; the
    reference game's means and phi_boundary appear only when tracked."""
    n = len(stats.segment_regime)
    columns = {"regime": stats.segment_regime.tolist(),
               "start": stats.segment_bounds[:-1].tolist(),
               "length": np.diff(stats.segment_bounds).tolist()}
    keys = ("mean_u_d", "mean_u_a", "ref_mean_u_d", "ref_mean_u_a")
    columns.update(zip(keys, stats.segment_means.tolist()))
    if stats.segment_phi_boundary is not None:
        columns["phi_boundary"] = stats.segment_phi_boundary.tolist()
    return [{key: col[i] for key, col in columns.items()} for i in range(n)]


def regime_summaries_reference(segments, zd_params):
    """`sim.regime_summaries` pooled from `segment_records`, one regime at a
    time with plain left-to-right sums in segment order: the arithmetic the
    column version must reproduce bit for bit.  (The builtin `sum` adds
    floats that way only before Python 3.12, which compensates them.)"""
    def in_order(values):
        total = 0
        for value in values:
            total += value
        return total

    out = {}
    for name in dict.fromkeys(seg["regime"] for seg in segments):
        segs = [seg for seg in segments if seg["regime"] == name]
        n = sum(seg["length"] for seg in segs)
        mean_d = in_order(seg["mean_u_d"] * seg["length"] for seg in segs) / n
        mean_a = in_order(seg["mean_u_a"] * seg["length"] for seg in segs) / n
        residual = raw = se = None
        if zd_params is not None and "ref_mean_u_d" in segs[0]:
            a_, b_, c_ = zd_params.alpha, zd_params.beta, zd_params.gamma
            vals = np.array([a_ * seg["ref_mean_u_d"] + b_ * seg["ref_mean_u_a"] + c_
                             for seg in segs])
            weights = np.array([seg["length"] for seg in segs], dtype=float)
            raw = abs(float(vals @ weights) / n)
            comp = vals
            if "phi_boundary" in segs[0]:
                comp = vals - np.array([seg["phi_boundary"] for seg in segs]) / weights
            residual = abs(float(comp @ weights) / n)
            if len(comp) >= 2:
                se = float(comp.std(ddof=1) / np.sqrt(len(comp)))
        out[name] = RegimeSummary(name, n, len(segs), mean_d, mean_a, residual, raw, se)
    return out


def solve_ideal_reference(g: GameSpec) -> IdealResult:
    """Reference for `programs.solve_ideal`: one feasibility program per
    (role1, role_k) pair, tried in order, each built row by row."""
    _require_canonical(g)

    def cov(t):
        return np.array([g.u_d_cov[t - 1], g.u_a_cov[t - 1], 1.0])

    def unc(t):
        return np.array([g.u_d_unc[t - 1], g.u_a_unc[t - 1], 1.0])

    top = [t for t in range(1, g.k + 1) if g.u_d_cov[t - 1] >= np.max(g.u_d_cov) - 1e-9]
    for role1 in top:
        for role_k in range(1, g.k + 1):
            if role_k == role1:
                continue
            rows = [(cov(role1), EQ, 0.0), (cov(role_k), GE, 0.0), (unc(role1), GE, 0.0)]
            rows += [(unc(t), EQ, 0.0) for t in range(1, g.k + 1) if t not in (role1, role_k)]
            rows += [(unc(role_k), LE, 0.0), (np.array([1.0, 0.0, 0.0]), LE, 0.0),
                     (np.array([0.0, 1.0, 0.0]), GE, 0.0), (np.array([-1.0, 1.0, 0.0]), GE, 1.0)]
            res = check_feasible(rows, 3)
            if res.status == "optimal":
                return IdealResult(True, ZdLinearParams(*res.x).normalized(), role1, role_k)
    return IdealResult(False)


def simplex_reference(lp):
    """Reference for `lp.solve_lp`: the same standard form, two-phase simplex,
    Bland rule and re-forms, with every row mapped, scaled, ratio-tested and
    pivoted one at a time in Python loops.  Returns an LpOutcome; raises as
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

    def point(y):
        x = shifts.copy()
        for i in range(n):
            for col, s in cols[i]:
                x[i] += s * y[col]
        for i, (lo, hi) in enumerate(lp.bounds):
            if lo is not None and x[i] < lo:
                x[i] = lo
            if hi is not None and x[i] > hi:
                x[i] = hi
        return x, _violation(lp, x)

    status, x, viol = _simplex_rows(c, rows, ncol, point)
    if status != "optimal":
        return LpOutcome(status=status)
    return LpOutcome("optimal", x, float(lp.objective @ x), viol)


def _verified(x, viol):
    if viol > LP_FEAS_TOL:
        raise LpNumericalError(
            f"simplex returned 'optimal' but the point violates constraints by {viol:.3e}")
    return "optimal", x, viol


def _simplex_rows(c, rows, ncol, point, eps=1e-9, max_pivots=50_000):
    """(status, x, violation) of min c@y over the rows, y >= 0, where
    point(y) gives the caller's x and its violation."""
    m = len(rows)
    if m == 0:
        if np.any(c < -eps):
            return "unbounded", None, None
        return ("optimal",) + point(np.zeros(ncol))
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
    initial = T.copy()

    def reform():
        """The tableau solved afresh from the initial one and the basis."""
        T[:] = np.linalg.solve(initial[:, basis], initial)

    def priced(cost_cols, cost):
        row = np.zeros(width + 1)
        row[cost_cols] = cost
        for i in range(m):
            if row[basis[i]] != 0.0:
                row -= row[basis[i]] * T[i]
        return row

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

    def phase2():
        """The basic point once phase 2 ends optimal, else None."""
        if run(priced(np.arange(ncol), c)) != "optimal":
            return None
        y = np.zeros(width)
        for i in range(m):
            y[basis[i]] = T[i, -1]
        return point(np.maximum(y[:ncol], 0.0))

    residual = 0.0  # phase 1's sum of artificials at its optimum
    if art_cols:
        w = np.zeros(width + 1)
        for j in art_cols:
            w[j] = 1.0
        for i in range(m):
            if basis[i] in art_cols:
                w -= T[i]
        if run(w) != "optimal":
            reform()  # drift can make a column look improving: once
            w = priced(art_cols, 1.0)
            if run(w) != "optimal":
                raise LpNumericalError("phase-1 reported unbounded; inconsistent tableau")
        residual = -w[-1]
        if residual > LP_FEAS_TOL:
            return "infeasible", None, None
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
    found = phase2()
    if found is None:
        return "unbounded", None, None
    x, viol = found
    if viol <= LP_FEAS_TOL:
        return "optimal", x, viol
    # the same drift can leave a basis whose rhs reads feasible while its
    # point is not: re-form once and finish phase 2 again
    try:
        reform()
    except np.linalg.LinAlgError:
        return _verified(x, viol)
    for j in art_cols:
        T[:, j] = 0.0
    x, viol = phase2() or (x, viol)
    if viol > LP_FEAS_TOL and residual > 0.0:
        return "infeasible", None, None  # phase 1 ended inside the tolerance band
    return _verified(x, viol)


def hull_contains(hp, x, y, tol=FEAS_TOL) -> bool:
    """Whether (x, y) lies in the hull polygon hp (a point, a segment, or a
    counterclockwise polygon), to tol times the vertex scale."""
    v = hp.vertices
    scale = max(1.0, float(np.max(np.abs(v))))
    if hp.n == 1:
        return bool(np.hypot(x - v[0, 0], y - v[0, 1]) <= tol * scale)
    if hp.n == 2:
        a, b = v
        d = b - a
        t = float(np.clip(np.dot([x - a[0], y - a[1]], d) / max(d @ d, 1e-300), 0, 1))
        px, py = a + t * d
        return bool(np.hypot(x - px, y - py) <= tol * scale)
    for i in range(hp.n):
        ax, ay = v[i]
        bx, by = v[(i + 1) % hp.n]
        cross = (bx - ax) * (y - ay) - (by - ay) * (x - ax)
        if cross < -tol * scale * max(1.0, np.hypot(bx - ax, by - ay)):
            return False
    return True


def existence_check(g: GameSpec, p: ZdLinearParams) -> ExistenceResult:
    """Do feasibility multipliers exist for these linear parameters?  The
    explicit construction first, then per candidate argmax index the sign
    conditions and the closed-form least multipliers; the game must be in
    canonical labels."""
    _require_canonical(g)
    return _eq8_existence(g, p)


def existence_lp_reference(g: GameSpec, p: ZdLinearParams, least: bool = False) -> ExistenceResult:
    """Reference for `zd._eq8_existence`: the explicit multipliers, then per
    candidate argmax index m the same sign conditions and one feasibility LP
    over the inequalities left, built row by row.  With `least` the LP
    minimizes sum(phi) instead of finding any feasible point."""
    phi = construct_phi(g, p)
    if not eq8_violations(g, p, phi):
        return ExistenceResult(True, phi)

    # fall back to a feasibility LP per candidate argmax index m; fixing the
    # argmax makes every max/min term in the inequalities linear
    c, u = _terms(g, p)
    k = g.k
    tol = EQ8_TOL
    witness = []
    for m in range(k - 1):
        consts = []
        if c[k - 1] < -tol:
            consts.append(f"covered[K] must be >= 0, got {c[k - 1]:.6g}")
        if u[k - 1] > tol:
            consts.append(f"uncovered[K] must be <= 0, got {u[k - 1]:.6g}")
        if c[m] > tol:
            consts.append(f"covered[{m + 1}] must be <= 0 at the argmax, got {c[m]:.6g}")
        if u[m] < -tol:
            consts.append(f"uncovered[{m + 1}] must be >= 0 at the argmax, got {u[m]:.6g}")
        for t in range(k - 1):
            if t != m and abs(u[t]) > tol:
                consts.append(f"uncovered[{t + 1}] must vanish off the argmax, got {u[t]:.6g}")
        if consts:
            witness.append(f"argmax phi_{m + 1}: " + "; ".join(consts))
            continue

        rows = []
        e = np.eye(k - 1)
        for j in range(k - 1):
            if j != m:
                rows.append((e[m] - e[j], GE, 0.0))          # ordering
                rows.append((e[m] - e[j], GE, u[m]))         # u_m <= phi_m - phi_j
        for t in range(k - 1):
            rows.append((e[t], GE, -c[t]))                   # -phi_t <= c_t
            if t != m:
                rows.append((e[m] - e[t], GE, c[t]))         # c_t <= phi_m - phi_t
            rows.append((e[t], GE, -u[k - 1]))               # -min phi <= u_K
        rows.append((e[m], GE, c[k - 1]))                    # c_K <= phi_max
        rows.append((e[m], GE, u[m]))                        # u_m <= phi_m - phi_K
        if least:
            res = solve_lp(LinearProgram(np.ones(k - 1), "min", tuple(rows), [(0.0, None)] * (k - 1)))
        else:
            res = check_feasible(rows, k - 1, bounds=[(0.0, None)] * (k - 1))
        if res.status == "optimal":
            phi_vec = np.append(res.x, 0.0)
            fp = FeasibilityParams(phi_vec)
            bad = eq8_violations(g, p, fp)
            if not bad:
                return ExistenceResult(True, fp)
            witness.append(f"argmax phi_{m + 1}: LP point failed recheck: " + "; ".join(bad))
        else:
            witness.append(f"argmax phi_{m + 1}: multiplier LP infeasible")
    return ExistenceResult(False, witness=tuple(witness))


@dataclass(frozen=True)
class CorollaryReport:
    equalizer: bool
    extortion: bool
    generous: bool
    theta: float
    chi: float = None


def check_corollaries(g: GameSpec, theta: float = 0.0, tol: float = FEAS_TOL) -> CorollaryReport:
    """Fast sufficient conditions for an ideal line of each typical class.

    The extortion/generous conditions are evaluated in the orientation
    consistent with the ideal program's sign constraints (alpha <= 0 <=
    beta).  Requires canonical labels; theta is the caller's surplus
    baseline.
    """
    _require_canonical(g)
    k = g.k
    t1, tk = 1, k

    mids_eq = all(abs(g.u_a_unc[t - 1] - g.u_a_cov[0]) <= tol for t in range(2, k))
    equalizer = (
        g.u_a_cov[tk - 1] >= g.u_a_cov[0] - tol
        and g.u_a_unc[0] >= g.u_a_cov[0] - tol
        and g.u_a_unc[tk - 1] <= g.u_a_cov[0] + tol
        and mids_eq
    )

    if abs(g.u_a_cov[0] - theta) <= 1e-12:
        raise ValueError(
            f"chi undefined: attacker covered value at label 1 equals theta={theta}"
        )
    chi = (g.u_d_cov[0] - theta) / (g.u_a_cov[0] - theta)

    def expr(ud, ua):
        return (ud - theta) - chi * (ua - theta)

    shape = (
        expr(g.u_d_cov[tk - 1], g.u_a_cov[tk - 1]) <= tol
        and expr(g.u_d_unc[tk - 1], g.u_a_unc[tk - 1]) >= -tol
        and expr(g.u_d_unc[0], g.u_a_unc[0]) <= tol
        and all(
            abs(expr(g.u_d_unc[t - 1], g.u_a_unc[t - 1])) <= tol for t in range(2, k)
        )
    )
    extortion = bool(shape and chi >= 1.0 - 1e-12)
    generous = bool(shape and -1e-12 <= chi <= 1.0 + 1e-12)
    return CorollaryReport(bool(equalizer), extortion, generous, theta, chi)


class SingularChainError(RuntimeError):
    """Determinant denominator vanished (reducible chain); use the
    stationary-based evaluator instead."""


def det_utilities(g: GameSpec, pi_d, pi_a) -> UtilityPair:
    """Determinant-ratio utilities: det with last column replaced by the
    profit vector over det with it replaced by the ones vector.

    The common scale of both determinants cancels in the ratio; the
    denominator is tested against a Hadamard-scaled threshold and a
    singular chain is reported rather than evaluated.
    """
    if not (g.k == pi_d.k == pi_a.k):
        raise ValueError("K mismatch between game and strategies")
    m = build_transition(pi_d, pi_a).m
    base = m - np.eye(m.shape[0])
    ones = np.ones(m.shape[0])

    den_base = base.copy()
    den_base[:, -1] = ones
    row_norms = np.linalg.norm(den_base, axis=1)
    log_hadamard = float(np.sum(np.log(np.maximum(row_norms, 1e-300))))
    sign_den, log_den = np.linalg.slogdet(den_base)
    if sign_den == 0 or log_den - log_hadamard < np.log(DET_SINGULAR_TOL):
        raise SingularChainError(
            "denominator determinant vanishes (reducible chain); "
            "evaluate via the stationary distribution instead"
        )

    out = []
    for player in ("defender", "attacker"):
        num = base.copy()
        num[:, -1] = profit_vector(g, player)
        sign_num, log_num = np.linalg.slogdet(num)
        if sign_num == 0:
            out.append(0.0)
        else:
            out.append(float(sign_num * sign_den * np.exp(log_num - log_den)))
    return UtilityPair(out[0], out[1])


@dataclass(frozen=True)
class ExhaustiveBR:
    policy: tuple  # 1-based target per flat state
    gain: float
    policies_evaluated: int


def exhaustive_br(g: GameSpec, pi_d) -> ExhaustiveBR:
    """Enumerate all K^(K^2) deterministic memory-one policies and return the
    maximizer of the attacker's long-run utility (ties go to the
    lexicographically smallest policy)."""
    if g.k > 3:
        raise ValueError(f"exhaustive enumeration guarded to K <= 3, got K={g.k}")
    pols, _, u_a = policy_values_reference(g, pi_d)
    best = int(np.argmax(u_a))
    return ExhaustiveBR(tuple(int(x) + 1 for x in pols[best]), float(u_a[best]), len(pols))


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
    """Parse `sse.render_mip`'s format back into a model (strict grammar)."""
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
