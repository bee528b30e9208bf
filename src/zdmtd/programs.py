"""Linear-parameter search for zero-determinant strategies.

Two programs, mirroring the construction algorithm's first step;
``cli.solve_game`` runs the ideal program and, only when no ideal line
exists, the optimal one:

* the ideal program -- a small feasibility LP pinning the enforced line
  through the best covered outcome (label 1) with sign conditions at a
  second reference target; feasible parameters give the defender the full
  Stackelberg value under attacker best response;
* the optimal program -- enumerate the cells of parameter space cut out by
  the uncovered-value equalities (all targets except an ordered pair
  (i1, i2)), and on each cell maximize the defender's coordinate over the
  intersection of the enforced line with the convex hull of attainable
  utility pairs.

The bilinear coupling between the line coefficients and the utility point
disappears inside a cell: the coefficients live in a low-dimensional cone,
so the search reduces to finitely many candidate rays (cone extreme rays,
lines through hull vertices, and an angular sweep at 1e-3 rad with local
refinement), each certified by direct constraint re-verification.  One
kernel, ``_pencil_values``, scores lines against the hull: every sample of
a sweep slice in one array pass, and a cell's surviving candidates in one
more.  Cells whose equality rows are certified to have rank 3 (no
candidate) are skipped before any candidate is built.  Candidates are also
screened through the existence inequalities in the construction frame, and
at desk scale each surviving candidate is realized and scored under actual
attacker best response.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .game import GameSpec, relabeling, repeat_strategy
from .lp import EQ, GE, LE, check_feasible
from .markov import UtilityPair
from .mdp import defender_utility_under_br
from .zd import (
    ZdConstructionError,
    ZdLinearParams,
    ZdStrategy,
    _eq8_existence,
    _require_canonical,
    classify,
    construct_strategy,
    defining_residual,
)

FEAS_TOL = 1e-9
_SWEEP_STEP = 1e-3  # radians


@dataclass(frozen=True)
class LambdaCell:
    """Ordered target pair whose cell fixes the uncovered equalities at all
    other targets plus four sign conditions at (i1, i2)."""

    i1: int
    i2: int

    def __post_init__(self):
        if self.i1 == self.i2:
            raise ValueError("cell indices must differ")


@dataclass(frozen=True)
class HullPolygon:
    """Convex hull of the 2K utility pairs, counterclockwise; degenerate
    hulls (segment, point) keep their reduced vertex list."""

    vertices: np.ndarray

    @property
    def n(self) -> int:
        return len(self.vertices)

    def contains(self, x: float, y: float, tol: float = FEAS_TOL) -> bool:
        v = self.vertices
        scale = max(1.0, float(np.max(np.abs(v))))
        if self.n == 1:
            return bool(np.hypot(x - v[0, 0], y - v[0, 1]) <= tol * scale)
        if self.n == 2:
            a, b = v
            d = b - a
            t = float(np.clip(np.dot([x - a[0], y - a[1]], d) / max(d @ d, 1e-300), 0, 1))
            px, py = a + t * d
            return bool(np.hypot(x - px, y - py) <= tol * scale)
        for i in range(self.n):
            ax, ay = v[i]
            bx, by = v[(i + 1) % self.n]
            cross = (bx - ax) * (y - ay) - (by - ay) * (x - ax)
            if cross < -tol * scale * max(1.0, np.hypot(bx - ax, by - ay)):
                return False
        return True


@dataclass(frozen=True)
class ZdSolveResult:
    kind: str  # optimal | none
    params: ZdLinearParams = None
    predicted: UtilityPair = None
    realized: UtilityPair = None
    cell: LambdaCell = None
    certificate: dict = field(default_factory=dict)
    realization: tuple = None  # realize_params output for an optimal winner


def hull(g: GameSpec) -> HullPolygon:
    """Monotone-chain convex hull of the 2K covered/uncovered utility pairs."""
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


def _cov_row(g: GameSpec, t: int) -> np.ndarray:
    return np.array([g.u_d_cov[t - 1], g.u_a_cov[t - 1], 1.0])


def _unc_row(g: GameSpec, t: int) -> np.ndarray:
    return np.array([g.u_d_unc[t - 1], g.u_a_unc[t - 1], 1.0])


@dataclass(frozen=True)
class IdealResult:
    found: bool
    params: ZdLinearParams = None
    role1: int = None
    role_k: int = None


def solve_ideal(g: GameSpec) -> IdealResult:
    """Feasibility of the ideal-line program.

    The displayed program pins targets 1 and K into specific roles after a
    relabeling that only fixes the argmax; we therefore try every argmax
    tie in the "1" role and every other target in the "K" role, and exclude
    the all-zero solution with the lossless normalization beta - alpha >= 1
    (the system is homogeneous with alpha <= 0 <= beta).
    """
    _require_canonical(g)
    top = [t for t in range(1, g.k + 1) if g.u_d_cov[t - 1] >= np.max(g.u_d_cov) - 1e-9]
    for role1 in top:
        for role_k in range(1, g.k + 1):
            if role_k == role1:
                continue
            rows = [(_cov_row(g, role1), EQ, 0.0),
                    (_cov_row(g, role_k), GE, 0.0),
                    (_unc_row(g, role1), GE, 0.0)]
            for t in range(1, g.k + 1):
                if t not in (role1, role_k):
                    rows.append((_unc_row(g, t), EQ, 0.0))
            rows.append((_unc_row(g, role_k), LE, 0.0))
            rows.append((np.array([1.0, 0.0, 0.0]), LE, 0.0))
            rows.append((np.array([0.0, 1.0, 0.0]), GE, 0.0))
            rows.append((np.array([-1.0, 1.0, 0.0]), GE, 1.0))
            res = check_feasible(rows, 3)
            if res.feasible:
                p = ZdLinearParams(*res.x).normalized()
                return IdealResult(True, p, role1, role_k)
    return IdealResult(False)


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
    beta); see the repo notes on the orientation of the printed lists.
    Requires canonical labels; theta is the caller's surplus baseline.
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


def _null_space(rows: np.ndarray) -> np.ndarray:
    """Orthonormal basis (3 x d) of the null space of a (m x 3) system."""
    if rows.size == 0:
        return np.eye(3)
    u, s, vt = np.linalg.svd(rows)
    rank = int(np.sum(s > FEAS_TOL * max(1.0, s[0] if len(s) else 1.0)))
    return vt[rank:].T


def _rank3_triples(unc: np.ndarray) -> list:
    """Disjoint row triples unc[3j:3j+3] that certify rank 3.

    Rows added to a matrix never lower its singular values (interlacing),
    and no row subset has a larger sigma_1 than unc.  So when a triple has
    sigma_3 > 2 FEAS_TOL max(1, sigma_1(unc)), every cell whose equality
    rows keep that triple has a null space of dimension 0 in ``_null_space``
    (the factor 2 covers the rounding of both SVDs) and no candidate."""
    if len(unc) < 5:  # every triple then meets each cell's (i1, i2)
        return []
    n = len(unc) // 3
    s1 = np.linalg.svd(unc, compute_uv=False)[0]
    s3 = np.linalg.svd(unc[:3 * n].reshape(n, 3, 3), compute_uv=False)[:, 2]
    return [range(3 * j, 3 * j + 3)
            for j in np.flatnonzero(s3 > 2 * FEAS_TOL * max(1.0, s1))]


def _cell_ineq_rows(g: GameSpec, cell: LambdaCell) -> np.ndarray:
    """Rows r with the cell requiring r @ p >= 0."""
    return np.array([
        -_cov_row(g, cell.i1),
        _unc_row(g, cell.i1),
        _cov_row(g, cell.i2),
        -_unc_row(g, cell.i2),
    ])


def _cone_rays_2d(gmat: np.ndarray, basis: np.ndarray):
    """Extreme rays of {z in R^2 : (G B) z >= 0}, mapped back to R^3."""
    gb = gmat @ basis
    rays = []
    for row in gb:
        if np.hypot(row[0], row[1]) < 1e-14:
            continue
        for z in (np.array([-row[1], row[0]]), np.array([row[1], -row[0]])):
            if np.all(gb @ z >= -FEAS_TOL * max(1.0, float(np.max(np.abs(gb))))):
                rays.append(basis @ z)
    return rays


def _cone_rays_3d(gmat: np.ndarray):
    """Extreme rays of {p in R^3 : G p >= 0} from pairs of active rows."""
    rays = []
    scale = max(1.0, float(np.max(np.abs(gmat))))
    m = len(gmat)
    for i in range(m):
        for j in range(i + 1, m):
            basis = _null_space(np.array([gmat[i], gmat[j]]))
            if basis.shape[1] != 1:
                continue
            for s in (1.0, -1.0):
                r = s * basis[:, 0]
                if np.all(gmat @ r >= -FEAS_TOL * scale):
                    rays.append(r)
    return rays


def _pencil_values(ps: np.ndarray, hp: HullPolygon):
    """(value, x, y) of each line ps[:, j] (rows alpha, beta, gamma), one
    entry per line, NaN where the line misses the hull.

    The section is the hull vertices within tolerance of the line and the
    points where it crosses an edge strictly, vertices first; (x, y) is the
    first section point of largest u_d.  The value is the defender utility
    a best-responding attacker lets the line realize: the attacker maximizes
    its own coordinate along the section, which is the max-u_d end with
    nonnegative correlation (or an indifferent attacker under the optimistic
    tie rule) and the min-u_d end otherwise."""
    a, b, c = ps
    norm = np.hypot(a, b)
    with np.errstate(divide="ignore", invalid="ignore"):
        an, bn, cn = (a / norm)[:, None], (b / norm)[:, None], (c / norm)[:, None]
        use_max = (np.abs(a) <= 1e-12) | ((np.abs(b) > 1e-12) & (-a / b >= 0))
    v, n = hp.vertices, hp.n
    scale = max(1.0, float(np.max(np.abs(v))))
    f = an * v[:, 0] + bn * v[:, 1] + cn
    i = np.arange(n if n > 2 else n - 1)  # edges (i, i + 1 mod n), crossed strictly
    j = (i + 1) % n
    fi, fj = f[:, i], f[:, j]
    vt = v.T[:, None, :]  # [coordinate, 1, vertex]
    pts = np.empty((2, len(f), n + len(i)))  # [coordinate, line, section point]
    pts[:, :, :n] = vt
    with np.errstate(divide="ignore", invalid="ignore"):
        pts[:, :, n:] = vt[:, :, i] + fi / (fi - fj) * (vt[:, :, j] - vt[:, :, i])
    keep = np.hstack([np.abs(f) <= FEAS_TOL * scale, fi * fj < 0]) & (norm >= 1e-300)[:, None]
    top = np.where(keep, pts[0], -np.inf).argmax(axis=1)
    x, y = pts[:, np.arange(len(top)), top]
    value = np.where(use_max, x, np.where(keep, pts[0], np.inf).min(axis=1))
    hit = keep.any(axis=1)
    return tuple(np.where(hit, col, np.nan) for col in (value, x, y))


def _sweep_2d(gmat: np.ndarray, basis: np.ndarray, hp: HullPolygon):
    """Angular sweep over the unit circle of the 2-d coefficient space with
    local refinement around the best feasible sample.

    The samples are 1e-3 rad apart; all of a slice's samples are scored in
    one array pass, and the winner is the first best one (in angle order).
    The 24-step ternary refinement then scores two angles per step."""
    gb = gmat @ basis
    scale = max(1.0, float(np.max(np.abs(gb))))

    def values(ts):
        z = np.array([np.cos(ts), np.sin(ts)])
        feas = np.all(gb @ z >= -FEAS_TOL * scale, axis=0)
        out = np.full(len(ts), np.nan)
        if feas.any():  # a slice with no feasible angle has no line to score
            out[feas] = _pencil_values(basis @ z[:, feas], hp)[0]
        return out

    ts = np.arange(0.0, 2 * np.pi, _SWEEP_STEP)
    vs = values(ts)
    if np.all(np.isnan(vs)):
        return []
    best = int(np.nanargmax(vs))
    best_t, best_v = ts[best], vs[best]
    lo, hi = best_t - _SWEEP_STEP, best_t + _SWEEP_STEP
    for _ in range(24):
        pair = np.array([lo + (hi - lo) / 3, hi - (hi - lo) / 3])
        for t, v in zip(pair, values(pair)):
            if v > best_v:
                best_t, best_v = t, v
        lo, hi = best_t - (hi - lo) / 3, best_t + (hi - lo) / 3
    return [basis @ np.array([np.cos(best_t), np.sin(best_t)])]


def _cell_candidates(g: GameSpec, cell: LambdaCell, hp: HullPolygon, unc: np.ndarray):
    """Finite family of candidate coefficient vectors for one cell; unc is
    the K x 3 matrix of uncovered rows (``_unc_row`` for t = 1..K)."""
    eq_rows = np.delete(unc, [cell.i1 - 1, cell.i2 - 1], axis=0)
    basis = _null_space(eq_rows)
    d = basis.shape[1]
    if d == 0:
        return []
    gmat = _cell_ineq_rows(g, cell)
    scale = max(1.0, float(np.max(np.abs(gmat))))

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
        sub = _null_space(np.vstack([eq_rows, extra_row]))
        dd = sub.shape[1]
        if dd == 1:
            for s in (1.0, -1.0):
                p = s * sub[:, 0]
                if feasible(p):
                    cands.append(p)
        elif dd == 2:
            cands.extend(r for r in _cone_rays_2d(gmat, sub) if feasible(r))
            cands.extend(_sweep_2d(gmat, sub, hp))

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
        cands.extend(_sweep_2d(gmat, basis, hp))
    return cands


def _normalize(p: np.ndarray) -> ZdLinearParams:
    return ZdLinearParams(*p).normalized()


def realize_params(g: GameSpec, p: ZdLinearParams, i1: int, i2: int):
    """Build the strategy for cell-frame (i1 -> label 1, i2 -> label K) and
    return (strategy-in-g-labels, phi-in-frame, frame) or None.

    When every line value vanishes (the line contains all covered and
    uncovered pairs), enforcement is vacuous and the recursion has nothing to
    divide by; the trivial repeat-own-action strategy realizes it.
    """
    frame = relabeling(g.k, i1, i2)
    gw = frame.apply_game(g)
    ex = _eq8_existence(gw, p)
    if not ex.exists:
        return None
    try:
        zd = construct_strategy(gw, p, ex.phi)
    except ZdConstructionError:
        line_values = np.concatenate([
            p.alpha * gw.u_d_cov + p.beta * gw.u_a_cov + p.gamma,
            p.alpha * gw.u_d_unc + p.beta * gw.u_a_unc + p.gamma,
        ])
        if np.max(np.abs(line_values)) > 1e-8:
            return None
        rep = repeat_strategy(g.k)
        zd = ZdStrategy(rep, p, ex.phi,
                        defining_residual(gw, rep, p, ex.phi.phi), classify(p))
    return frame.invert_strategy(zd.strategy), zd, frame


def solve_optimal(g: GameSpec, evaluate_br: bool) -> ZdSolveResult:
    """Cell-enumeration search for the best enforceable line.

    Candidates must pass the cell constraints, the existence inequalities in
    their construction frame, and line/hull membership.  With evaluate_br
    each surviving candidate is realized and scored by its defender utility
    under attacker best response, otherwise by the predicted hull value.
    The winner comes with its ``realize_params`` output (``realization``,
    None when it cannot be built).

    Scores are taken in g's own labels, so relabeled copies of one game
    rank their candidates alike: two cells often realize one line, and their
    scores then differ only by rounding that depends on the label order.
    """
    _require_canonical(g)
    hp = hull(g)
    unc = np.column_stack([g.u_d_unc, g.u_a_unc, np.ones(g.k)])
    triples = _rank3_triples(unc)
    best = None  # (score_key, result)
    for i1 in range(1, g.k + 1):
        for i2 in range(1, g.k + 1):
            if i1 == i2 or any(i1 - 1 not in t and i2 - 1 not in t for t in triples):
                continue
            cell = LambdaCell(i1, i2)
            gmat = _cell_ineq_rows(g, cell)
            scale = max(1.0, float(np.max(np.abs(gmat))))
            vecs = []
            for raw in _cell_candidates(g, cell, hp, unc):
                vec = _normalize(raw).as_array()
                if np.max(np.abs(vec)) < 1e-12 or np.any(gmat @ vec < -FEAS_TOL * scale):
                    continue
                vecs.append(vec)
            if not vecs:
                continue
            shortlist = []  # (corr-sign, proxy value, params, max-u_d point)
            for vec, proxy, x, y in zip(vecs, *_pencil_values(np.array(vecs).T, hp)):
                if np.isnan(proxy):  # the line misses the hull
                    continue
                corr = 0 if abs(vec[0]) <= 1e-12 else (0 if -vec[1] / vec[0] >= 0 else 1)
                cur = next((s for s in shortlist if s[0] == corr), None)
                if cur is None or proxy > cur[1] + 1e-12:
                    shortlist = [s for s in shortlist if s[0] != corr]
                    shortlist.append((corr, proxy, vec, (float(x), float(y))))
            for _, proxy, vec, (x, y) in sorted(shortlist, key=lambda s: s[0]):
                p = ZdLinearParams(*vec)
                built = realized = None
                if evaluate_br:
                    built = realize_params(g, p, i1, i2)
                    if built is None:
                        continue
                    realized, _ = defender_utility_under_br(g, built[0])
                else:
                    frame = relabeling(g.k, i1, i2)
                    if not _eq8_existence(frame.apply_game(g), p).exists:
                        continue
                cert = {
                    "cell_defect": float(max(0.0, -np.min(gmat @ vec) / scale)),
                    "line_at_predicted": float(abs(vec[0] * x + vec[1] * y + vec[2])),
                    "hull_member": 0.0 if hp.contains(x, y) else 1.0,
                }
                score = (realized.u_d if realized is not None else proxy, x)
                if best is None or score[0] > best[0][0] + 1e-12 or (
                    abs(score[0] - best[0][0]) <= 1e-12 and score[1] > best[0][1] + 1e-12
                ):
                    best = (score, ZdSolveResult(
                        "optimal", p, UtilityPair(x, y), realized, cell,
                        certificate=cert, realization=built))
    if best is None:
        return ZdSolveResult("none")
    if not evaluate_br:  # scored by prediction: only the winner is built
        cell = best[1].cell
        return replace(best[1], realization=realize_params(g, best[1].params, cell.i1, cell.i2))
    return best[1]
