"""Linear-parameter search for zero-determinant strategies.

Two programs, mirroring the construction algorithm's first step;
``cli.solve_game`` runs the ideal program and, only when no ideal line
exists, the optimal one:

* the ideal program -- a small feasibility LP pinning the enforced line
  through the best covered outcome (label 1) with sign conditions at a
  second reference target; feasible parameters give the defender the full
  Stackelberg value under attacker best response.  The LPs of every choice
  of the two reference targets form one stack and one ``check_feasible``
  call.  The simplex's rank presolve reports infeasible, with no pivot,
  every pair whose K - 1 homogeneous equality rows have full column rank
  (only p = 0 holds them, and beta - alpha >= 1 fails there); the pairs
  left are solved in lockstep;
* the optimal program -- enumerate the cells of parameter space cut out by
  the uncovered-value equalities (all targets except an ordered pair
  (i1, i2)), and on each cell maximize the defender's coordinate over the
  intersection of the enforced line with the convex hull of attainable
  utility pairs.

The bilinear coupling between the line coefficients and the utility point
disappears inside a cell: the coefficients live in a low-dimensional cone,
so the search reduces to finitely many candidate rays (cone extreme rays,
lines through hull vertices, and an angular sweep at 1e-3 rad with local
refinement).  Each candidate passes a feasibility screen (the cell's sign
conditions, to FEAS_TOL) and then the existence inequalities in its
construction frame.  The candidates of every open cell of a game are
built in one pass, ``_game_candidates``, of a few stacked calls: an SVD
of the cells' equality blocks, one of all sub-systems, one of the 3-D
cone's row pairs (each split into calls of at most SVD_STACK_ENTRIES
entries, so memory stays bounded when every cell is open), one cone-ray
pass and one feasibility pass.
The lists are those of a cell-at-a-time build bit for bit, because each
item of a stacked product keeps the shape and memory layout it had alone:
a null-space basis is a transposed view of its ``vt`` rows, and a vector
is a (3, 1) column (BLAS picks its kernel by layout, and kernels round
differently).  One kernel, ``_pencil_values``, scores lines against the
hull: every sample of a sweep slice in one array pass, and the surviving
candidates of every cell in one more.  The sweeps of all the cells of a
game run after every cell's candidates are built, and their refinements
run in lockstep: each refinement step scores the two angles of every slice
in one kernel call.  Cells whose equality rows are certified to have
rank 3 (no candidate) are skipped before any candidate is built.  At desk
scale each surviving candidate is realized and scored under actual
attacker best response.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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
    _terms,
    classify,
    construct_strategy,
    defining_residual,
)

FEAS_TOL = 1e-9
_SWEEP_STEP = 1e-3  # radians
_SWEEP_T = np.arange(0.0, 2 * np.pi, _SWEEP_STEP)
_SWEEP_Z = np.array([np.cos(_SWEEP_T), np.sin(_SWEEP_T)])
_ROW_PAIRS = np.array([(i, j) for i in range(4) for j in range(i + 1, 4)])  # of a cell's 4 rows
SVD_STACK_ENTRIES = 2**20  # system entries per stacked candidate SVD


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


@dataclass(frozen=True)
class ZdSolveResult:
    kind: str  # optimal | none
    params: ZdLinearParams = None
    predicted: UtilityPair = None
    realized: UtilityPair = None
    cell: LambdaCell = None
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

    pts = uniq.tolist()  # Python floats: the same cross products, without numpy scalars
    lower = half(pts)
    upper = half(pts[::-1])
    verts = np.array(lower[:-1] + upper[:-1])
    if len(verts) < 2:  # all points collinear and reduced
        verts = np.array([uniq[0], uniq[-1]])
    return HullPolygon(verts)


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
    (the system is homogeneous with alpha <= 0 <= beta).  The pairs form one
    stack; the LP kernel's presolve certifies the pairs whose equality rows
    pin p to 0, and the rest are solved in lockstep.
    """
    _require_canonical(g)
    k = g.k
    t = np.arange(k)
    top = np.flatnonzero(g.u_d_cov >= np.max(g.u_d_cov) - 1e-9)
    role1 = np.repeat(top, k - 1)
    role_k = np.broadcast_to(t, (len(top), k))[t != top[:, None]]
    others = np.broadcast_to(t, (len(role1), k))[
        (t != role1[:, None]) & (t != role_k[:, None])].reshape(len(role1), k - 2)
    # one stack of programs, one per (role1, role_k) pair in trial order:
    # covered rows index the first K rows of pts, uncovered rows the last K
    pts = np.column_stack([np.concatenate([g.u_d_cov, g.u_d_unc]),
                           np.concatenate([g.u_a_cov, g.u_a_unc]), np.ones(2 * k)])
    rows = pts[np.column_stack([role1, role_k, k + role1, k + others, k + role_k])]
    rels = (EQ, GE, GE) + (EQ,) * (k - 2) + (LE,)
    res = check_feasible([(row, rel, 0.0) for row, rel in zip(rows.transpose(1, 0, 2), rels)]
                         + [(np.array([1.0, 0.0, 0.0]), LE, 0.0),
                            (np.array([0.0, 1.0, 0.0]), GE, 0.0),
                            (np.array([-1.0, 1.0, 0.0]), GE, 1.0)], 3)
    if res.status == "optimal":
        p = ZdLinearParams(*res.x).normalized()
        return IdealResult(True, p, int(role1[res.index]) + 1, int(role_k[res.index]) + 1)
    return IdealResult(False)


def _rank3_triples(unc: np.ndarray) -> list:
    """Disjoint row triples unc[3j:3j+3] that certify rank 3.

    Rows added to a matrix never lower its singular values (interlacing),
    and no row subset has a larger sigma_1 than unc.  So when a triple has
    sigma_3 > 2 FEAS_TOL max(1, sigma_1(unc)), every cell whose equality
    rows keep that triple has a null space of dimension 0 by ``_nullity``
    (the factor 2 covers the rounding of both SVDs) and no candidate."""
    if len(unc) < 5:  # every triple then meets each cell's (i1, i2)
        return []
    n = len(unc) // 3
    s1 = np.linalg.svd(unc, compute_uv=False)[0]
    s3 = np.linalg.svd(unc[:3 * n].reshape(n, 3, 3), compute_uv=False)[:, 2]
    return [range(3 * j, 3 * j + 3)
            for j in np.flatnonzero(s3 > 2 * FEAS_TOL * max(1.0, s1))]


def _open_cells(k: int, triples: list) -> np.ndarray:
    """(K, K) mask of the cells (i1 - 1, i2 - 1) that no certified triple
    closes: i1 != i2, and the two targets meet every triple.  The triples
    are disjoint, so each target meets at most one, whose index it records."""
    meets = np.full(k, -1)
    for j, t in enumerate(triples):
        meets[list(t)] = j
    a, b = meets[:, None], meets[None, :]
    met = np.where(a == b, a >= 0, (a >= 0).astype(int) + (b >= 0))  # distinct triples met
    return (met == len(triples)) & ~np.eye(k, dtype=bool)


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


def _sweep_slices(slices: list, hp: HullPolygon) -> list:
    """Angular sweep over the unit circle of each slice (gmat, basis) of a
    2-d coefficient space, with local refinement around the best feasible
    sample; one entry per slice, None where no feasible line meets the hull.

    Each slice's samples, 1e-3 rad apart, are scored in one array pass, and
    the winner is the first best one (in angle order).  The refinements of
    all slices with a winner then run in one lockstep pass."""
    out = [None] * len(slices)
    found = []  # (slice index, basis, gb, tol, best_t, best_v)
    for n, (gmat, basis) in enumerate(slices):
        gb = gmat @ basis
        tol = -FEAS_TOL * max(1.0, float(np.max(np.abs(gb))))
        feas = np.all(gb @ _SWEEP_Z >= tol, axis=0)
        if not feas.any():  # a slice with no feasible angle has no line to score
            continue
        vs = np.full(len(_SWEEP_T), np.nan)
        vs[feas] = _pencil_values(basis @ _SWEEP_Z[:, feas], hp)[0]
        if np.all(np.isnan(vs)):
            continue
        best = int(np.nanargmax(vs))
        found.append((n, basis, gb, tol, _SWEEP_T[best], vs[best]))
    if found:
        for (n, basis, *_), t in zip(found, _refine(found, hp)):
            out[n] = basis @ np.array([np.cos(t), np.sin(t)])
    return out


def _refine(group: list, hp: HullPolygon) -> np.ndarray:
    """The 24-step ternary refinement of ``_sweep_slices`` entries in
    lockstep; returns each slice's best angle.

    Each step scores the two angles of every slice with one stacked
    product and one kernel call over the feasible lines, slice by slice."""
    _, bases, gb, tol, best_t, best_v = zip(*group)
    bases, gb, tol, best_t, best_v = map(np.array, (bases, gb, tol, best_t, best_v))
    lo, hi = best_t - _SWEEP_STEP, best_t + _SWEEP_STEP
    for _ in range(24):
        third = (hi - lo) / 3
        pair = np.stack([lo + third, hi - third], axis=1)
        z = np.stack([np.cos(pair), np.sin(pair)], axis=1)  # (R, 2, 2)
        feas = np.all(gb @ z >= tol[:, None, None], axis=1)
        lines = (bases @ z).transpose(1, 0, 2).reshape(3, -1)[:, feas.ravel()]
        v = np.full(pair.shape, np.nan)
        if lines.shape[1]:
            v[feas] = _pencil_values(lines, hp)[0]
        for j in (0, 1):  # the first strictly better angle wins, as in angle order
            up = v[:, j] > best_v
            best_t = np.where(up, pair[:, j], best_t)
            best_v = np.where(up, v[:, j], best_v)
        lo, hi = best_t - third, best_t + third
    return best_t


def _nullity(s: np.ndarray) -> np.ndarray:
    """Null-space dimension of each (m x 3) system of an SVD stack, from its
    singular values s: the values above FEAS_TOL max(1, sigma_1) count as
    rank."""
    return 3 - np.count_nonzero(s > FEAS_TOL * np.maximum(1.0, s[:, :1]), axis=1)


def _factor(systems, n: int, m: int):
    """Singular values and vt of the n (m x 3) systems, where systems(lo, hi)
    builds the stack of systems lo..hi - 1.

    Each call factors at most SVD_STACK_ENTRIES system entries, so neither
    the stack nor its U outgrows that budget: U is (m x 3) from m = 3 on,
    and m x m only below, where the reduced vt would lose its null rows.
    Items keep their own shape and layout, so the bits are those of one
    system at a time."""
    s, vt = np.empty((n, min(m, 3))), np.empty((n, 3, 3))
    step = max(1, SVD_STACK_ENTRIES // (3 * m))
    for lo in range(0, n, step):
        _, s[lo:lo + step], vt[lo:lo + step] = np.linalg.svd(
            systems(lo, min(n, lo + step)), full_matrices=m < 3)
    return s, vt


def _game_candidates(cells: list, hp: HullPolygon, unc: np.ndarray, gmats: np.ndarray,
                     scales: np.ndarray) -> list:
    """Finite family of candidate coefficient vectors of every open cell, one
    list per cell in cell order; unc is the K x 3 matrix of uncovered rows,
    gmats the (C, 4, 3) stack of the cells' sign rows (r @ p >= 0 in the
    cell) and scales each cell's max(1, max |gmat|).  Where a slice's sweep
    result goes, a list holds the slice (gmat, basis) itself, for
    ``_sweep_slices`` to resolve.

    A cell's equality rows (unc less rows i1, i2) leave a null space of
    dimension d.  Its candidates, in list order: for d = 1, the two unit
    null vectors; for d = 2, the extreme rays of the cone of the sign rows
    in the null plane; for d = 3, the cone's rays through pairs of sign
    rows.  For d >= 2, each sub-system (the block plus one sign row when
    d = 3, then the block plus each hull vertex (x, y, 1)) adds its own:
    two null vectors on a line, or a plane's cone rays and its slice.  A
    d = 2 cell's own slice comes last.  Every vector passes the cell's sign
    rows to FEAS_TOL scale.

    Each step is one stacked call for the whole game (an SVD splits at
    SVD_STACK_ENTRIES entries), and each item keeps the shape and layout it
    had alone (module docstring): a basis is a ``.swapaxes(1, 2)`` view of
    stacked ``vt`` rows, as ``vt[rank:].T`` was."""
    k, n = len(unc), len(cells)
    t = np.arange(k)
    i1 = np.array([c.i1 - 1 for c in cells])
    i2 = np.array([c.i2 - 1 for c in cells])

    def block(c):  # the equality rows of cells c: unc less rows i1, i2
        rest = (t != i1[c, None]) & (t != i2[c, None])
        return unc[np.broadcast_to(t, (len(c), k))[rest].reshape(len(c), k - 2)]

    if k > 2:
        s, vt = _factor(lambda lo, hi: block(np.arange(lo, hi)), n, k - 2)
        d = _nullity(s)
    else:  # no equality rows: every cell is all of R^3
        vt, d = np.zeros((n, 3, 3)), np.full(n, 3)

    # sub-systems: the block plus each sign row (d = 3) and each hull vertex (d >= 2)
    vrows = np.column_stack([hp.vertices, np.ones(hp.n)])
    use = np.zeros((n, 4 + hp.n), dtype=bool)
    use[d == 3] = True
    use[d == 2, 4:] = True
    sub_cell, sub_row = use.nonzero()

    def sub_systems(lo, hi):
        c, r = sub_cell[lo:hi], sub_row[lo:hi]
        row = np.where((r < 4)[:, None], gmats[c, np.minimum(r, 3)], vrows[np.maximum(r - 4, 0)])
        return np.concatenate([block(c), row[:, None]], axis=1)

    s, vt_sub = _factor(sub_systems, len(sub_cell), k - 1)
    dd = _nullity(s)

    # the 3-D cone's rays lie on the null lines of pairs of sign rows
    c3 = (d == 3).nonzero()[0]
    pairs = gmats[c3][:, _ROW_PAIRS].reshape(-1, 2, 3)
    s, vt_pair = _factor(lambda lo, hi: pairs[lo:hi], len(pairs), 2)
    paired = _nullity(s) == 1

    # sources: the systems (blocks, then sub-systems) with a null line and
    # the row pairs, then the systems with a null plane
    null = np.concatenate([d, dd])
    system_cell = np.concatenate([np.arange(n), sub_cell])
    on_line, on_plane = null == 1, null == 2
    vt = np.concatenate([vt, vt_sub])
    lines = np.concatenate([vt[on_line, 2], vt_pair[:, 2]])
    line_cell = np.concatenate([system_cell[on_line], np.repeat(c3, 6)])
    planes, plane_cell = vt[on_plane, 1:], system_cell[on_plane]
    n_lines, n_planes = len(lines), len(planes)
    src = np.full(len(null), -1)
    src[on_line] = np.arange(np.count_nonzero(on_line))
    src[on_plane] = n_lines + np.arange(n_planes)
    src[c3] = n_lines - 6 * len(c3) + 6 * np.arange(len(c3))  # a 3-D cell: its first row pair

    # cone rays of each plane basis B: z _|_ each live row of G B, if G B z >= 0
    bases = planes.swapaxes(1, 2)
    gb = gmats[plane_cell] @ bases
    tol = -FEAS_TOL * np.maximum(1.0, np.abs(gb).max(axis=(1, 2)))
    z = np.stack([-gb[..., 1], gb[..., 0]], axis=-1)
    z = np.stack([z, -z], axis=2)[..., None]  # (P, row, sign, 2, 1)
    cone = ((gb[:, None, None] @ z)[..., 0] >= tol[:, None, None, None]).all(axis=-1)
    cone &= ~(np.hypot(gb[..., 0], gb[..., 1]) < 1e-14)[..., None]
    rays = (bases[:, None, None] @ z)[..., 0].reshape(-1, 3)

    vecs = np.concatenate([(np.array([1.0, -1.0])[:, None] * lines[:, None]).reshape(-1, 3), rays])
    owner = np.concatenate([np.repeat(line_cell, 2), np.repeat(plane_cell, 8)])
    ok = ((gmats[owner] @ vecs[..., None])[..., 0]
          >= (-FEAS_TOL * scales[owner])[:, None]).all(axis=1)
    ok[2 * (n_lines - len(paired)):2 * n_lines] &= np.repeat(paired, 2)
    ok[2 * n_lines:] &= cone.ravel()
    found = [[] for _ in range(n_lines + n_planes)]
    sources = np.concatenate([np.repeat(np.arange(n_lines), 2),
                              np.repeat(np.arange(n_lines, n_lines + n_planes), 8)])
    for j, q in zip(ok.nonzero()[0].tolist(), sources[ok].tolist()):
        found[q].append(vecs[j])

    subs = [[] for _ in range(n)]
    for j, c in enumerate(sub_cell.tolist(), start=n):
        subs[c].append(j)
    null, src = null.tolist(), src.tolist()
    out = []
    for c in range(n):
        cands = []
        for q in range(src[c], src[c] + (6 if null[c] == 3 else 1 if null[c] else 0)):
            cands += found[q]
        for j in subs[c]:  # a line's vectors, or a plane's rays and its slice
            if null[j] in (1, 2):
                cands += found[src[j]]
            if null[j] == 2:
                cands.append((gmats[c], bases[src[j] - n_lines]))
        if null[c] == 2:
            cands.append((gmats[c], bases[src[c] - n_lines]))
        out.append(cands)
    return out


def realize_params(g: GameSpec, p: ZdLinearParams, i1: int, i2: int):
    """Build the strategy for cell-frame (i1 -> label 1, i2 -> label K) and
    return (strategy, ZdStrategy, phi) or None; the strategy and phi are in
    g's labels, the ZdStrategy in the frame's.

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
        if np.max(np.abs(np.concatenate(_terms(gw, p)))) > 1e-8:
            return None
        rep = repeat_strategy(g.k)
        zd = ZdStrategy(rep, p, ex.phi,
                        defining_residual(gw, rep, p, ex.phi.phi), classify(p))
    return frame.invert_strategy(zd.strategy), zd, frame.invert_phi(zd.phi.phi)


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
    i1, i2 = np.nonzero(_open_cells(g.k, _rank3_triples(unc)))
    cov = np.column_stack([g.u_d_cov, g.u_a_cov, np.ones(g.k)])
    gmats = np.stack([-cov[i1], unc[i1], cov[i2], -unc[i2]], axis=1)  # the cell needs gmat @ p >= 0
    scales = np.maximum(1.0, np.abs(gmats).max(axis=(1, 2)))
    cells = [LambdaCell(int(a) + 1, int(b) + 1) for a, b in zip(i1, i2)]
    cands = _game_candidates(cells, hp, unc, gmats, scales) if cells else []
    swept = iter(_sweep_slices([c for cc in cands for c in cc if isinstance(c, tuple)], hp))
    raw, owner = [], []
    for n, cc in enumerate(cands):
        for c in cc:
            if isinstance(c, tuple):  # a slice: its sweep result goes here
                c = next(swept)
                if c is None:
                    continue
            raw.append(c)
            owner.append(n)
    if not raw:
        return ZdSolveResult("none")
    raw, owner = np.array(raw), np.array(owner)
    top = np.abs(raw).max(axis=1, keepdims=True)  # normalized: the largest |entry| is 1
    vecs = np.divide(raw, top, out=raw.copy(), where=top != 0.0)
    feasible = (gmats[owner] @ vecs[..., None])[..., 0] >= (-FEAS_TOL * scales[owner])[:, None]
    keep = ~(np.abs(vecs).max(axis=1) < 1e-12) & feasible.all(axis=1)
    vecs, owner = vecs[keep], owner[keep].tolist()
    scored = zip(vecs, owner, *_pencil_values(vecs.T, hp)) if len(vecs) else ()
    shortlists = [[] for _ in cells]  # per cell: (corr-sign, proxy value, params, max-u_d point)
    for vec, n, proxy, x, y in scored:
        if np.isnan(proxy):  # the line misses the hull
            continue
        shortlist = shortlists[n]
        corr = 0 if abs(vec[0]) <= 1e-12 else (0 if -vec[1] / vec[0] >= 0 else 1)
        cur = next((s for s in shortlist if s[0] == corr), None)
        if cur is None or proxy > cur[1] + 1e-12:
            shortlist[:] = [s for s in shortlist if s[0] != corr]
            shortlist.append((corr, proxy, vec, (float(x), float(y))))
    best = None  # (score_key, result)
    for cell, shortlist in zip(cells, shortlists):
        for _, proxy, vec, (x, y) in sorted(shortlist, key=lambda s: s[0]):
            p = ZdLinearParams(*vec)
            built = realized = None
            if evaluate_br:
                built = realize_params(g, p, cell.i1, cell.i2)
                if built is None:
                    continue
                realized, _ = defender_utility_under_br(g, built[0])
            else:
                frame = relabeling(g.k, cell.i1, cell.i2)
                if not _eq8_existence(frame.apply_game(g), p).exists:
                    continue
            score = (realized.u_d if realized is not None else proxy, x)
            if best is None or score[0] > best[0][0] + 1e-12 or (
                abs(score[0] - best[0][0]) <= 1e-12 and score[1] > best[0][1] + 1e-12
            ):
                best = (score, ZdSolveResult(
                    "optimal", p, UtilityPair(x, y), realized, cell, realization=built))
    if best is None:
        return ZdSolveResult("none")
    if not evaluate_br:  # scored by prediction: only the winner is built
        cell = best[1].cell
        return replace(best[1], realization=realize_params(g, best[1].params, cell.i1, cell.i2))
    return best[1]
