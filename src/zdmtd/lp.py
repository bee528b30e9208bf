"""Small dense linear-program kernel: two-phase simplex with Bland's rule,
run in lockstep over a stack of programs.

Built for the tiny programs this package solves (a handful of variables,
tens of constraints).  The pivot rule is fixed -- entering variable is the
lowest-index column with negative reduced cost, leaving row breaks ratio
ties by the lowest basis index -- so identical inputs always produce
identical outcomes and cycling is impossible.

The objective may be a (B, n) stack, a constraint row a (B, n) stack and a
right-hand side a (B,) vector.  The program then has B alternatives that
share the relations and bounds and differ in the stacked entries; an
unstacked entry is shared by all.  Every alternative is solved to its
verdict or its error.  `solve_lp` reports what solving them one by one
and stopping at the first that is not infeasible would: that one, with
its index, or an error of an alternative before it.  `solve_each` returns
every alternative's outcome and raises the first error in stack order.  A
lone program is a stack of one.

Before any tableau is built, a presolve (`_rank_infeasible`) reports
infeasible, with no pivot, each alternative whose equality rows are
homogeneous and have full column rank by a margin: no point it could accept
meets some inequality row.  The others pivot as below on a stack of their
own, which gives them the same bits.  On a certified alternative the
simplex could also end by raising `LpNumericalError` (a point it calls
optimal misses a row beyond FEAS_TOL); the presolve reports it infeasible.

The alternatives pivot in lockstep on one tableau stack with one column
layout.  A row whose right-hand side is negative is negated, which turns a
<= row into a >= row, so alternatives can need artificial columns on
different rows: the stack has one for every row that needs one in any
alternative, all zero in the alternatives that do not.  Such a column
never enters, and the columns keep their order, so every pivot is the one
the alternative's own layout would choose.  Each step is a few array
passes over the stack: every program's entering column is its first index
below -_EPS, the ratio test one stacked minimum (a program's rows are
scanned in order only when a second ratio lies within _EPS of its minimum
without equalling it), and the elimination one update of every row, in
which a row with a zero pivot-column entry subtracts +0.0 and so keeps its
bits.  Every entry goes through the same floating-point operations as in a
row-at-a-time elimination of that program alone, so an alternative's
outcome depends neither on how the passes are grouped nor on the other
alternatives.  A program whose phase ends takes its own branch (phase-2
set-up, re-form, verdict) and then pivots on or leaves the stack.  The
objective rows are built row by row, because their summation order is part
of the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

FEAS_TOL = 1e-8
_EPS = 1e-9
_MAX_PIVOTS = 50_000
_STEP_BYTES = 2 ** 18  # scratch for a pivot's products: at most this, or one tableau

LE, EQ, GE = "<=", "=", ">="
_REL_SIGN = {LE: -1, EQ: 0, GE: 1}
_PHASE1, _PHASE1_REFORMED, _PHASE2, _PHASE2_REFORMED = range(4)


class LpError(ValueError):
    """Malformed program (dimension mismatch, bad relation, non-finite entry)."""


class LpNumericalError(RuntimeError):
    """Numerically degenerate solve; the status could not be certified."""


@dataclass(frozen=True)
class LinearProgram:
    """max/min objective @ x subject to rows (coeffs, relation, rhs) and
    per-variable bounds (lo, hi), either side None for unbounded.  An
    objective or row given as a (B, n) stack, or a rhs given as a (B,)
    vector, makes B alternative programs."""

    objective: np.ndarray
    sense: str = "max"
    constraints: tuple = ()
    bounds: tuple = None  # defaults to all-free
    alternatives: int = field(default=1, init=False)

    def __post_init__(self):
        obj = np.asarray(self.objective, dtype=float)
        if obj.ndim not in (1, 2) or obj.shape[-1] < 1:
            raise LpError(f"objective has shape {obj.shape}, expected (n,) or (B, n) with n >= 1")
        if self.sense not in ("max", "min"):
            raise LpError(f"sense must be 'max' or 'min', got {self.sense!r}")
        n = obj.shape[-1]
        rows, stacks = [], {len(obj)} if obj.ndim == 2 else set()
        for row, rel, rhs in self.constraints:
            r = np.asarray(row, dtype=float)
            if r.ndim not in (1, 2) or r.shape[-1] != n:
                raise LpError(f"constraint row has shape {r.shape}, expected ({n},) or (B, {n})")
            if rel not in (LE, EQ, GE):
                raise LpError(f"relation must be one of <=, =, >=, got {rel!r}")
            if isinstance(rhs, (list, tuple, np.ndarray)) and np.ndim(rhs):
                b = np.asarray(rhs, dtype=float)
                if b.ndim > 1:
                    raise LpError(f"constraint rhs has shape {b.shape}, expected () or (B,)")
                stacks.add(len(b))
                finite = np.isfinite(b).all()
            else:
                b = float(rhs)
                finite = math.isfinite(b)
            if not finite:
                raise LpError("constraint rhs must be finite")
            if r.ndim == 2:
                stacks.add(len(r))
            rows.append((r, rel, b))
        if len(stacks) > 1 or 0 in stacks:
            raise LpError(f"stacked entries must share one positive stack size, got {sorted(stacks)}")
        bounds = self.bounds
        if bounds is None:
            bounds = tuple((None, None) for _ in range(n))
        else:
            bounds = tuple(bounds)
            if len(bounds) != n:
                raise LpError("bounds must list one (lo, hi) pair per variable")
        object.__setattr__(self, "objective", obj)
        object.__setattr__(self, "constraints", tuple(rows))
        object.__setattr__(self, "bounds", bounds)
        object.__setattr__(self, "alternatives", stacks.pop() if stacks else 1)

    @property
    def n(self) -> int:
        return self.objective.shape[-1]


@dataclass(frozen=True)
class LpOutcome:
    status: str  # optimal | infeasible | unbounded
    x: np.ndarray = None
    objective: float = None
    max_violation: float = None
    index: int = None  # the alternative reported; None when every one is infeasible


def _standardize(lp: LinearProgram):
    """Rewrite in nonnegative variables y >= 0: x_i = shift_i + sign_i * y_col.

    Free variables split into a positive and a negative part.  Finite upper
    bounds become extra <= rows.  Returns (c, a, rels, rhs, back, cut): the
    (B, ncol) objective stack, the (B, m, ncol) row stack in y, the
    relations as -1, 0, +1 for <=, =, >=, the (B, m) right-hand sides, the
    map from y back to x, and `_rank_infeasible`'s mask on the rows in x.
    """
    n = lp.n
    var, sign = [], []  # per y column: original variable and its sign
    shifts = np.zeros(n)
    upper = []  # (y column, width of the bound interval)
    for i, (lo, hi) in enumerate(lp.bounds):
        if lo is None and hi is None:
            var += [i, i]
            sign += [1.0, -1.0]
            continue
        if lo is not None and hi is not None:
            if hi < lo:
                raise LpError(f"variable {i} has empty bound interval [{lo}, {hi}]")
            upper.append((len(var), hi - lo))
        shifts[i] = lo if lo is not None else hi
        var.append(i)
        sign.append(1.0 if lo is not None else -1.0)
    var, sign = np.array(var), np.array(sign)
    ncol = len(var)

    def to_y(rows):  # each y column reads one variable: no sums, and no -0.0
        return np.where(rows[..., var] != 0.0, rows[..., var] * sign, 0.0)

    cons, nb, m0 = lp.constraints, lp.alternatives, len(lp.constraints)
    rows = np.empty((nb, m0, n))
    for j, (row, _, _) in enumerate(cons):
        rows[:, j] = row  # an (n,) row is shared by every alternative
    if not np.isfinite(rows).all():
        raise LpError("constraint rows must be finite")
    a = np.zeros((nb, m0 + len(upper), ncol))
    a[:, :m0] = to_y(rows)
    a[:, np.arange(m0, m0 + len(upper)), [c for c, _ in upper]] = 1.0
    rels = np.array([_REL_SIGN[rel] for _, rel, _ in cons] + [-1] * len(upper))
    rhs = np.empty((nb, len(rels)))
    for j, (_, _, b) in enumerate(cons):
        rhs[:, j] = b  # a (B,) right-hand side gives each alternative its own
    cut = _rank_infeasible(rows, rels[:m0], rhs[:, :m0])
    rhs[:, m0:] = [ub for _, ub in upper]
    if shifts.any():  # one dot per row of each alternative, as it would take alone
        rhs[:, :m0] -= [[float(r @ shifts) for r in alt] for alt in rows]

    objective = np.empty((nb, n))
    objective[:] = lp.objective  # an (n,) objective is shared by every alternative
    c = to_y(objective)
    if lp.sense == "max":
        c = -c

    def back(y):
        x = shifts.copy()
        np.add.at(x, var, sign * y)  # in column order, as a sequential sum
        return x

    return c, a, rels, rhs, back, cut


def _rank_infeasible(rows: np.ndarray, rels: np.ndarray, b: np.ndarray):
    """The presolve's certificate (Andersen & Andersen, "Presolving in linear
    programming", Math. Prog. 71, 1995): a (B,) mask of the alternatives of
    the (B, m, n) row stack, with relations rels and (B, m) right-hand sides
    b, at which no x holds the rows as the kernel checks them; None when the
    program has fewer equality rows than variables or no alternative has
    only zero equality right-hand sides.

    A point is accepted only if every row r, scaled as `_violation` scales
    it (r / max(1, |r|_inf)), holds within FEAS_TOL.  Let E be the m_E
    scaled equality rows of an alternative whose equality right-hand sides
    are all 0.  Then |E x|_2 <= sqrt(m_E) FEAS_TOL, so |x|_2 <= rho =
    sqrt(m_E) FEAS_TOL / sigma_min(E), and a scaled >= row r with right-hand
    side b fails at every such x when |r|_2 rho < b - FEAS_TOL, a <= row when
    |r|_2 rho < -b - FEAS_TOL.  The computed sigma_min is lowered by
    m_E n eps (1 + sigma_1): m_E n eps sigma_1 bounds the SVD's error, and
    m_E n eps covers the rounding of `_violation`'s dot products, within
    n^1.5 eps |x|_2 per scaled row (no entry above 1), so within
    sqrt(m_E) n^1.5 eps |x|_2 over E.  rho is then doubled, as
    `programs._rank3_triples` doubles its own tolerance: half of each gap
    is left to the rounding of the scaled rows and of this test."""
    n = rows.shape[2]
    eq, other = (rels == 0).nonzero()[0], (rels != 0).nonzero()[0]
    if len(eq) < n:
        return None
    zero = ~b[:, eq].any(axis=1)
    if not zero.any():
        return None
    scale = np.abs(rows[..., 0])
    for j in range(1, n):  # a column at a time: a reduction over n entries is slower
        np.maximum(scale, np.abs(rows[..., j]), out=scale)
    np.fmax(scale, 1.0, out=scale)
    hat = rows / scale[..., None]
    s = np.linalg.svd(hat[:, eq], compute_uv=False)
    low = s[:, -1] - len(eq) * n * np.finfo(float).eps * (1.0 + s[:, 0])
    r = hat[:, other]
    reach = np.sqrt(np.einsum("bmi,bmi->bm", r, r)) * (2.0 * math.sqrt(len(eq)) * FEAS_TOL)
    gap = b[:, other] / scale[:, other] * rels[other] - FEAS_TOL
    return zero & (low > 0.0) & (reach < gap * low[:, None]).any(axis=1)


def _pivot(T: np.ndarray, rows, col: np.ndarray, step: np.ndarray) -> None:
    """Pivot every tableau of the stack on its own row and the column whose
    entries col holds: eliminate the column from every other row where it
    is nonzero, then scale the pivot row.  step is scratch space for as
    many tableaux as it holds, so a large stack is eliminated in chunks."""
    ar = np.arange(len(T))
    prow = T[ar, rows] / col[ar, rows, None]
    with np.errstate(invalid="ignore"):  # 0 * inf, in rows reset below
        for lo in range(0, len(T), len(step)):
            part = slice(lo, lo + len(step))
            out = step[:len(T[part])]
            np.multiply(col[part, :, None], prow[part, None, :], out=out)
            out[col[part] == 0.0] = 0.0  # x - (+0.0) is x, bit for bit, signed zeros included
            T[part] -= out
    T[ar, rows] = prow  # the pivot row took a step too


def _scan_row(ratios: np.ndarray, cand: np.ndarray, basis: np.ndarray) -> int:
    """Bland's ratio test by a scan of the candidate rows in order, for a
    chain of near-ties: the smallest ratio wins, ties within _EPS going to
    the lowest basis index; -1 when no ratio qualifies."""
    leave, best = -1, np.inf
    for i in cand.nonzero()[0]:
        ratio = ratios[i]
        if ratio < best - _EPS or (
            abs(ratio - best) <= _EPS and (leave < 0 or basis[i] < basis[leave])
        ):
            best, leave = ratio, i
    return int(leave)


def _priced(T: np.ndarray, basis: np.ndarray, cols, cost) -> np.ndarray:
    """Objective row of the given costs with one tableau's basic columns
    priced out, row by row: the summation order is part of the result."""
    row = np.zeros(T.shape[1])
    row[cols] = cost
    for i, j in enumerate(basis):
        if row[j] != 0.0:
            row -= row[j] * T[i]
    return row


def _simplex(c: np.ndarray, a: np.ndarray, rels: np.ndarray, rhs: np.ndarray, point) -> list:
    """Two-phase primal simplex on the stack of programs min c[s]@y, rows
    a[s]@y (rels) rhs[s], y >= 0, with Bland's rule; rels holds -1, 0, +1
    for <=, =, >=.  point(s, y) maps an optimal y of alternative s to the
    caller's (x, violation of the caller's rows).  Returns each
    alternative's (status, x, violation), or the error it raised, in stack
    order.

    Each tableau carries its objective row as row m, below the constraint
    rows, so that a pivot updates it with them: the same operations as the
    separate update `obj -= obj[enter] * pivot_row`.  Every program in the
    working set pivots at every step, so a program's pivot count in its
    phase is the number of steps since the phase began; a program leaves
    the working set at its verdict."""
    nb, m, ncol = a.shape
    if m == 0:
        return [("unbounded", None, None) if np.any(c[s] < -_EPS)
                else ("optimal",) + point(s, np.zeros(ncol)) for s in range(nb)]

    # scale rows, force nonnegative rhs (a flipped row flips its relation)
    scale = np.fmax(1.0, np.abs(a).max(axis=2))
    a, b = a / scale[..., None], rhs / scale
    flip = b < 0
    np.negative(a, out=a, where=flip[..., None])
    np.negative(b, out=b, where=flip)
    rels = np.where(flip, -rels, rels)
    has_slack, has_art = rels[0] != 0, rels >= 0  # a flip keeps a row's slack
    needs = has_art.sum(axis=0)  # alternatives that need each row's artificial
    any_art, shared = needs > 0, needs == nb
    n_slack, n_art = int(has_slack.sum()), int(any_art.sum())
    width = ncol + n_slack + n_art
    slack_col = ncol + has_slack.cumsum() - 1
    art_col = ncol + n_slack + any_art.cumsum() - 1
    s_rows, a_rows = has_slack.nonzero()[0], any_art.nonzero()[0]
    art_cols = art_col[a_rows]
    y_cols = np.arange(ncol)

    def tableau(part):
        """Initial tableaux of the alternatives in slice part, objective row
        zero: slack / surplus / artificial columns, numbered in row order."""
        T = np.zeros((len(a[part]), m + 1, width + 1))
        T[:, :m, :ncol] = a[part]
        T[:, :m, -1] = b[part]
        T[:, s_rows, slack_col[s_rows]] = -rels[part, s_rows]  # +1 slack, -1 surplus
        T[:, a_rows, art_cols] = has_art[part, a_rows]  # 1.0 where the alternative has it
        return T

    T = tableau(slice(None))
    obj = T[:, m]
    step = np.empty((min(nb, max(1, _STEP_BYTES // T[0].nbytes)),) + T.shape[1:])
    basis = np.where(has_art, art_col, slack_col)
    live = np.arange(nb)  # stack index of each working tableau
    # phase 1's objective, row by row; a column the alternative lacks keeps
    # its 1.0 and never enters
    obj[:, art_cols] = 1.0
    for i in a_rows:
        if shared[i]:
            obj -= T[:, i]
        else:
            np.subtract(obj, T[:, i], out=obj, where=has_art[:, i, None])
    phase1 = has_art.any(axis=1)
    for s in (~phase1).nonzero()[0]:  # no artificial: phase 2 from the start
        obj[s] = _priced(T[s], basis[s], y_cols, c[s])
    stage = np.where(phase1, _PHASE1, _PHASE2).tolist()
    steps, began = 0, np.zeros(nb, dtype=int)  # pivot steps made; step each phase began at
    residual = np.zeros(nb)  # phase 1's sum of artificials at its optimum
    earlier = {}  # the point a phase-2 re-form falls back on
    results = [None] * nb  # (status, x, violation) or the error raised

    def reformed(k):
        """Tableau k re-formed from its basis: pivots update the tableau in
        place, which can drift.  Only the alternative's own columns are
        solved for, so LAPACK sees what it sees in a lone solve."""
        s = live[k]
        cols = np.r_[:ncol + n_slack, art_col[has_art[s]], width]  # its own layout's
        initial = tableau(slice(s, s + 1))[0, :m]
        out = np.zeros((m, width + 1))
        out[:, cols] = np.linalg.solve(initial[:, basis[k]], initial[:, cols])
        return out

    def basic_point(k):
        y = np.zeros(width)
        y[basis[k]] = T[k, :m, -1]
        return point(live[k], np.maximum(y[:ncol], 0.0))

    def phase_end(k, optimal):
        """Program k's branch once its current phase has ended: a verdict,
        or None when it goes on pivoting from a new objective row."""
        s = live[k]
        began[k] = steps
        if stage[s] == _PHASE1 and not optimal:
            # a column with no positive entry looks improving: re-form once
            T[k, :m] = reformed(k)
            obj[k] = _priced(T[k], basis[k], art_col[has_art[s]], 1.0)
            stage[s] = _PHASE1_REFORMED
            return None
        if stage[s] == _PHASE1_REFORMED and not optimal:
            raise LpNumericalError("phase-1 reported unbounded; inconsistent tableau")
        if stage[s] in (_PHASE1, _PHASE1_REFORMED):
            residual[s] = -obj[k, -1]  # obj stores -(current value) in the rhs slot
            if residual[s] > FEAS_TOL:
                return "infeasible", None, None
            # drive remaining zero-level artificials out of the basis
            for i in (basis[k] >= ncol + n_slack).nonzero()[0]:
                big = np.abs(T[k, i, :ncol + n_slack]) > 1e-7
                if big.any():
                    j = int(big.argmax())
                    _pivot(T[k:k + 1], [i], T[[k], :, j], step[:1])
                    basis[k, i] = j
            # zero out any artificial column still in the basis (redundant row)
            T[k][:, art_cols] = 0.0
            obj[k] = _priced(T[k], basis[k], y_cols, c[s])
            stage[s] = _PHASE2
            return None
        if stage[s] == _PHASE2:
            if not optimal:
                return "unbounded", None, None
            x, viol = basic_point(k)
            if viol <= FEAS_TOL:
                return "optimal", x, viol
            # the drift phase 1 guards against can also leave a basis whose
            # rhs reads feasible while its point is not: re-form it once
            try:
                T[k, :m] = reformed(k)
            except np.linalg.LinAlgError:
                return _verified(x, viol)
            T[k][:, art_cols] = 0.0
            obj[k] = _priced(T[k], basis[k], y_cols, c[s])
            earlier[s] = x, viol
            stage[s] = _PHASE2_REFORMED
            return None
        x, viol = basic_point(k) if optimal else earlier[s]
        if viol > FEAS_TOL and residual[s] > 0.0:
            # phase 1 ended inside the tolerance band: the rows hold only to
            # within FEAS_TOL, so "infeasible" is as right as a point would be
            return "infeasible", None, None
        return _verified(x, viol)

    ar = np.arange(nb)
    no_ratio = np.full((nb, m), np.inf)  # the ratio of a row that cannot leave
    while len(live):
        neg = obj[:, :width] < -_EPS
        enter = neg.argmax(axis=1)  # lowest improving column
        improving = neg[ar, enter]
        ended = {}  # k -> its phase ended: True optimal, False unbounded, None out of budget
        if np.count_nonzero(improving) < len(live):
            ended = dict.fromkeys((~improving).nonzero()[0], True)
        else:
            col = T[ar, :, enter]  # the objective row's entry last
            ratios = np.divide(T[:, :m, -1], col[:, :m], out=no_ratio[:len(live)].copy(),
                               where=col[:, :m] > _EPS)
            r = np.minimum.reduce(ratios, axis=1, keepdims=True)
            finite = np.isfinite(r)  # where r is not, the rows are scanned
            gap = ratios - np.where(finite, r, 0.0)
            exact = gap == 0.0
            leave = np.where(exact, basis, width).argmin(axis=1)  # lowest basis index among ties
            near = (gap <= _EPS) | (ratios - _EPS <= r)  # not strictly beaten by r
            odd = near != exact
            if np.count_nonzero(odd) or np.count_nonzero(finite) < len(live):
                # a near-tie, a nan ratio or no finite one: scan the rows in order
                for k in (odd.any(axis=1) | ~finite[:, 0]).nonzero()[0]:
                    leave[k] = _scan_row(ratios[k], col[k, :m] > _EPS, basis[k])
                    if leave[k] < 0:
                        ended[k] = False
        if not ended:
            _pivot(T, leave, col, step)
            basis[ar, leave] = enter
            steps += 1
            if steps <= _MAX_PIVOTS or steps - began.min() <= _MAX_PIVOTS:
                continue
            ended = dict.fromkeys((steps - began > _MAX_PIVOTS).nonzero()[0])
        done = np.zeros(len(live), dtype=bool)
        for k, optimal in ended.items():
            try:
                if optimal is None:
                    raise LpNumericalError("pivot budget exhausted (degenerate basis?)")
                results[live[k]] = phase_end(k, optimal)
            except (LpNumericalError, np.linalg.LinAlgError) as err:
                results[live[k]] = err
            done[k] = results[live[k]] is not None
        if not np.count_nonzero(done):
            continue
        keep = ~done
        for j, k in enumerate(keep.nonzero()[0]):  # in place: no second stack
            T[j] = T[k]
        live = live[keep]
        T = T[:len(live)]
        obj, basis, began, ar = T[:, m], basis[keep], began[keep], np.arange(len(live))
    return results


def _verified(x, viol):
    """The optimal verdict on a point, which must hold the rows within
    FEAS_TOL."""
    if viol > FEAS_TOL:
        raise LpNumericalError(
            f"simplex returned 'optimal' but the point violates constraints by {viol:.3e}"
        )
    return "optimal", x, viol


def _violation(lp: LinearProgram, x: np.ndarray, index: int = 0) -> float:
    """Worst scaled violation of alternative index's rows at x."""
    worst = 0.0
    for row, rel, rhs in lp.constraints:
        if row.ndim == 2:
            row = row[index]
        if not isinstance(rhs, float):
            rhs = float(rhs[index])
        scale = max(1.0, float(np.max(np.abs(row))) if row.size else 1.0)
        v = float(row @ x) - rhs
        if rel == LE:
            worst = max(worst, v / scale)
        elif rel == GE:
            worst = max(worst, -v / scale)
        else:
            worst = max(worst, abs(v) / scale)
    return worst


def _solve(lp: LinearProgram) -> list:
    """`_simplex` on the standard form of the alternatives the presolve
    does not certify: each alternative's (status, x, violation) with x
    clamped into the bounds, or its error; a certified one is infeasible."""
    c, a, rels, rhs, back, cut = _standardize(lp)

    def point(index, y):
        x = back(y)
        # clamp bound round-off so bounds hold exactly
        for i, (lo, hi) in enumerate(lp.bounds):
            if lo is not None and x[i] < lo:
                x[i] = lo
            if hi is not None and x[i] > hi:
                x[i] = hi
        return x, _violation(lp, x, index)

    if cut is None or not cut.any():
        return _simplex(c, a, rels, rhs, point)
    results = [("infeasible", None, None)] * len(cut)
    kept = (~cut).nonzero()[0]
    if len(kept):
        solved = _simplex(c[kept], a[kept], rels, rhs[kept], lambda s, y: point(kept[s], y))
        for s, result in zip(kept, solved):
            results[s] = result
    return results


def _outcome(lp: LinearProgram, index: int, result) -> LpOutcome:
    """Alternative index's outcome; its error is raised."""
    if isinstance(result, Exception):
        raise result
    status, x, viol = result
    if status != "optimal":
        return LpOutcome(status=status, index=index)
    c = lp.objective[index] if lp.objective.ndim == 2 else lp.objective
    return LpOutcome("optimal", x, float(c @ x), viol, index)


def solve_lp(lp: LinearProgram) -> LpOutcome:
    """Solve the program, or the first alternative of a stack that is not
    infeasible, raising the error of an alternative before it; optimal
    answers are re-verified against the original rows.  A violation above
    the feasibility tolerance re-forms the tableau from the basis and
    finishes phase 2 once more; if it persists it is a hard error, unless
    phase 1 ended inside the tolerance band (a positive sum of artificials
    at most FEAS_TOL), where the program is reported infeasible.  An
    alternative the rank presolve certifies is infeasible without a pivot,
    so it never raises."""
    for index, result in enumerate(_solve(lp)):
        out = _outcome(lp, index, result)
        if out.status != "infeasible":
            return out
    return LpOutcome(status="infeasible")


def solve_each(lp: LinearProgram) -> list:
    """Every alternative's outcome, in stack order, each what `solve_lp`
    reports on the alternative alone; the first error in stack order is
    raised."""
    return [_outcome(lp, index, result) for index, result in enumerate(_solve(lp))]


def check_feasible(constraints, n: int, bounds=None) -> LpOutcome:
    """Phase-1 wrapper: `solve_lp` with a zero objective, so the status is
    "optimal", with a point that satisfies the rows, or "infeasible"; on a
    stack, the first alternative that has such a point."""
    return solve_lp(LinearProgram(np.zeros(n), "min", tuple(constraints), bounds))
