"""Small dense linear-program kernel: two-phase simplex with Bland's rule.

Built for the tiny programs this package solves (a handful of variables,
tens of constraints).  The pivot rule is fixed -- entering variable is the
lowest-index column with negative reduced cost, leaving row breaks ratio
ties by the lowest basis index -- so identical inputs always produce
identical outcomes and cycling is impossible.

Each pivot is a few array passes over the tableau: the entering column is
the first index below -_EPS, the ratio test one vectorized minimum (rows
are scanned in order only when a second ratio lies within _EPS of the
minimum without equalling it), and the elimination one outer-product update
of the rows with a nonzero pivot-column entry.  Every entry goes through
the same floating-point operations as in a row-at-a-time elimination, so
the outcome does not depend on how the passes are grouped.  The phase-1
and phase-2 objective rows are built row by row, because their summation
order is part of the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

FEAS_TOL = 1e-8
_EPS = 1e-9
_MAX_PIVOTS = 50_000

LE, EQ, GE = "<=", "=", ">="
_REL_SIGN = {LE: -1, EQ: 0, GE: 1}


class LpError(ValueError):
    """Malformed program (dimension mismatch, bad relation, non-finite rhs)."""


class LpNumericalError(RuntimeError):
    """Numerically degenerate solve; the status could not be certified."""


@dataclass(frozen=True)
class LinearProgram:
    """max/min objective @ x subject to rows (coeffs, relation, rhs) and
    per-variable bounds (lo, hi), either side None for unbounded."""

    objective: np.ndarray
    sense: str = "max"
    constraints: tuple = ()
    bounds: tuple = None  # defaults to all-free

    def __post_init__(self):
        obj = np.asarray(self.objective, dtype=float)
        if obj.ndim != 1 or obj.size < 1:
            raise LpError("objective must be a non-empty vector")
        if self.sense not in ("max", "min"):
            raise LpError(f"sense must be 'max' or 'min', got {self.sense!r}")
        n = obj.size
        rows = []
        for row, rel, rhs in self.constraints:
            r = np.asarray(row, dtype=float)
            if r.shape != (n,):
                raise LpError(f"constraint row has length {r.size}, expected {n}")
            if rel not in (LE, EQ, GE):
                raise LpError(f"relation must be one of <=, =, >=, got {rel!r}")
            if not np.isfinite(rhs):
                raise LpError("constraint rhs must be finite")
            rows.append((r, rel, float(rhs)))
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

    @property
    def n(self) -> int:
        return self.objective.size

    def dump(self) -> str:
        """Plain-text rendering for bug reports."""
        lines = [f"{self.sense} {self.objective.tolist()}"]
        for row, rel, rhs in self.constraints:
            lines.append(f"  {row.tolist()} {rel} {rhs}")
        lines.append(f"  bounds: {list(self.bounds)}")
        return "\n".join(lines)


@dataclass(frozen=True)
class LpOutcome:
    status: str  # optimal | infeasible | unbounded
    x: np.ndarray = None
    objective: float = None
    max_violation: float = None


@dataclass(frozen=True)
class Feasibility:
    feasible: bool
    x: np.ndarray = None


def _standardize(lp: LinearProgram):
    """Rewrite in nonnegative variables y >= 0: x_i = shift_i + sign_i * y_col.

    Free variables split into a positive and a negative part.  Finite upper
    bounds become extra <= rows.  Returns (c, a, rels, rhs, back): the
    objective and the row matrix in y, the relations as -1, 0, +1 for <=, =,
    >=, and the map from y back to x.
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

    cons = lp.constraints
    a = np.vstack([to_y(np.array([row for row, _, _ in cons]).reshape(-1, n)),
                   np.eye(ncol)[[c for c, _ in upper]].reshape(-1, ncol)])
    rels = np.array([_REL_SIGN[rel] for _, rel, _ in cons] + [-1] * len(upper))
    rhs = np.array([rhs - float(row @ shifts) for row, _, rhs in cons]
                   + [ub for _, ub in upper], dtype=float)

    c = to_y(lp.objective)
    if lp.sense == "max":
        c = -c

    def back(y):
        x = shifts.copy()
        np.add.at(x, var, sign * y)  # in column order, as a sequential sum
        return x

    return c, a, rels, rhs, back


def _pivot(T: np.ndarray, row: int, col: int) -> None:
    """Scale the pivot row, then eliminate the column from every other row
    where it is nonzero, in one outer-product update."""
    T[row] /= T[row, col]
    rows = T[:, col].nonzero()[0]
    rows = rows[rows != row]
    T[rows] -= T[rows, col, None] * T[row]


def _leaving_row(T: np.ndarray, basis: np.ndarray, enter: int) -> int:
    """Ratio test with Bland's tie rule: the row of the smallest ratio, ties
    within _EPS going to the lowest basis index; -1 when the column is
    unbounded.

    One array pass settles it when every ratio within _EPS of the minimum
    equals it exactly (the lowest basis index among them wins).  Otherwise
    the rows are scanned in order, since a chain of near-ties then decides."""
    col = T[:, enter]
    cand = (col > _EPS).nonzero()[0]
    if not len(cand):
        return -1
    ratios = T[cand, -1] / col[cand]
    r = ratios.min()
    if math.isfinite(r):
        near = (ratios - _EPS <= r) | (ratios - r <= _EPS)  # not strictly beaten by r
        tied = cand[near]
        if len(tied) == 1:
            return int(tied[0])
        if (ratios[near] == r).all():
            return int(tied[basis[tied].argmin()])
    leave, best = -1, np.inf
    for i, ratio in zip(cand, ratios):
        if ratio < best - _EPS or (
            abs(ratio - best) <= _EPS and (leave < 0 or basis[i] < basis[leave])
        ):
            best, leave = ratio, i
    return int(leave)


def _simplex(c: np.ndarray, a: np.ndarray, rels: np.ndarray, rhs: np.ndarray):
    """Two-phase primal simplex on min c@y, rows a@y (rels) rhs, y >= 0 with
    Bland's rule; rels holds -1, 0, +1 for <=, =, >=.

    Returns (status, y) with status in optimal/infeasible/unbounded.
    """
    m, ncol = a.shape
    if m == 0:
        if np.any(c < -_EPS):
            return "unbounded", None
        return "optimal", np.zeros(ncol)

    # scale rows, force nonnegative rhs (a flipped row flips its relation)
    scale = np.fmax(1.0, np.abs(a).max(axis=1))
    a, b = a / scale[:, None], rhs / scale
    flip = b < 0
    a[flip], b[flip], rels = -a[flip], -b[flip], np.where(flip, -rels, rels)

    # slack / surplus / artificial columns, numbered in row order
    has_slack, has_art = rels != 0, rels >= 0
    n_slack, n_art = int(has_slack.sum()), int(has_art.sum())
    width = ncol + n_slack + n_art
    slack_col = ncol + has_slack.cumsum() - 1
    art_col = ncol + n_slack + has_art.cumsum() - 1
    T = np.zeros((m, width + 1))
    T[:, :ncol] = a
    T[:, -1] = b
    s_rows, a_rows = has_slack.nonzero()[0], has_art.nonzero()[0]
    T[s_rows, slack_col[s_rows]] = -rels[s_rows]  # +1 slack, -1 surplus
    T[a_rows, art_col[a_rows]] = 1.0
    basis = np.where(has_art, art_col, slack_col)
    art_cols = art_col[a_rows]

    def run(obj_row):
        """Bland simplex on the current tableau with the given objective row."""
        pivots = 0
        while True:
            enter = int((obj_row[:width] < -_EPS).argmax())  # lowest improving column
            if not obj_row[enter] < -_EPS:
                return "optimal"
            leave = _leaving_row(T, basis, enter)
            if leave < 0:
                return "unbounded"
            _pivot(T, leave, enter)
            obj_row -= obj_row[enter] * T[leave]
            basis[leave] = enter
            pivots += 1
            if pivots > _MAX_PIVOTS:
                raise LpNumericalError("pivot budget exhausted (degenerate basis?)")

    if n_art:
        w = np.zeros(width + 1)
        w[art_cols] = 1.0
        for i in a_rows:  # row by row: the summation order is part of the result
            w -= T[i]
        status = run(w)
        if status != "optimal":
            raise LpNumericalError("phase-1 reported unbounded; inconsistent tableau")
        if -w[-1] > FEAS_TOL:  # w stores -(current value) in the rhs slot
            return "infeasible", None
        # drive remaining zero-level artificials out of the basis
        for i in (basis >= ncol + n_slack).nonzero()[0]:
            big = np.abs(T[i, :ncol + n_slack]) > 1e-7
            if big.any():
                j = int(big.argmax())
                _pivot(T, i, j)
                basis[i] = j
        # zero out any artificial column still in the basis (redundant row)
        T[:, art_cols] = 0.0

    z = np.zeros(width + 1)
    z[:ncol] = c
    for i in range(m):
        if z[basis[i]] != 0.0:
            z -= z[basis[i]] * T[i]
    status = run(z)
    if status != "optimal":
        return "unbounded", None

    y = np.zeros(width)
    y[basis] = T[:, -1]
    return "optimal", np.maximum(y[:ncol], 0.0)


def _violation(lp: LinearProgram, x: np.ndarray) -> float:
    worst = 0.0
    for row, rel, rhs in lp.constraints:
        scale = max(1.0, float(np.max(np.abs(row))) if row.size else 1.0)
        v = float(row @ x) - rhs
        if rel == LE:
            worst = max(worst, v / scale)
        elif rel == GE:
            worst = max(worst, -v / scale)
        else:
            worst = max(worst, abs(v) / scale)
    return worst


def solve_lp(lp: LinearProgram) -> LpOutcome:
    """Solve the program; optimal answers are re-verified against the original
    rows and a violation above the feasibility tolerance is a hard error."""
    c, a, rels, rhs, back = _standardize(lp)
    status, y = _simplex(c, a, rels, rhs)
    if status != "optimal":
        return LpOutcome(status=status)
    x = back(y)
    # clamp bound round-off so bounds hold exactly
    for i, (lo, hi) in enumerate(lp.bounds):
        if lo is not None and x[i] < lo:
            x[i] = lo
        if hi is not None and x[i] > hi:
            x[i] = hi
    viol = _violation(lp, x)
    if viol > FEAS_TOL:
        raise LpNumericalError(
            f"simplex returned 'optimal' but the point violates constraints by {viol:.3e}"
        )
    return LpOutcome("optimal", x, float(lp.objective @ x), viol)


def check_feasible(constraints, n: int, bounds=None) -> Feasibility:
    """Phase-1 wrapper: find any point satisfying the rows (zero objective)."""
    lp = LinearProgram(np.zeros(n), "min", tuple(constraints), bounds)
    out = solve_lp(lp)
    return Feasibility(out.status == "optimal", out.x)
