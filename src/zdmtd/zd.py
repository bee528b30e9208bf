"""Zero-determinant strategy machinery: existence of the feasibility
multipliers, their explicit construction, the sequential strategy
construction, verification, and classification.

A defender strategy is zero-determinant for linear parameters (alpha, beta,
gamma) when sum_k phi_k (pi_d(k) - hat(k)) = alpha S_d + beta S_a + gamma 1
holds for some multipliers phi; it then pins alpha u_d + beta u_a + gamma = 0
against every attacker strategy.  The construction below walks targets
K-1 .. 1; a key property of that recursion is that clamping at intermediate
steps is absorbed by the following steps, so the defining equality can only
be broken by step 1 (which must run unclamped with a zero weight shift).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .game import GameSpec, MemoryOneStrategy, hat_indicator, profit_vector
from .lp import GE, check_feasible
from .markov import max_line_residual
from .rng import stream

EQ5_TOL = 1e-8
EQ8_TOL = 1e-9
CLASSIFY_ZERO = 1e-12
POSITIVITY_FLOOR = 1e-9


class ZdConstructionError(RuntimeError):
    """The (parameters, phi) pair admits no valid strategy realization."""


@dataclass(frozen=True)
class ZdLinearParams:
    """Coefficients of the enforced line alpha*u_d + beta*u_a + gamma = 0."""

    alpha: float
    beta: float
    gamma: float

    def as_array(self) -> np.ndarray:
        return np.array([self.alpha, self.beta, self.gamma], dtype=float)

    def normalized(self) -> "ZdLinearParams":
        """Scale so the largest absolute component is 1 (all-zero unchanged)."""
        m = max(abs(self.alpha), abs(self.beta), abs(self.gamma))
        if m == 0.0:
            return self
        return ZdLinearParams(self.alpha / m, self.beta / m, self.gamma / m)

    def is_zero(self) -> bool:
        return self.alpha == self.beta == self.gamma == 0.0


@dataclass(frozen=True)
class FeasibilityParams:
    """Multipliers phi_1..phi_K with phi_K = 0 and the rest nonnegative."""

    phi: np.ndarray

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=float).copy()
        if phi.ndim != 1 or phi.size < 2:
            raise ValueError("phi must be a vector of length K >= 2")
        if abs(phi[-1]) > 1e-12:
            raise ValueError(f"phi_K must be 0, got {phi[-1]!r}")
        phi[-1] = 0.0
        if np.min(phi[:-1]) < -1e-12:
            raise ValueError("phi_1..phi_{K-1} must be nonnegative")
        phi[:-1] = np.maximum(phi[:-1], 0.0)
        phi.setflags(write=False)
        object.__setattr__(self, "phi", phi)

    @property
    def k(self) -> int:
        return self.phi.size


@dataclass(frozen=True)
class Classification:
    kind: str  # equalizer | extortion | generous | general
    chi: float = None
    theta: float = None


@dataclass(frozen=True)
class ZdStrategy:
    strategy: MemoryOneStrategy
    params: ZdLinearParams
    phi: FeasibilityParams
    residual: float
    classification: Classification

    def __post_init__(self):
        if self.residual > EQ5_TOL:
            raise ZdConstructionError(
                f"defining-equality residual {self.residual:.3e} exceeds {EQ5_TOL:.0e}"
            )


@dataclass(frozen=True)
class ExistenceResult:
    exists: bool
    phi: FeasibilityParams = None
    witness: tuple = ()  # violated-constraint descriptions when not exists


def classify(p: ZdLinearParams) -> Classification:
    """Equalizer when alpha vanishes; otherwise extortion/generous by the
    factor chi = -beta/alpha (>= 1 extorts, < 1 is generous).  The baseline
    theta = -gamma/(alpha+beta) is reported when defined."""
    q = p.normalized()
    theta = None
    if abs(q.alpha + q.beta) > CLASSIFY_ZERO:
        theta = -q.gamma / (q.alpha + q.beta)
    if abs(q.alpha) <= CLASSIFY_ZERO:
        return Classification("equalizer", theta=theta)
    chi = -q.beta / q.alpha
    kind = "extortion" if chi >= 1.0 else "generous"
    return Classification(kind, chi=chi, theta=theta)


def _terms(g: GameSpec, p: ZdLinearParams):
    """Covered and uncovered line values c_k, u_k per target."""
    c = p.alpha * g.u_d_cov + p.beta * g.u_a_cov + p.gamma
    u = p.alpha * g.u_d_unc + p.beta * g.u_a_unc + p.gamma
    return c, u


def construct_phi(g: GameSpec, p: ZdLinearParams) -> FeasibilityParams:
    """Explicit feasibility multipliers, walked from target K down.

    phi_K = 0; phi_{K-1} covers target K's line values; middle targets add
    their covered value on top; phi_1 dominates everything with twice the
    middle mass plus target 1's own line values.
    """
    c, u = _terms(g, p)
    k = g.k
    phi = np.zeros(k)
    phi[k - 2] = max(abs(c[k - 1]), abs(u[k - 1]))
    for idx in range(k - 3, 0, -1):  # targets K-2 .. 2
        phi[idx] = abs(c[idx]) + phi[k - 2]
    phi[0] = 2.0 * phi[1 : k - 1].sum() + abs(u[0]) + abs(c[0])
    return FeasibilityParams(phi)


def eq8_violations(g: GameSpec, p: ZdLinearParams, fp: FeasibilityParams,
                   tol: float = EQ8_TOL) -> list:
    """Constraint defects of the existence inequalities at the given phi."""
    c, u = _terms(g, p)
    phi = fp.phi
    k = g.k
    phimax = float(np.max(phi))
    out = []
    for t in range(k):
        others = np.delete(phi, t)
        pmax, pmin = float(np.max(others)), float(np.min(others))
        if c[t] < -phi[t] - tol:
            out.append(f"covered[{t + 1}] below -phi: {c[t]:.6g} < {-phi[t]:.6g}")
        if c[t] > phimax - phi[t] + tol:
            out.append(f"covered[{t + 1}] above phi_max - phi: {c[t]:.6g} > {phimax - phi[t]:.6g}")
        if u[t] < -pmin - tol:
            out.append(f"uncovered[{t + 1}] below -min_others: {u[t]:.6g} < {-pmin:.6g}")
        if u[t] > phimax - pmax + tol:
            out.append(f"uncovered[{t + 1}] above phi_max - max_others: {u[t]:.6g} > {phimax - pmax:.6g}")
    return out


def _require_canonical(g: GameSpec):
    if g.u_d_cov[0] < np.max(g.u_d_cov) - 1e-12:
        raise ValueError("game must be canonicalized (label 1 carries max covered profit)")


def _eq8_existence(g: GameSpec, p: ZdLinearParams) -> ExistenceResult:
    """Theorem-style existence test without the canonical-label precondition."""
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
        res = check_feasible(rows, k - 1, bounds=[(0.0, None)] * (k - 1))
        if res.feasible:
            phi_vec = np.append(res.x, 0.0)
            fp = FeasibilityParams(phi_vec)
            bad = eq8_violations(g, p, fp)
            if not bad:
                return ExistenceResult(True, fp)
            witness.append(f"argmax phi_{m + 1}: LP point failed recheck: " + "; ".join(bad))
        else:
            witness.append(f"argmax phi_{m + 1}: multiplier LP infeasible")
    return ExistenceResult(False, witness=tuple(witness))


def existence_check(g: GameSpec, p: ZdLinearParams) -> ExistenceResult:
    """Do feasibility multipliers exist for these linear parameters?

    Tries the explicit construction first and falls back to one feasibility
    LP per candidate argmax index.  The game must be in canonical labels.
    """
    _require_canonical(g)
    return _eq8_existence(g, p)


def _construct(g: GameSpec, p: ZdLinearParams, fp: FeasibilityParams, zeta: float):
    """One construction attempt with positivity floor zeta; returns (rows,
    residual) or raises ZdConstructionError."""
    k = g.k
    n = k * k
    phi = fp.phi
    r = (p.alpha * profit_vector(g, "defender")
         + p.beta * profit_vector(g, "attacker")
         + p.gamma * np.ones(n))
    cols = np.zeros((n, k))
    total = np.zeros(n)
    acc = np.zeros(n)

    for target in range(k - 1, 0, -1):
        idx = target - 1
        if phi[idx] <= 1e-15:
            raise ZdConstructionError(
                f"phi_{target} = 0: the recursion divides by it (degenerate parameters)"
            )
        hat = hat_indicator(k, target)
        nvec = r - acc
        cap = 1.0 - target * zeta - total
        lo = float(np.max(nvec - phi[idx] * (cap - hat)))
        hi = float(np.min(nvec - phi[idx] * (zeta - hat)))

        if target == 1:
            # the defining equality forces a zero shift and no clamping here
            tol = 5e-9 / max(phi[idx], 1.0)
            if lo > tol or hi < -tol:
                raise ZdConstructionError(
                    f"step 1 admits no valid zero shift: interval [{lo:.6g}, {hi:.6g}] "
                    f"does not contain 0 (parameters/phi pair infeasible)"
                )
            w = 0.0
        elif lo <= hi:
            w = 1.0 / k if lo <= 1.0 / k <= hi else 0.5 * (lo + hi)
        else:
            # empty no-clamp interval: wipe the column (shift large enough to
            # clamp every entry to the floor).  Later steps absorb the
            # adjustment exactly and the full probability budget stays
            # available for the final absorbing step, whose multiplier
            # dominates every line value by construction.
            w = max(lo, float(np.max(nvec - phi[idx] * (zeta - hat))))
        raw = (nvec - w) / phi[idx] + hat
        col = np.clip(raw, zeta if target > 1 else 0.0, cap)
        cols[:, idx] = col
        acc += phi[idx] * (col - hat)
        total += col

    last = 1.0 - total
    if np.min(last) < -1e-9:
        raise ZdConstructionError(
            f"residual column went negative ({np.min(last):.3e}); phi infeasible"
        )
    cols[:, k - 1] = np.clip(last, 0.0, 1.0)
    residual = float(np.max(np.abs(acc - r)))
    return cols, residual


def construct_strategy(
    g: GameSpec,
    p: ZdLinearParams,
    fp: FeasibilityParams,
) -> ZdStrategy:
    """Sequential strategy construction for targets K-1 down to 1.

    The per-step shift is chosen from the closed-form interval keeping the
    column inside [0, 1] and the running sums below 1: the uniform weight
    1/K when it lies in that interval, the midpoint otherwise.  A small
    positivity floor keeps rows interior so downstream best-response
    evaluation needs no epsilon blending; it is dropped automatically for
    boundary-tight instances.  The defining equality is re-verified and a
    residual above EQ5_TOL is a hard error.
    """
    if p.is_zero():
        raise ZdConstructionError(
            "all-zero linear parameters: every strategy trivially satisfies the "
            "line, the construction is undefined"
        )
    if fp.k != g.k:
        raise ValueError("phi length must equal K")

    last_err = None
    for zeta in (POSITIVITY_FLOOR, 0.0):
        try:
            cols, residual = _construct(g, p, fp, zeta)
        except ZdConstructionError as err:
            last_err = err
            continue
        if residual <= EQ5_TOL:
            return ZdStrategy(
                MemoryOneStrategy(g.k, cols), p, fp, residual, classify(p)
            )
        last_err = ZdConstructionError(
            f"defining-equality residual {residual:.3e} exceeds {EQ5_TOL:.0e} "
            f"(clamping at step 1 could not be avoided)"
        )
    raise last_err


@dataclass(frozen=True)
class VerifyReport:
    eq5_residual: float
    max_line_residual: float  # over sampled attacker strategies; nan if none
    row_sum_defect: float
    min_entry: float
    n_samples: int
    seed: int


def defining_residual(g: GameSpec, strategy: MemoryOneStrategy,
                      p: ZdLinearParams, phi: np.ndarray) -> float:
    """Max-norm defect of sum_k phi_k (pi_d(k) - hat(k)) = alpha S_d + beta S_a + gamma 1.

    phi is the multiplier vector in g's labels (after relabeling back to the
    caller's targets the zero multiplier is no longer at the last label).
    """
    k = g.k
    r = (p.alpha * profit_vector(g, "defender")
         + p.beta * profit_vector(g, "attacker")
         + p.gamma * np.ones(k * k))
    acc = np.zeros(k * k)
    for target in range(1, k + 1):
        acc += phi[target - 1] * (strategy.rows[:, target - 1] - hat_indicator(k, target))
    return float(np.max(np.abs(acc - r)))


def verify(g: GameSpec, zd: ZdStrategy, n_samples: int = 1000, seed: int = 0) -> VerifyReport:
    """Re-check the algebraic defining equality and the enforced line against
    sampled random attacker strategies."""
    rows = zd.strategy.rows
    eq5 = defining_residual(g, zd.strategy, zd.params, zd.phi.phi)

    worst = float("nan")
    if n_samples > 0:
        worst = max_line_residual(g, zd.strategy, zd.params.alpha, zd.params.beta,
                                  zd.params.gamma, n_samples, stream(seed, "zd-verify"))

    return VerifyReport(
        eq5_residual=eq5,
        max_line_residual=worst,
        row_sum_defect=float(np.max(np.abs(rows.sum(axis=1) - 1.0))),
        min_entry=float(np.min(rows)),
        n_samples=n_samples,
        seed=seed,
    )
