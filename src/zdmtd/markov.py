"""Markov analysis of a strategy pair: induced K^2-state chain, stationary
distribution, long-run average utilities, the determinant-ratio form of the
same utilities used to cross-check the linear-algebra path, and the sampled
check that a strategy enforces its line.

This is the package's one chain kernel: `chain` builds a chain or a stack of
chains, `_direct` solves them for their stationary vectors through
`_solve_direct`, and the best-response module uses all three (its K <= 3
enumeration gathers its direct systems itself, entry for entry as `_direct`
builds them).  `stationary` keeps a direct solution that is
a non-negative fixed point to 1e-10, unless the chain has zero entries and
reachability on its support graph finds several closed classes (the direct
system is then singular, yet its rounded solve can pass that check).  Such a
chain, or one failing the check, gets the limit of Cesaro averaging from the
uniform start, computed exactly: a direct solve per closed class, weighted by
the probability of absorption into the class (Kemeny & Snell, Finite Markov
Chains, 1960, ch. 3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .game import GameSpec, MemoryOneStrategy, profit_vector

DIRECT_RESIDUAL_TOL = 1e-10
DET_SINGULAR_TOL = 1e-12
EPSILON_MIX = 1e-8  # shared with the best-response module so oracles agree
VERIFY_STACK_ENTRIES = 2**16  # chain-matrix entries per stacked verification solve


class StationaryError(RuntimeError):
    """A stationary vector failed the fixed-point check."""

    def __init__(self, msg, residual=None):
        super().__init__(msg)
        self.residual = residual


class SingularChainError(RuntimeError):
    """Determinant denominator vanished (reducible chain); use the
    stationary-based evaluator instead."""


@dataclass(frozen=True)
class TransitionMatrix:
    """Chain over flat states, or a stack of chains along a leading axis; row
    s moves to flat(d, a) with probability pi_d(d|s) * pi_a(a|s), so every row
    is a rank-one outer product."""

    k: int
    m: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.m, dtype=float)
        n = self.k * self.k
        if m.shape[-2:] != (n, n) or m.ndim > 3:
            raise ValueError(f"transition matrix must be {n} x {n} or a stack of them")
        if np.min(m) < -1e-12 or np.max(np.abs(m.sum(axis=-1) - 1.0)) > 1e-12:
            raise ValueError("transition matrix must be row-stochastic")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "m", m)


@dataclass(frozen=True)
class StationaryDist:
    v: np.ndarray  # one vector per chain of the stack
    method: str  # direct | reducible (some chain needed the closed-class limit)
    residual: float  # worst over the stack


@dataclass(frozen=True)
class UtilityPair:
    u_d: float
    u_a: float


def chain(d_rows: np.ndarray, a_rows: np.ndarray) -> np.ndarray:
    """M[..., s, flat(d, a)] = d_rows[..., s, d] * a_rows[..., s, a]; leading
    stack axes of either side broadcast."""
    m = np.einsum("...sd,...sa->...sda", d_rows, a_rows)
    return m.reshape(m.shape[:-2] + (-1,))


def build_transition(pi_d: MemoryOneStrategy, pi_a: MemoryOneStrategy) -> TransitionMatrix:
    """M[s, flat(d, a)] = pi_d(d|s) * pi_a(a|s)."""
    if pi_d.k != pi_a.k:
        raise ValueError(f"strategy K mismatch: {pi_d.k} vs {pi_a.k}")
    return TransitionMatrix(pi_d.k, chain(pi_d.rows, pi_a.rows))


def eps_mixed(s: MemoryOneStrategy, eps: float = EPSILON_MIX) -> MemoryOneStrategy:
    """Blend every row with the uniform distribution at weight eps.

    Reproducible tiebreak for reducible/periodic chains produced by
    deterministic strategies; the bias it introduces is O(eps).
    """
    rows = (1.0 - eps) * s.rows + eps / s.k
    return MemoryOneStrategy(s.k, rows)


def _direct(m: np.ndarray) -> np.ndarray:
    """Solve v (M - I) = 0 with the last equation replaced by sum(v) = 1, for
    one chain or a stack; LinAlgError if a system is singular."""
    a = np.swapaxes(m, -1, -2) - np.eye(m.shape[-1])
    a[..., -1, :] = 1.0
    return _solve_direct(a)


def _solve_direct(a: np.ndarray) -> np.ndarray:
    """Stationary vectors from a direct system A = M^T - I with its last row
    set to ones, or from a stack of them, in one solve."""
    n = a.shape[-1]
    b = np.zeros((n, 1))
    b[-1] = 1.0
    return np.linalg.solve(a, np.broadcast_to(b, a.shape[:-2] + (n, 1)))[..., 0]


def _direct_or_nan(stack: np.ndarray) -> np.ndarray:
    """Direct solutions of a stack of chains, NaN rows for singular ones."""
    try:
        return _direct(stack)
    except np.linalg.LinAlgError:
        if len(stack) == 1:
            return np.full((1, stack.shape[-1]), np.nan)
        return np.concatenate([_direct_or_nan(m[None]) for m in stack])


def _closed_classes(support: np.ndarray) -> list:
    """Boolean masks of the closed classes of a chain with the given boolean
    support graph, from the transitive closure of that graph."""
    reach, prev = support | np.eye(len(support), dtype=bool), None
    while not np.array_equal(reach, prev):  # repeated squaring
        prev, reach = reach, (reach.astype(float) @ reach.astype(float)) > 0.0
    recurrent = np.all(reach <= reach.T, axis=1)  # every state it reaches leads back
    # a recurrent state reaches exactly its class; keep each class once
    return [reach[s] for s in np.nonzero(recurrent)[0] if np.argmax(reach[s]) == s]


def _closed_class_limit(m: np.ndarray, classes: list) -> np.ndarray:
    """lim (1/T) sum_t u M^t from the uniform start u: each closed class's
    stationary vector weighted by u's probability of ending in the class."""
    n = m.shape[0]
    transient = ~np.any(classes, axis=0)
    into = np.stack([m[np.ix_(transient, c)].sum(axis=1) for c in classes], axis=1)
    q = m[np.ix_(transient, transient)]
    absorbed = np.linalg.solve(np.eye(len(q)) - q, into)  # transient x class
    v = np.zeros(n)
    for c, from_transient in zip(classes, absorbed.T):
        v[c] = (c.sum() + from_transient.sum()) / n * _direct(m[np.ix_(c, c)])
    return v


def _fixed_point_residual(v: np.ndarray, stack: np.ndarray) -> np.ndarray:
    return np.max(np.abs((v[:, None, :] @ stack)[:, 0] - v), axis=1)


def stationary(tm: TransitionMatrix) -> StationaryDist:
    """Stationary distribution of a chain or of each chain of a stack: the
    direct solve of a unichain chain where it gives a non-negative fixed
    point, the uniform-start closed-class limit otherwise."""
    n = tm.k * tm.k
    stack = tm.m.reshape(-1, n, n)
    v = _direct_or_nan(stack)
    direct = (_fixed_point_residual(v, stack) <= DIRECT_RESIDUAL_TOL) & (v.min(axis=1) >= -1e-9)
    reducible, classes_of = [], {}  # the chains of a stack often share one support graph
    for i in np.nonzero(~direct | (stack.min(axis=(1, 2)) <= 0.0))[0]:
        support = stack[i] > 0.0
        key = support.tobytes()
        if key not in classes_of:
            classes_of[key] = _closed_classes(support)
        classes = classes_of[key]
        if not direct[i] or len(classes) > 1:
            v[i] = _closed_class_limit(stack[i], classes)
            reducible.append(i)
    v = np.maximum(v, 0.0)
    v /= v.sum(axis=1, keepdims=True)
    residual = _fixed_point_residual(v, stack)
    worst = float(np.max(residual[reducible], initial=0.0))
    if not worst <= DIRECT_RESIDUAL_TOL:
        raise StationaryError(f"closed-class limit residual {worst:.3e} above "
                              f"{DIRECT_RESIDUAL_TOL:.0e}", residual=worst)
    return StationaryDist(v.reshape(tm.m.shape[:-1]), "reducible" if reducible else "direct",
                          float(np.max(residual)))


def long_run_utilities(g: GameSpec, pi_d: MemoryOneStrategy, pi_a: MemoryOneStrategy) -> UtilityPair:
    """Average-reward pair (v . S_d, v . S_a) at the stationary vector."""
    if not (g.k == pi_d.k == pi_a.k):
        raise ValueError("K mismatch between game and strategies")
    v = stationary(build_transition(pi_d, pi_a)).v
    sd = profit_vector(g, "defender")
    sa = profit_vector(g, "attacker")
    return UtilityPair(float(v @ sd), float(v @ sa))


def det_utilities(g: GameSpec, pi_d: MemoryOneStrategy, pi_a: MemoryOneStrategy) -> UtilityPair:
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


def zd_residual(g: GameSpec, pi_d: MemoryOneStrategy, pi_a: MemoryOneStrategy,
                alpha: float, beta: float, gamma: float) -> float:
    """|alpha * u_d + beta * u_a + gamma| at the long-run utilities."""
    u = long_run_utilities(g, pi_d, pi_a)
    return abs(alpha * u.u_d + beta * u.u_a + gamma)


def max_line_residual(g: GameSpec, pi_d: MemoryOneStrategy, alpha: float, beta: float,
                      gamma: float, n_samples: int, rng: np.random.Generator) -> float:
    """Max of |alpha * u_d + beta * u_a + gamma| against n_samples attackers
    whose rows are Dirichlet(1) draws from rng, in draw order; the chains are
    solved in stacks of at most VERIFY_STACK_ENTRIES matrix entries (at least
    one chain)."""
    if g.k != pi_d.k:
        raise ValueError(f"K mismatch: game {g.k}, strategy {pi_d.k}")
    k, n = g.k, g.k * g.k
    sd = profit_vector(g, "defender")
    sa = profit_vector(g, "attacker")
    size = max(1, VERIFY_STACK_ENTRIES // n**2)
    worst = 0.0
    for start in range(0, n_samples, size):
        att = rng.dirichlet(np.ones(k), size=(min(size, n_samples - start), n))
        v = stationary(TransitionMatrix(k, chain(pi_d.rows, att))).v
        worst = max(worst, float(np.max(np.abs(alpha * (v @ sd) + beta * (v @ sa) + gamma))))
    return worst
