"""Markov analysis of a strategy pair: induced K^2-state chain, stationary
distribution, long-run average utilities, and the sampled check that a
strategy enforces its line.

This is the package's one chain kernel: `chain` builds a chain or a stack of
chains, `_direct` solves them for their stationary vectors, and the
best-response module uses both (its K <= 3 enumeration instead reduces the
same direct systems by GTH state reduction, and its swap search solves the
lumped chains of constant policies by `_direct_offdiag`, whose diagonal is
formed from the off-diagonal entries as in that reduction).  `stationary`
keeps a direct solution that is a non-negative fixed point to 1e-10, unless
the chain has zero entries and reachability on its support graph finds
several closed classes (the direct system is then singular, yet its rounded
solve can pass that check).  Such a chain, or one failing the check, gets
the limit of Cesaro averaging from the uniform start, computed exactly: a
direct solve per closed class, weighted by the probability of absorption
into the class (Kemeny & Snell, Finite Markov Chains, 1960, ch. 3).

The sampled check solves each chain only on the states (d, a) whose d the
defender plays: no transition enters the others, so their stationary mass
is 0.  A chain with several closed classes then starts uniform over the
played states, not over all K^2; under ZD parameters every stationary
distribution satisfies the line, so the choice moves the check by rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .game import GameSpec, MemoryOneStrategy, profit_vector

DIRECT_RESIDUAL_TOL = 1e-10
EPSILON_MIX = 1e-8  # shared with the best-response module so oracles agree
VERIFY_STACK_ENTRIES = 2**16  # chain-matrix entries per stacked verification solve


class StationaryError(RuntimeError):
    """A stationary vector failed the fixed-point check."""

    def __init__(self, msg, residual=None):
        super().__init__(msg)
        self.residual = residual


@dataclass(frozen=True)
class TransitionMatrix:
    """Chain over flat states, or a stack of chains along a leading axis; row
    s moves to flat(d, a) with probability pi_d(d|s) * pi_a(a|s), so every row
    is a rank-one outer product.  A chain may keep only some of the K^2
    states (a square matrix on 1 to K^2 of them), when the others carry no
    stationary mass."""

    k: int
    m: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.m, dtype=float)
        n = self.k * self.k
        if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2] or not 0 < m.shape[-1] <= n:
            raise ValueError(f"transition matrix must be square on 1 to {n} states, "
                             "or a stack of them")
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
    n = m.shape[-1]
    return _solve_balance(np.swapaxes(m, -1, -2) - np.eye(n))


def _direct_offdiag(m: np.ndarray) -> np.ndarray:
    """`_direct` with each diagonal entry of M - I taken as minus the row's
    off-diagonal sum, not M[s, s] - 1.  The two agree in exact arithmetic;
    on a self-loop within about 1e-9 of 1 the subtraction from 1 keeps only
    seven digits, the sum all of them."""
    n = m.shape[-1]
    a = np.swapaxes(m, -1, -2).copy()
    i = np.arange(n)
    a[..., i, i] = 0.0
    a[..., i, i] = -a.sum(axis=-2)
    return _solve_balance(a)


def _solve_balance(a: np.ndarray) -> np.ndarray:
    """Solve a v = e_last after replacing the last row of a (in place) by
    ones.  The right-hand side is a stack of (n, 1) columns, which numpy 1.x
    and 2.x both solve as one vector per system."""
    n = a.shape[-1]
    a[..., -1, :] = 1.0
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
    off = q - np.diag(np.diag(q))
    # I - Q with each diagonal entry the row's mass leaving the state (GTH):
    # 1 - q_ii rounds to 0 on a state that leaves with probability ~1e-17
    absorbed = np.linalg.solve(np.diag(into.sum(axis=1) + off.sum(axis=1)) - off, into)
    v = np.zeros(n)
    for c, from_transient in zip(classes, absorbed.T):
        v[c] = (c.sum() + from_transient.sum()) / n * _direct(m[np.ix_(c, c)])
    return v


def _fixed_point_residual(v: np.ndarray, stack: np.ndarray) -> np.ndarray:
    return np.max(np.abs((v[:, None, :] @ stack)[:, 0] - v), axis=1)


def stationary(tm: TransitionMatrix, classes_of: dict = None) -> StationaryDist:
    """Stationary distribution of a chain or of each chain of a stack: the
    direct solve of a unichain chain where it gives a non-negative fixed
    point, the uniform-start closed-class limit otherwise.  classes_of maps
    a support graph's bytes to its closed classes; a caller that passes one
    shares it with later calls."""
    n = tm.m.shape[-1]
    stack = tm.m.reshape(-1, n, n)
    v = _direct_or_nan(stack)
    direct = (_fixed_point_residual(v, stack) <= DIRECT_RESIDUAL_TOL) & (v.min(axis=1) >= -1e-9)
    reducible = []
    classes_of = {} if classes_of is None else classes_of  # chains often share a support
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


def zd_residual(g: GameSpec, pi_d: MemoryOneStrategy, pi_a: MemoryOneStrategy,
                alpha: float, beta: float, gamma: float) -> float:
    """|alpha * u_d + beta * u_a + gamma| at the long-run utilities."""
    u = long_run_utilities(g, pi_d, pi_a)
    return abs(alpha * u.u_d + beta * u.u_a + gamma)


def max_line_residual(g: GameSpec, pi_d: MemoryOneStrategy, alpha: float, beta: float,
                      gamma: float, n_samples: int, rng: np.random.Generator) -> float:
    """Max of |alpha * u_d + beta * u_a + gamma| against n_samples attackers
    whose rows are Dirichlet(1) draws from rng, in draw order.

    No transition enters a state (d, a) whose d the defender never plays, so
    its stationary mass is 0: each chain is solved on the len(played) * K
    states it can enter, in stacks of at most VERIFY_STACK_ENTRIES matrix
    entries (at least one chain).  The attackers' full rows are still drawn,
    so rng advances as if every state were kept.  The attacker rows are
    positive, so every chain has the support of the defender's kept rows,
    and its closed classes are found once per call, not once per stack."""
    if g.k != pi_d.k:
        raise ValueError(f"K mismatch: game {g.k}, strategy {pi_d.k}")
    k, n = g.k, g.k * g.k
    played = np.nonzero(pi_d.rows.max(axis=0) > 0)[0]
    keep = (played[:, None] * k + np.arange(k)).ravel()
    d_rows = pi_d.rows[np.ix_(keep, played)]
    sd = profit_vector(g, "defender")[keep]
    sa = profit_vector(g, "attacker")[keep]
    size = max(1, VERIFY_STACK_ENTRIES // len(keep)**2)
    worst, classes_of = 0.0, {}
    for start in range(0, n_samples, size):
        att = rng.dirichlet(np.ones(k), size=(min(size, n_samples - start), n))
        v = stationary(TransitionMatrix(k, chain(d_rows, att[:, keep])), classes_of).v
        worst = max(worst, float(np.max(np.abs(alpha * (v @ sd) + beta * (v @ sa) + gamma))))
    return worst
