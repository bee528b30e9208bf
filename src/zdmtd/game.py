"""Repeated security game over K targets: payoff tables, state indexing,
memory-one strategies and profit vectors.

State space is the K^2 previous-action profiles (i, j) with i the defender's
and j the attacker's last target, both 1-based.  The flat index is row-major:
flat(i, j) = (i-1)*K + (j-1), zero-based.  This ordering is fixed and shared
by every file format in the repo.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

PROB_TOL = 1e-12
MAX_PAYOFF = 1e100  # larger magnitudes overflow the hull and line algebra


def require_number(value, name: str, integer: bool = False) -> None:
    """Raise ValueError unless `value` is a finite real number (an integer
    when `integer` is set); bool is neither, so a JSON true is rejected too,
    and so are the NaN and Infinity that Python's json parses."""
    kind = numbers.Integral if integer else numbers.Real
    if isinstance(value, bool) or not isinstance(value, kind):
        what = "an integer" if integer else "a number"
        raise ValueError(f"{name} must be {what}, got {value!r}")
    if not -math.inf < value < math.inf:
        raise ValueError(f"{name} must be finite, got {value!r}")


def require_numbers(value, name: str) -> np.ndarray:
    """`value` as a float array, after a ValueError unless every entry of its
    (nested) lists is a finite real number: a JSON string, object, bool or
    null inside an array is rejected, not converted to a float or to NaN."""
    pending = [value]
    while pending:
        x = pending.pop()
        if isinstance(x, (list, tuple)):
            pending.extend(x)
        elif not isinstance(x, (float, np.ndarray)):  # a float's finiteness is checked below
            require_number(x, f"each entry of {name}")
    v = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite entries")
    return v


def flat_index(k: int, i: int, j: int) -> int:
    """Zero-based flat state index of previous actions (i, j), 1-based."""
    if not (1 <= i <= k and 1 <= j <= k):
        raise IndexError(f"action pair ({i},{j}) out of range for K={k}")
    return (i - 1) * k + (j - 1)


def _as_vector(x, k: int, name: str) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.shape != (k,):
        raise ValueError(f"{name} must have length {k}, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite entries")
    if np.max(np.abs(v)) > MAX_PAYOFF:
        raise ValueError(f"{name} has an entry of magnitude above {MAX_PAYOFF:.0e}")
    v = v.copy()
    v.setflags(write=False)
    return v


@dataclass(frozen=True)
class GameSpec:
    """Per-target payoff tables of the one-shot security game.

    u_d_cov[k]/u_d_unc[k] are the defender's profits when the attacked
    target k is covered/uncovered; u_a_cov/u_a_unc likewise for the
    attacker.  Covered defender profit must strictly exceed uncovered
    (the defender has an incentive to protect), and no payoff may exceed
    1e100 in magnitude; both are checked at construction.
    """

    k: int
    u_d_cov: np.ndarray
    u_d_unc: np.ndarray
    u_a_cov: np.ndarray
    u_a_unc: np.ndarray

    def __post_init__(self):
        k = self.k  # a JSON null, array, object, bool or 1e400 (inf) is no integer
        if (isinstance(k, bool) or not isinstance(k, numbers.Real) or not -math.inf < k < math.inf
                or int(k) != k or k < 2):
            raise ValueError(f"K must be an integer >= 2, got {k!r}")
        object.__setattr__(self, "k", int(k))
        for name in ("u_d_cov", "u_d_unc", "u_a_cov", "u_a_unc"):
            object.__setattr__(self, name, _as_vector(getattr(self, name), self.k, name))
        bad = np.nonzero(self.u_d_cov <= self.u_d_unc)[0]
        if bad.size:
            raise ValueError(
                f"covered defender profit must exceed uncovered at every target; "
                f"violated at target(s) {[int(b) + 1 for b in bad]}"
            )

    def one_shot(self, d: int, a: int) -> tuple[float, float]:
        """One-shot utilities (u_d, u_a) for defender action d, attacker action a."""
        if not (1 <= d <= self.k and 1 <= a <= self.k):
            raise IndexError(f"action pair ({d},{a}) out of range for K={self.k}")
        if d == a:
            return float(self.u_d_cov[a - 1]), float(self.u_a_cov[a - 1])
        return float(self.u_d_unc[a - 1]), float(self.u_a_unc[a - 1])

    def payoff_matrices(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only K x K matrices U_d[d-1, a-1], U_a[d-1, a-1] of one-shot
        utilities, views of the game's profit vectors."""
        return tuple(self._profits[p].reshape(self.k, self.k) for p in ("defender", "attacker"))

    @cached_property
    def _profits(self) -> dict:
        """Read-only profit vectors by player, built on the first call and
        kept with the game (a relabeled or replaced game is a new object
        with its own): entry flat(i, j) is the player's one-shot utility
        when the defender plays i and the attacker j."""
        vectors = {}
        for player, cov, unc in (("defender", self.u_d_cov, self.u_d_unc),
                                 ("attacker", self.u_a_cov, self.u_a_unc)):
            u = np.tile(unc, self.k)
            u[:: self.k + 1] = cov  # flat(t, t)
            u.setflags(write=False)
            vectors[player] = u
        return vectors


def profit_vector(g: GameSpec, player: str) -> np.ndarray:
    """Read-only length-K^2 profit vector over flat states: entry at (i, j) is
    the player's covered profit of j if i == j, else the uncovered one.
    Repeated calls on one game return the same array."""
    if player not in ("defender", "attacker"):
        raise ValueError(f"player must be 'defender' or 'attacker', got {player!r}")
    return g._profits[player]


def hat_indicator(k: int, target: int) -> np.ndarray:
    """Block indicator over flat states: 1 where the previous defender action
    equals `target`, else 0 (a K-long ones block at block position target)."""
    if not 1 <= target <= k:
        raise IndexError(f"target {target} out of range for K={k}")
    v = np.zeros(k * k)
    v[(target - 1) * k : target * k] = 1.0
    return v


@dataclass(frozen=True)
class MemoryOneStrategy:
    """Row-stochastic K^2 x K conditional distribution: rows[s][t] is the
    probability of playing target t+1 from flat state s."""

    k: int
    rows: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        if rows.shape != (self.k * self.k, self.k):
            raise ValueError(
                f"strategy must be {self.k * self.k} x {self.k}, got shape {rows.shape}"
            )
        # written so that a NaN fails the checks: every comparison with it is False
        if not (np.min(rows) >= -PROB_TOL and np.max(rows) <= 1 + PROB_TOL):
            raise ValueError("strategy entries must be finite and lie in [0, 1]")
        defects = np.abs(rows.sum(axis=1) - 1.0)
        if not np.max(defects) <= PROB_TOL:
            raise ValueError(
                f"strategy rows must sum to 1 (max defect {np.max(defects):.3e})"
            )
        rows = rows.copy()
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)


def repeat_strategy(k: int) -> MemoryOneStrategy:
    """Always repeat one's own previous action."""
    rows = np.zeros((k * k, k))
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            rows[flat_index(k, i, j), i - 1] = 1.0
    return MemoryOneStrategy(k, rows)


@dataclass(frozen=True)
class CanonicalPermutation:
    """Relabeling of targets: perm[t-1] is the new label of original target t
    (1-based both sides).  The relabeling back is the one built from
    `inverse`."""

    perm: tuple
    inverse: tuple = field(init=False)  # inverse[c-1]: original target of label c

    def __post_init__(self):
        perm = tuple(int(p) for p in self.perm)
        if sorted(perm) != list(range(1, len(perm) + 1)):
            raise ValueError(f"perm must be a bijection on 1..{len(perm)}, got {perm}")
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "inverse", tuple(int(t) + 1 for t in np.argsort(perm)))

    def is_identity(self) -> bool:
        return self.perm == tuple(range(1, len(self.perm) + 1))

    def apply_game(self, g: GameSpec) -> GameSpec:
        """Relabel a game into the new labels."""
        src = np.array(self.inverse) - 1
        return GameSpec(g.k, g.u_d_cov[src], g.u_d_unc[src], g.u_a_cov[src], g.u_a_unc[src])

    def invert_strategy(self, s: MemoryOneStrategy) -> MemoryOneStrategy:
        """Relabel a strategy's states and actions from the new labels back
        into the original ones."""
        p = np.array(self.perm) - 1
        return MemoryOneStrategy(s.k, s.rows[(p[:, None] * s.k + p).ravel()][:, p])

    def invert_phi(self, phi: np.ndarray) -> np.ndarray:
        """Map per-new-label multipliers back to original labels."""
        return phi[np.array(self.perm) - 1]


def canonicalize(g: GameSpec) -> tuple[GameSpec, CanonicalPermutation]:
    """Relabel targets so u_d_cov is non-increasing (stable ties by original
    index); label 1 then carries the maximum covered defender profit."""
    order = sorted(range(g.k), key=lambda t: (-g.u_d_cov[t], t))
    perm = [0] * g.k
    for canon, orig in enumerate(order, start=1):
        perm[orig] = canon
    cp = CanonicalPermutation(tuple(perm))
    return cp.apply_game(g), cp


def relabeling(k: int, role1: int, role_k: int) -> CanonicalPermutation:
    """Permutation sending target role1 -> label 1 and role_k -> label K,
    remaining targets keeping their relative order in between."""
    if role1 == role_k:
        raise ValueError("role1 and role_k must differ")
    middle = [t for t in range(1, k + 1) if t not in (role1, role_k)]
    order = [role1] + middle + [role_k]
    perm = [0] * k
    for canon, orig in enumerate(order, start=1):
        perm[orig - 1] = canon
    return CanonicalPermutation(tuple(perm))


GAME_JSON_KEYS = ("k", "u_d_cov", "u_d_unc", "u_a_cov", "u_a_unc")


def game_from_dict(obj: dict) -> GameSpec:
    """Strict game schema: exactly the five keys, vector lengths equal to k."""
    if not isinstance(obj, dict):
        raise ValueError("game JSON must be an object")
    unknown = set(obj) - set(GAME_JSON_KEYS)
    if unknown:
        raise ValueError(f"unknown keys in game JSON: {sorted(unknown)}")
    missing = set(GAME_JSON_KEYS) - set(obj)
    if missing:
        raise ValueError(f"missing keys in game JSON: {sorted(missing)}")
    return GameSpec(obj["k"], *(require_numbers(obj[key], key) for key in GAME_JSON_KEYS[1:]))


def game_to_dict(g: GameSpec) -> dict:
    return {
        "k": g.k,
        "u_d_cov": g.u_d_cov.tolist(),
        "u_d_unc": g.u_d_unc.tolist(),
        "u_a_cov": g.u_a_cov.tolist(),
        "u_a_unc": g.u_a_unc.tolist(),
    }


def load_game(path) -> GameSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return game_from_dict(json.load(fh))
