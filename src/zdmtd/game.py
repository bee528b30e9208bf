"""Repeated security game over K targets: payoff tables, state indexing,
memory-one strategies and profit vectors.

State space is the K^2 previous-action profiles (i, j) with i the defender's
and j the attacker's last target, both 1-based.  The flat index is row-major:
flat(i, j) = (i-1)*K + (j-1), zero-based.  This ordering is fixed and shared
by every file format in the repo.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

PROB_TOL = 1e-12
MAX_PAYOFF = 1e100  # larger magnitudes overflow the hull and line algebra


def flat_index(k: int, i: int, j: int) -> int:
    """Zero-based flat state index of previous actions (i, j), 1-based."""
    if not (1 <= i <= k and 1 <= j <= k):
        raise IndexError(f"action pair ({i},{j}) out of range for K={k}")
    return (i - 1) * k + (j - 1)


def unflat(k: int, s: int) -> tuple[int, int]:
    """Inverse of flat_index: flat state -> 1-based (i, j)."""
    if not (0 <= s < k * k):
        raise IndexError(f"flat state {s} out of range for K={k}")
    return s // k + 1, s % k + 1


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
        if int(self.k) != self.k or self.k < 2:
            raise ValueError(f"K must be an integer >= 2, got {self.k!r}")
        object.__setattr__(self, "k", int(self.k))
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
        """K x K matrices U_d[d-1, a-1], U_a[d-1, a-1] of one-shot utilities."""
        ud = np.tile(self.u_d_unc, (self.k, 1))
        ua = np.tile(self.u_a_unc, (self.k, 1))
        idx = np.arange(self.k)
        ud[idx, idx] = self.u_d_cov
        ua[idx, idx] = self.u_a_cov
        return ud, ua


def profit_vector(g: GameSpec, player: str) -> np.ndarray:
    """Read-only length-K^2 profit vector over flat states: entry at (i, j) is
    the player's covered profit of j if i == j, else the uncovered one."""
    if player == "defender":
        cov, unc = g.u_d_cov, g.u_d_unc
    elif player == "attacker":
        cov, unc = g.u_a_cov, g.u_a_unc
    else:
        raise ValueError(f"player must be 'defender' or 'attacker', got {player!r}")
    entries = np.tile(unc, g.k)
    for t in range(g.k):
        entries[flat_index(g.k, t + 1, t + 1)] = cov[t]
    entries.setflags(write=False)
    return entries


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
        if np.min(rows) < -PROB_TOL or np.max(rows) > 1 + PROB_TOL:
            raise ValueError("strategy entries must lie in [0, 1]")
        defects = np.abs(rows.sum(axis=1) - 1.0)
        if np.max(defects) > PROB_TOL:
            raise ValueError(
                f"strategy rows must sum to 1 (max defect {np.max(defects):.3e})"
            )
        rows = rows.copy()
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)

    def column(self, target: int) -> np.ndarray:
        """Probability of playing `target` in each flat state (length K^2)."""
        return self.rows[:, target - 1].copy()


def uniform_strategy(k: int) -> MemoryOneStrategy:
    return MemoryOneStrategy(k, np.full((k * k, k), 1.0 / k))


def pure_strategy(k: int, target: int) -> MemoryOneStrategy:
    """Always play `target` regardless of state."""
    rows = np.zeros((k * k, k))
    rows[:, target - 1] = 1.0
    return MemoryOneStrategy(k, rows)


def repeat_strategy(k: int) -> MemoryOneStrategy:
    """Always repeat one's own previous action."""
    rows = np.zeros((k * k, k))
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            rows[flat_index(k, i, j), i - 1] = 1.0
    return MemoryOneStrategy(k, rows)


def random_strategy(k: int, rng: np.random.Generator) -> MemoryOneStrategy:
    rows = rng.dirichlet(np.ones(k), size=k * k)
    return MemoryOneStrategy(k, rows)


@dataclass(frozen=True)
class CanonicalPermutation:
    """Relabeling of targets: perm[t-1] is the canonical label of original
    target t (1-based both sides).  Canonical label 1 carries the largest
    covered defender profit, ties broken by smallest original index."""

    perm: tuple
    inverse: tuple = field(default=None)

    def __post_init__(self):
        perm = tuple(int(p) for p in self.perm)
        k = len(perm)
        if sorted(perm) != list(range(1, k + 1)):
            raise ValueError(f"perm must be a bijection on 1..{k}, got {perm}")
        inv = [0] * k
        for orig, canon in enumerate(perm, start=1):
            inv[canon - 1] = orig
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "inverse", tuple(inv))

    @property
    def k(self) -> int:
        return len(self.perm)

    def is_identity(self) -> bool:
        return self.perm == tuple(range(1, self.k + 1))

    def _gather(self, source_of_canon: tuple) -> np.ndarray:
        return np.array([s - 1 for s in source_of_canon])

    def apply_game(self, g: GameSpec) -> GameSpec:
        """Relabel a game into canonical labels."""
        src = self._gather(self.inverse)
        return GameSpec(
            g.k,
            g.u_d_cov[src],
            g.u_d_unc[src],
            g.u_a_cov[src],
            g.u_a_unc[src],
        )

    def invert_game(self, g: GameSpec) -> GameSpec:
        src = self._gather(self.perm)
        return GameSpec(
            g.k,
            g.u_d_cov[src],
            g.u_d_unc[src],
            g.u_a_cov[src],
            g.u_a_unc[src],
        )

    def _permute_rows(self, rows: np.ndarray, label_of_new: tuple) -> np.ndarray:
        """Simultaneously relabel states and actions of a K^2 x K table."""
        k = self.k
        act = self._gather(label_of_new)
        state = np.empty(k * k, dtype=int)
        for i in range(1, k + 1):
            for j in range(1, k + 1):
                state[flat_index(k, i, j)] = flat_index(
                    k, label_of_new[i - 1], label_of_new[j - 1]
                )
        return rows[state][:, act]

    def apply_strategy(self, s: MemoryOneStrategy) -> MemoryOneStrategy:
        """Relabel a strategy from original into canonical labels."""
        return MemoryOneStrategy(s.k, self._permute_rows(s.rows, self.inverse))

    def invert_strategy(self, s: MemoryOneStrategy) -> MemoryOneStrategy:
        """Relabel a strategy from canonical back into original labels."""
        return MemoryOneStrategy(s.k, self._permute_rows(s.rows, self.perm))

    def apply_profit(self, p: np.ndarray) -> np.ndarray:
        """Relabel a profit vector from original into canonical labels."""
        k = self.k
        out = np.empty(k * k)
        for i in range(1, k + 1):
            for j in range(1, k + 1):
                out[flat_index(k, self.perm[i - 1], self.perm[j - 1])] = p[flat_index(k, i, j)]
        return out

    def invert_phi(self, phi: np.ndarray) -> np.ndarray:
        """Map per-canonical-label multipliers back to original labels."""
        out = np.empty(self.k)
        for orig in range(1, self.k + 1):
            out[orig - 1] = phi[self.perm[orig - 1] - 1]
        return out

    def compose(self, other: "CanonicalPermutation") -> "CanonicalPermutation":
        """Permutation applying self first, then other (original -> final)."""
        return CanonicalPermutation(
            tuple(other.perm[self.perm[t] - 1] for t in range(self.k))
        )


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
    return GameSpec(obj["k"], obj["u_d_cov"], obj["u_d_unc"], obj["u_a_cov"], obj["u_a_unc"])


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
