"""Attacker best response to a committed defender strategy, solved as an
average-reward MDP over the K^2 previous-action states.

Evaluation convention shared by every oracle in this module: attacker
policies are blended with the uniform distribution at the module epsilon
(deterministic rows would otherwise produce reducible chains), and the
defender's strategy is blended the same way only when it contains zero
entries.  Under this rule every induced chain is strictly positive, so the
direct stationary solve always applies and policy iteration and exhaustive
enumeration score policies identically.

The K <= 3 enumeration scores all K^(K^2) policies with one gather and one
stacked solve: each policy's direct system A = P^T - I (last row ones) is
read through a cached per-K flat index from a small table of the products
F[s, d] W[b, a], the diagonal products minus 1 and the constant 1.  Every
entry is the same floating-point operation as in `chain` and `_direct`, so
the values are bit-identical to solving the chain stack.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .game import GameSpec, MemoryOneStrategy, profit_vector
from .markov import EPSILON_MIX, UtilityPair, _direct, _solve_direct, chain, eps_mixed

TIE_TOL = 1e-9
_SWITCH_TOL = 1e-12


class PolicyIterationCycleError(RuntimeError):
    """Policy iteration revisited a policy without improving."""


@dataclass(frozen=True)
class AttackerMdp:
    """States are flat previous-action pairs; playing a from state s moves to
    flat(d, a) with probability pi_d(d|s) and pays sum_d pi_d(d|s) u_a(d, a)."""

    g: GameSpec
    pi_d: MemoryOneStrategy
    rewards: np.ndarray  # K^2 x K

    @property
    def k(self) -> int:
        return self.g.k


@dataclass(frozen=True)
class BestResponse:
    policy: tuple  # 1-based target per flat state
    gain: float
    bias: np.ndarray
    policies_evaluated: int = None


def build_attacker_mdp(g: GameSpec, pi_d: MemoryOneStrategy) -> AttackerMdp:
    if g.k != pi_d.k:
        raise ValueError(f"K mismatch: game {g.k}, strategy {pi_d.k}")
    _, ua = g.payoff_matrices()
    return AttackerMdp(g, pi_d, pi_d.rows @ ua)


def _effective_tables(g: GameSpec, pi_d: MemoryOneStrategy):
    """(F, W, R_eff, S_d, S_a): defender matrix (blended only if it has
    zeros), action mix W[a, a'] (probability of executing a' when the policy
    picks a), mixed rewards and profit vectors."""
    f = eps_mixed(pi_d).rows if np.min(pi_d.rows) <= 0.0 else pi_d.rows
    w = (1.0 - EPSILON_MIX) * np.eye(g.k) + EPSILON_MIX / g.k
    _, ua = g.payoff_matrices()
    r_eff = (f @ ua) @ w.T
    sd = profit_vector(g, "defender").entries
    sa = profit_vector(g, "attacker").entries
    return f, w, r_eff, sd, sa


def _chain_values(f, w, sd, sa, policy_idx) -> tuple[float, float]:
    """(u_d, u_a) of a 0-based deterministic policy on prebuilt tables."""
    v = _direct(chain(f, w[policy_idx]))
    return float(v @ sd), float(v @ sa)


def _policy_value(g: GameSpec, pi_d: MemoryOneStrategy, policy) -> tuple[float, float]:
    """(u_d, u_a) of the deterministic attacker policy under the shared
    evaluation convention."""
    f, w, _, sd, sa = _effective_tables(g, pi_d)
    return _chain_values(f, w, sd, sa, np.asarray(policy, dtype=int) - 1)


def _fundamental(f, w, sd, sa, policy_idx):
    """(Z, v, Z S_d, Z S_a) of a 0-based policy's chain P, where
    Z = (I - P + 1c^T)^-1 with c uniform and v = cZ is the stationary vector."""
    n = f.shape[0]
    a = np.eye(n) - chain(f, w[policy_idx]) + 1.0 / n
    z = np.linalg.solve(a, np.eye(n))
    return z, z.mean(axis=0), z @ sd, z @ sa


def _swap_values(f, w, fund, policy_idx, s):
    """(u_d, u_a) arrays over every action at state s, the rest of the policy
    fixed, from the policy's fundamental matrix in O(K^2).

    Moving s from action a0 to a changes row s of the chain by
    delta = F[s] (x) (W[a] - W[a0]); the stationary vector becomes
    v + v'_s delta Z with v'_s = v_s / (1 - (delta Z)_s).
    """
    z, v, zsd, zsa = fund
    k = w.shape[0]
    x = np.stack([zsd, zsa, z[:, s]], axis=1).reshape(k, 3 * k)  # [d, (a, j)]
    y = w @ (f[s] @ x).reshape(k, 3)  # y[a, j] = (F[s] (x) W[a]) . x_j
    dy = y - y[policy_idx[s]]
    vs = v[s] / (1.0 - dy[:, 2])
    return zsd.mean() + vs * dy[:, 0], zsa.mean() + vs * dy[:, 1]


def _evaluate(f, w, r_eff, policy_idx):
    """Gain and bias (h[0] = 0) of a policy on the effective MDP."""
    n = f.shape[0]
    p = chain(f, w[policy_idx])
    r = r_eff[np.arange(n), policy_idx]
    a = np.zeros((n + 1, n + 1))
    a[:n, :n] = np.eye(n) - p
    a[:n, n] = 1.0
    a[n, 0] = 1.0
    b = np.zeros(n + 1)
    b[:n] = r
    sol = np.linalg.solve(a, b)
    return sol[n], sol[:n], p


def best_response(mdp: AttackerMdp) -> BestResponse:
    """Howard policy iteration for the average-reward optimum.

    Deterministic: ties in the improvement step go to the lowest action
    index, and a state switches action only on a strict Q improvement.
    """
    g, pi_d = mdp.g, mdp.pi_d
    k, n = g.k, g.k * g.k
    f, w, r_eff, _, _ = _effective_tables(g, pi_d)

    policy = np.argmax(r_eff, axis=1)
    seen = {tuple(policy)}
    for _ in range(n * k + 100):
        gain, h, _ = _evaluate(f, w, r_eff, policy)
        # Q(s, a) = R_eff(s, a) + sum_d F[s, d] * sum_a' W[a, a'] h[flat(d, a')]
        q = r_eff + f @ (h.reshape(k, k) @ w.T)
        best = np.argmax(q, axis=1)
        cur = q[np.arange(n), policy]
        switch = q[np.arange(n), best] > cur + _SWITCH_TOL
        if not np.any(switch):
            return BestResponse(tuple(int(a) + 1 for a in policy), float(gain), h)
        policy = np.where(switch, best, policy)
        key = tuple(policy)
        if key in seen:
            raise PolicyIterationCycleError(
                "policy iteration revisited a policy; lexicographic tie-breaking "
                "did not resolve the cycle"
            )
        seen.add(key)
    raise PolicyIterationCycleError("policy iteration exceeded its iteration budget")


def _enumerate_policies(k: int) -> np.ndarray:
    """All deterministic policies in lexicographic order, 0-based actions."""
    n = k * k
    count = k**n
    states = np.arange(n)
    p = np.arange(count)[:, None]
    return (p // (k ** (n - 1 - states))) % k


@functools.lru_cache(maxsize=None)
def _policy_index(k: int):
    """(pols, idx), read-only: every policy, and the flat index into the value
    table of _policy_values_batch with A[p] = table[idx[p]] the direct system
    of policy p.  Row j = flat(d, a), column s of A holds F[s, d] W[pols[p, s], a]
    at ((s K + d) K + pols[p, s]) K + a, its diagonal product minus 1 at
    K^5 + s K + pols[p, s], and the last row the constant 1 at K^5 + K^3."""
    pols = _enumerate_policies(k)
    n, k5 = k * k, k**5
    j, s = np.arange(n)[:, None], np.arange(n)[None, :]
    base = np.where(j == s, k5 + s * k, (s * k + j // k) * k * k + j % k)
    step = np.where(j == s, 1, k)
    base[-1], step[-1] = k5 + k * n, 0
    idx = base + step * pols[:, None, :]
    pols.setflags(write=False)
    idx.setflags(write=False)
    return pols, idx


def _policy_values_batch(g: GameSpec, pi_d: MemoryOneStrategy, tables=None):
    """(pols, u_d, u_a) for every deterministic policy, evaluated like
    _policy_value; `tables` are the caller's _effective_tables(g, pi_d), if it
    has them.  One gather of the policies' direct systems and one stacked
    solve, bit-identical to `_direct(chain(F, W[pols]))`: each entry is the
    same product, minus 1 on the diagonal."""
    f, w, _, sd, sa = tables or _effective_tables(g, pi_d)
    pols, idx = _policy_index(g.k)
    j = np.arange(g.k * g.k)
    prod = f[:, :, None, None] * w  # [s, d, b, a] = F[s, d] W[b, a]
    diag = prod[j, j // g.k, :, j % g.k] - 1.0  # [j, b] at s = j = flat(d, a)
    v = _solve_direct(np.concatenate([prod.ravel(), diag.ravel(), [1.0]])[idx])
    return pols, v @ sd, v @ sa


def exhaustive_br(g: GameSpec, pi_d: MemoryOneStrategy) -> BestResponse:
    """Oracle: enumerate all K^(K^2) deterministic memory-one policies and
    return the maximizer of the attacker's long-run utility (ties go to the
    lexicographically smallest policy)."""
    if g.k > 3:
        raise ValueError(f"exhaustive enumeration guarded to K <= 3, got K={g.k}")
    tables = f, w, r_eff, _, _ = _effective_tables(g, pi_d)
    pols, _, u_a = _policy_values_batch(g, pi_d, tables)
    best = int(np.argmax(u_a))
    policy = tuple(int(x) + 1 for x in pols[best])
    _, h, _ = _evaluate(f, w, r_eff, pols[best])
    return BestResponse(policy, float(u_a[best]), h, policies_evaluated=len(pols))


def defender_utility_under_br(g: GameSpec, pi_d: MemoryOneStrategy):
    """Best response with the optimistic-follower tie rule: among attacker
    policies within TIE_TOL of the optimal gain, pick one maximizing the
    defender's utility.

    K <= 3 enumerates every policy exactly.  Above, the search starts from
    the best of K + 1 policies (the Howard optimum and the K constant ones)
    and, state by state, takes in action order each action that raises the
    defender's utility further while staying in the tie set, until a sweep
    changes nothing (a local optimum, not an exhaustive one); each
    state's K actions are scored by rank-one updates of one fundamental
    matrix, re-formed only after an accepted swap, whose (u_d, u_a) is then
    recorded from a direct solve.

    Returns ((u_d, u_a), BestResponse-of-the-chosen-policy).
    """
    br = best_response(build_attacker_mdp(g, pi_d))
    n = g.k * g.k
    tables = f, w, r_eff, sd, sa = _effective_tables(g, pi_d)

    if g.k <= 3:
        pols, u_d, u_a = _policy_values_batch(g, pi_d, tables)
        tie = np.nonzero(u_a >= np.max(u_a) - TIE_TOL)[0]
        chosen = tie[int(np.argmax(u_d[tie]))]
        policy = tuple(int(x) + 1 for x in pols[chosen])
        pair = UtilityPair(float(u_d[chosen]), float(u_a[chosen]))
    else:
        floor = br.gain - TIE_TOL
        candidates = [np.asarray(br.policy, dtype=int) - 1]
        candidates += [np.full(n, m, dtype=int) for m in range(g.k)]
        pol, best_pair = None, None
        for cand in candidates:
            ud, ua = _chain_values(f, w, sd, sa, cand)
            if ua < floor:
                continue
            if best_pair is None or ud > best_pair[0] + _SWITCH_TOL:
                pol, best_pair = cand.copy(), (ud, ua)
        fund = _fundamental(f, w, sd, sa, pol)
        improved = True
        guard = 0
        while improved and guard < 50:
            improved = False
            guard += 1
            for s in range(n):
                ud, ua = _swap_values(f, w, fund, pol, s)
                orig = pol[s]
                for a in range(g.k):
                    if a != orig and ua[a] >= floor and ud[a] > best_pair[0] + _SWITCH_TOL:
                        best_pair = (ud[a], ua[a])
                        orig = a
                if orig != pol[s]:
                    pol[s] = orig
                    best_pair = _chain_values(f, w, sd, sa, pol)
                    fund = _fundamental(f, w, sd, sa, pol)
                    improved = True
        policy = tuple(int(x) + 1 for x in pol)
        pair = UtilityPair(*best_pair)

    _, h, _ = _evaluate(f, w, r_eff, np.asarray(policy) - 1)
    chosen_br = BestResponse(policy, pair.u_a, h, br.policies_evaluated)
    return pair, chosen_br
