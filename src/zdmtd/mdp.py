"""Attacker best response to a committed defender strategy, solved as an
average-reward MDP over the K^2 previous-action states.

Evaluation convention shared by every oracle in this module: attacker
policies are blended with the uniform distribution at the module epsilon
(deterministic rows would otherwise produce reducible chains), and the
defender's strategy is blended the same way only when it contains zero
entries.  Under this rule every induced chain is strictly positive, so the
direct stationary solve always applies and policy iteration and exhaustive
enumeration score policies identically.

The K <= 3 enumeration scores the K^(K^2) policies with one gather and one
stacked solve: each policy's direct system A = P^T - I (last row ones) is
read through a cached per-K flat index from a small table of the products
F[s, d] W[b, a], the diagonal products minus 1 and the constant 1.  Every
entry is the same floating-point operation as in `chain` and `_direct`, so
the values are bit-identical to solving the chain stack.

Only the policies that can reach the tie set are solved.  With Howard's gain
g*, bias h and Bellman gaps delta(s, b) = g* + h(s) - Q(s, b), every policy mu
with stationary vector pi_mu has the gain deficit
g* - g_mu = sum_s pi_mu(s) delta(s, mu(s)) (Puterman 1994, ch. 8).  Let
f_min(d) = min_s F[s, d], rho_mu the law of the attacker's last action and
delta+ = max(delta, 0):
  (i)  pi_mu(d, a) >= f_min(d) rho_mu(a), so the deficit is at least
       sum_a rho_mu(a) c_a with c_a = sum_d f_min(d) delta+((d, a), mu(d, a)),
       less the negative gaps max(0, -min delta);
  (ii) rho_mu(b) >= (1 - eps) sum_{mu(d, a) = b} f_min(d) rho_mu(a), so
       sum_a rho_mu(a) c_a is also at least sum_a rho_mu(a) l_a, with the
       leak l_a = (1 - eps) sum_{d: mu(d, a) != a} f_min(d) c_{mu(d, a)}.
Hence LB(mu) = max(min_a c_a, 1/2 min_a (c_a + l_a)).  A policy with LB(mu)
above TIE_TOL + max(0, -min delta) + 1e-6 max(1, |h|, |S_a|) (the last term
covers rounding in h, Q and the stationary solves) is neither the maximum
nor in the tie set; it is not solved and scores u_a = -inf.  The solved
stationary vectors are scattered into the full stack before the products
with the profit vectors, which BLAS rounds by a row's position in the stack,
so the chosen policy and its values are bit-identical to solving every
policy.
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
class BestResponse:
    policy: tuple  # 1-based target per flat state
    gain: float
    bias: np.ndarray
    policies_evaluated: int = None


def _effective_tables(g: GameSpec, pi_d: MemoryOneStrategy):
    """(F, W, R_eff, S_d, S_a): defender matrix (blended only if it has
    zeros), action mix W[a, a'] (probability of executing a' when the policy
    picks a), mixed rewards and profit vectors."""
    if g.k != pi_d.k:
        raise ValueError(f"K mismatch: game {g.k}, strategy {pi_d.k}")
    f = eps_mixed(pi_d).rows if np.min(pi_d.rows) <= 0.0 else pi_d.rows
    w = (1.0 - EPSILON_MIX) * np.eye(g.k) + EPSILON_MIX / g.k
    _, ua = g.payoff_matrices()
    r_eff = (f @ ua) @ w.T
    sd = profit_vector(g, "defender")
    sa = profit_vector(g, "attacker")
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
    return sol[n], sol[:n]


def best_response(g: GameSpec, pi_d: MemoryOneStrategy, tables=None) -> BestResponse:
    """Howard policy iteration for the average-reward optimum of the attacker
    MDP: states are flat previous-action pairs, and playing a from state s
    moves to flat(d, a') with probability F[s, d] W[a, a'] and pays
    R_eff[s, a].  `tables` are the caller's _effective_tables(g, pi_d), if
    it has them.

    Deterministic: ties in the improvement step go to the lowest action
    index, and a state switches action only on a strict Q improvement.
    """
    k, n = g.k, g.k * g.k
    f, w, r_eff, _, _ = tables or _effective_tables(g, pi_d)

    policy = np.argmax(r_eff, axis=1)
    seen = {tuple(policy)}
    for _ in range(n * k + 100):
        gain, h = _evaluate(f, w, r_eff, policy)
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


def _codes(k: int, length: int) -> np.ndarray:
    """All base-k codes of the given length in lexicographic order, one digit
    per column."""
    return (np.arange(k**length)[:, None] // k ** np.arange(length - 1, -1, -1)) % k


def _enumerate_policies(k: int) -> np.ndarray:
    """All deterministic policies in lexicographic order, 0-based actions."""
    return _codes(k, k * k)


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


def _policy_values_batch(g: GameSpec, pi_d: MemoryOneStrategy, tables=None, solve=None):
    """(pols, u_d, u_a) for every deterministic policy, evaluated like
    _policy_value; `tables` are the caller's _effective_tables(g, pi_d), if it
    has them.  One gather of the policies' direct systems and one stacked
    solve, bit-identical to `_direct(chain(F, W[pols]))`: each entry is the
    same product, minus 1 on the diagonal.  A boolean mask `solve` over the
    policies solves only those; the others score u_d = 0 and u_a = -inf."""
    f, w, _, sd, sa = tables or _effective_tables(g, pi_d)
    pols, idx = _policy_index(g.k)
    j = np.arange(g.k * g.k)
    prod = f[:, :, None, None] * w  # [s, d, b, a] = F[s, d] W[b, a]
    diag = prod[j, j // g.k, :, j % g.k] - 1.0  # [j, b] at s = j = flat(d, a)
    table = np.concatenate([prod.ravel(), diag.ravel(), [1.0]])
    if solve is None:
        v = _solve_direct(table[idx])
    else:  # scattered into the full stack: BLAS rounds a row by its position
        kept = np.flatnonzero(solve)
        v = np.zeros((len(pols), g.k * g.k))
        v[kept] = _solve_direct(table[idx[kept]])
    u_d, u_a = v @ sd, v @ sa
    if solve is not None:
        u_a[~solve] = -np.inf
    return pols, u_d, u_a


def _gap_tables(f, w, r_eff, sa, br: BestResponse):
    """(c, to, margin) of the gain-gap certificate at Howard's optimum br.

    Block a holds the K states (d, a); a block's action code x lists the
    policy's actions at d = 0..K-1.  c[a, x] = sum_d f_min(d) delta+((d, a), x_d)
    and to[x, b] = sum_{d: x_d = b} f_min(d), with delta the Bellman gaps at br;
    margin is the deficit up to which a policy must be solved."""
    k = w.shape[0]
    h = br.bias
    delta = br.gain + h[:, None] - (r_eff + f @ (h.reshape(k, k) @ w.T))
    scale = max(1.0, float(np.max(np.abs(h))), float(np.max(np.abs(sa))))
    margin = TIE_TOL + max(0.0, -float(np.min(delta))) + 1e-6 * scale
    f_min = f.min(axis=0)
    codes = _codes(k, k)  # [x, d]
    gaps = np.maximum(delta, 0.0).reshape(k, k, k)[np.arange(k), :, codes]  # [x, d, a]
    c = np.einsum("d,xda->ax", f_min, gaps)
    to = f_min @ (codes[:, :, None] == np.arange(k)).astype(float)  # [x, b]
    return c, to, margin


@functools.lru_cache(maxsize=None)
def _grid_order(k: int) -> np.ndarray:
    """Read-only flat grid index of every policy, in policy order: grid digit
    axis a K + d holds mu(d, a), policy digit s = flat(d, a) = d K + a."""
    n = k * k
    order = np.arange(k**n).reshape((k,) * n).transpose([(s % k) * k + s // k for s in range(n)])
    order = order.ravel()
    order.setflags(write=False)
    return order


def _deficit_bound(c, to) -> np.ndarray:
    """LB(mu) = max(min_a c_a, 1/2 min_a (c_a + l_a)) of every policy, in
    policy order, with c_a = c[a, x_a] and
    l_a = (1 - eps) sum_{b != a} to[x_a, b] c[b, x_b], where x_a is the
    policy's code on block a.  Computed on the grid of the K blocks' codes."""
    k, m = c.shape

    def along(v, a):  # v laid on grid axis a
        return v.reshape((1,) * a + (m,) + (1,) * (k - 1 - a))

    leak = (1.0 - EPSILON_MIX) * to
    cs = [along(c[a], a) for a in range(k)]
    direct = functools.reduce(np.minimum, cs)
    pooled = functools.reduce(np.minimum, [
        functools.reduce(np.add, [along(leak[:, b], a) * cs[b] for b in range(k) if b != a], cs[a])
        for a in range(k)])
    return np.maximum(direct, 0.5 * pooled).ravel()[_grid_order(k)]


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
    _, h = _evaluate(f, w, r_eff, pols[best])
    return BestResponse(policy, float(u_a[best]), h, policies_evaluated=len(pols))


def defender_utility_under_br(g: GameSpec, pi_d: MemoryOneStrategy):
    """Best response with the optimistic-follower tie rule: among attacker
    policies within TIE_TOL of the optimal gain, pick one maximizing the
    defender's utility.

    K <= 3 enumerates the policies exactly, solving only those the gain-gap
    certificate at Howard's optimum keeps (see the module docstring); the
    returned BestResponse counts them in policies_evaluated.  Above, the
    search starts from the best of K + 1 policies (the Howard optimum and
    the K constant ones) and, state by state, takes in action order each
    action that raises the defender's utility further while staying in the
    tie set, until a sweep changes nothing (a local optimum, not an
    exhaustive one); each state's K actions are scored by rank-one updates
    of one fundamental matrix, re-formed only after an accepted swap, whose
    (u_d, u_a) is then recorded from a direct solve.

    Returns ((u_d, u_a), BestResponse-of-the-chosen-policy).
    """
    tables = f, w, r_eff, sd, sa = _effective_tables(g, pi_d)
    br = best_response(g, pi_d, tables)
    n = g.k * g.k

    evaluated = None
    if g.k <= 3:
        c, to, margin = _gap_tables(f, w, r_eff, sa, br)
        # LB <= max(c) as sum_d f_min(d) <= 1; a NaN bound keeps its policy
        solve = ~(_deficit_bound(c, to) > margin) if np.max(c) > margin else None
        pols, u_d, u_a = _policy_values_batch(g, pi_d, tables, solve)
        evaluated = len(pols) if solve is None else int(np.count_nonzero(solve))
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

    _, h = _evaluate(f, w, r_eff, np.asarray(policy) - 1)
    chosen_br = BestResponse(policy, pair.u_a, h, evaluated)
    return pair, chosen_br
