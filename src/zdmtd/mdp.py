"""Attacker best response to a committed defender strategy, solved as an
average-reward MDP over the K^2 previous-action states.

Evaluation convention shared by every oracle in this module: attacker
policies are blended with the uniform distribution at the module epsilon
(deterministic rows would otherwise produce reducible chains), and the
defender's strategy is blended the same way only when it contains zero
entries.  Under this rule every induced chain is strictly positive, so the
direct stationary solve always applies.  Policy iteration, the swap search
and the K <= 3 enumeration solve a policy's chain by different methods, so
they agree only to rounding.

The K <= 3 enumeration takes every policy's (u_d, u_a) from one GTH state
reduction shared by all K^(K^2) policies (`_screen_values`) and applies the
tie rule to those values directly; no chain is solved per policy.  The
reduction subtracts nothing but the rows' rounding defects, so it stays
accurate on the nearly decomposable chains that blended deterministic
attackers make, where a direct solve can be off by more than TIE_TOL.
Its tables live in two scratch arrays kept per (n, K) for the life of the
process (`_scratch`; 2 x 78,732 doubles at K = 3): a fresh array per
censoring step cost 2,400 to 3,500 minor page faults per K = 3 `compare`
command, each step's pages handed back to the system and faulted in
again.  The package assumes one thread: two concurrent K <= 3
calls would share those arrays.  The action mix W is likewise built once
per K, and a game's profit vectors once per game (`game.profit_vector`).

Above K = 3 the swap search starts from Howard's policy, its pair read
from the fundamental matrix the search needs anyway, unless a constant
policy beats it; the K constant policies are scored together on lumped
K-state chains (`_start`, `_constant_values`).  It scores single-state
swaps by rank-one updates of the policy's fundamental matrix, every state
left in a sweep in one array pass (`_swap_values`; from K = 13 up, in
passes of a bounded size), and carries the matrix through each accepted
swap by the same rank-one identity (`_accept_swap`), re-forming it only
where the update's pivot is small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .game import GameSpec, MemoryOneStrategy, profit_vector
from .markov import EPSILON_MIX, UtilityPair, _direct, _direct_offdiag, chain, eps_mixed

TIE_TOL = 1e-9
_SWITCH_TOL = 1e-12
# entries of the (states, K^2, 3) array one swap-scoring pass builds.  A
# pass costs about 20 us plus 2-3 ns per entry, so the fixed part is about a
# tenth at this size; from K = 13 up a pass holds fewer than K^2 states, and
# an accepted swap discards at most one pass's rows
_SWAP_PASS_ENTRIES = 2**16
# an accepted swap's rank-one update of Z has a rounding error of about
# eps ||Z|| / |1 - (delta Z)_s|.  The pivot is of order 1 on the swaps the
# search accepts (at least 0.49 over 232 of them at K = 4..10), but a swap
# that closes a rarely entered class around s under a ZD strategy's floor
# entries can bring it to ~1e-8; below this floor, where the update would
# lose three digits or more, Z and the pair are re-formed by direct solves
_PIVOT_FLOOR = 1e-3


class PolicyIterationCycleError(RuntimeError):
    """Policy iteration revisited a policy without improving."""


@dataclass(frozen=True)
class BestResponse:
    policy: tuple  # 1-based target per flat state
    gain: float
    bias: np.ndarray


def _effective_tables(g: GameSpec, pi_d: MemoryOneStrategy):
    """(F, W, R_eff, S_d, S_a): defender matrix (blended only if it has
    zeros), action mix W[a, a'] (probability of executing a' when the policy
    picks a), mixed rewards and profit vectors."""
    if g.k != pi_d.k:
        raise ValueError(f"K mismatch: game {g.k}, strategy {pi_d.k}")
    f = eps_mixed(pi_d).rows if np.min(pi_d.rows) <= 0.0 else pi_d.rows
    w = _action_mix(g.k)
    _, ua = g.payoff_matrices()
    r_eff = (f @ ua) @ w.T
    return f, w, r_eff, profit_vector(g, "defender"), profit_vector(g, "attacker")


@cache
def _action_mix(k: int) -> np.ndarray:
    """Read-only W[a, a']: the probability of executing a' when the
    policy picks a, the pick blended with the uniform at EPSILON_MIX."""
    w = (1.0 - EPSILON_MIX) * np.eye(k) + EPSILON_MIX / k
    w.setflags(write=False)
    return w


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
    """(Z, v, Z S_d, Z S_a, mean Z S_d, mean Z S_a) of a 0-based policy's
    chain P, where Z = (I - P + 1c^T)^-1 with c uniform and v = cZ is the
    stationary vector; the two means are the policy's (u_d, u_a)."""
    n = f.shape[0]
    a = np.eye(n) - chain(f, w[policy_idx]) + 1.0 / n
    return _with_means(np.linalg.solve(a, np.eye(n)), sd, sa)


def _with_means(z, sd, sa):
    """The fundamental tuple of `_fundamental` built from Z."""
    n = z.shape[0]
    zsd, zsa = z @ sd, z @ sa
    # sum / n is the arithmetic of ndarray.mean, without its wrapper
    return z, z.sum(axis=0) / n, zsd, zsa, zsd.sum() / n, zsa.sum() / n


def _accept_swap(f, w, sd, sa, fund, policy_idx, s, a):
    """Move state s of `policy_idx` (in place) from its action a0 to action
    a and return the new policy's fundamental tuple and (u_d, u_a).  Row s
    of the chain changes by delta = F[s] (x) (W[a] - W[a0]), so
    Sherman-Morrison gives Z' = Z + (Z e_s)(delta Z) / (1 - (delta Z)_s) in
    O(K^4), and the pair is the means of Z' S_d and Z' S_a.  Below
    _PIVOT_FLOOR both are re-formed by direct solves instead."""
    z = fund[0]
    dz = np.outer(f[s], w[a] - w[policy_idx[s]]).ravel() @ z
    pivot = 1.0 - dz[s]
    policy_idx[s] = a
    if abs(pivot) < _PIVOT_FLOOR:
        return _fundamental(f, w, sd, sa, policy_idx), _chain_values(f, w, sd, sa, policy_idx)
    fund = _with_means(z + np.outer(z[:, s], dz / pivot), sd, sa)
    return fund, (float(fund[4]), float(fund[5]))


def _swap_values(f, w, fund, policy_idx, states):
    """(u_d, u_a) arrays [state, action] over every action at each of
    `states`, the rest of the policy fixed, from the policy's fundamental
    matrix in O(K^2) per state, all states in one array pass.

    Moving s from action a0 to a changes row s of the chain by
    delta = F[s] (x) (W[a] - W[a0]); the stationary vector becomes
    v + v'_s delta Z with v'_s = v_s / (1 - (delta Z)_s).  Each state keeps
    its own (K, 3K) and (K, K) @ (K, 3) products, so a row is the same, bit
    for bit, whichever other states are scored with it.
    """
    z, v, zsd, zsa, ud, ua = fund
    k, m = w.shape[0], len(states)
    x = np.empty((m, z.shape[0], 3))
    x[:, :, 0], x[:, :, 1], x[:, :, 2] = zsd, zsa, z[:, states].T
    # x[i] laid out [d, (a, j)]; y[i, a, j] = (F[s_i] (x) W[a]) . x[i, :, j]
    y = w @ (f[states, None, :] @ x.reshape(m, k, 3 * k)).reshape(m, k, 3)
    dy = y - y[np.arange(m), policy_idx[states]][:, None]
    vs = v[states, None] / (1.0 - dy[..., 2])
    return ud + vs * dy[..., 0], ua + vs * dy[..., 1]


def _constant_values(f, w, sd, sa) -> np.ndarray:
    """(2, K) array of (u_d, u_a) over the K constant policies, in action
    order.  Under constant policy m the executed action is drawn afresh from
    W[m] at every stage, so the chain lumps to the K-state chain of the
    defender's moves, Q_m[d, d'] = sum_a W[m, a] F[(d, a), d'], and the
    stationary vector is v(d, a) = mu_m(d) W[m, a] (Kemeny & Snell, Finite
    Markov Chains, 1960, ch. 6).  One stacked solve on K states serves all K
    policies, by `markov._direct_offdiag`, not `_direct`: a ZD strategy's
    floor entries leave self-loops within about 1e-9 of 1, whose subtraction
    from 1 put the pairs up to 3e-13 max(1, |S_d|, |S_a|) off a GTH
    reduction at K <= 30, against 1.4e-15 for the off-diagonal sum."""
    k = w.shape[0]
    mu = _direct_offdiag((w @ f.reshape(k, k, k)).transpose(1, 0, 2))  # stack of Q_m
    # per policy m: sum_d mu_m(d) sum_a S[(d, a)] W[m, a]
    return np.einsum("md,jdm->jm", mu, np.stack([sd, sa]).reshape(2, k, k) @ w.T)


def _start(f, w, sd, sa, howard_idx, floor):
    """(policy, (u_d, u_a), fundamental tuple) the swap search starts from.
    The candidates are the 0-based Howard policy, then the K constant
    policies, each kept only if its u_a reaches `floor`; a later candidate
    replaces the best so far only if its u_d is more than _SWITCH_TOL
    higher.  When none reaches the floor, the start is Howard's policy: it
    defines the gain, so only rounding put it below.  Howard's pair is read
    from the means of its fundamental matrix; the constant policies are
    scored on their lumped chains (`_constant_values`), and the winner's
    fundamental matrix is formed only when one of them wins."""
    fund = _fundamental(f, w, sd, sa, howard_idx)
    pol, best_pair = howard_idx, (float(fund[4]), float(fund[5]))
    qualified = fund[5] >= floor
    for m, (ud, ua) in enumerate(_constant_values(f, w, sd, sa).T):
        if ua >= floor and (not qualified or ud > best_pair[0] + _SWITCH_TOL):
            pol, best_pair, qualified = np.full(len(howard_idx), m), (float(ud), float(ua)), True
    if pol is not howard_idx:  # a constant policy won
        fund = _fundamental(f, w, sd, sa, pol)
    return pol, best_pair, fund


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
    seen = {policy.tobytes()}
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
        key = policy.tobytes()
        if key in seen:
            raise PolicyIterationCycleError(
                "policy iteration revisited a policy; lexicographic tie-breaking "
                "did not resolve the cycle"
            )
        seen.add(key)
    raise PolicyIterationCycleError("policy iteration exceeded its iteration budget")


@cache
def _scratch(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The two arrays `_screen_values` alternates its tables between on n
    states and K actions, each sized for the largest: m (m + 3) K^(n+1-m)
    entries with m kept states, the first table at m = n."""
    size = max(m * (m + 3) * k ** (n + 1 - m) for m in range(1, n + 1))
    return np.empty(size), np.empty(size)


def _screen_values(f, w, sd, sa):
    """(u_d, u_a) of every deterministic policy, in policy order (policy p
    plays the base-K digits of p, state 0's action leading), from one
    GTH state reduction shared by all policies (Grassmann, Taksar & Heyman,
    Oper. Res. 33(5), 1985).  States n-1, ..., 1 are censored in turn; each
    kept row carries its per-visit defender reward, attacker reward and time
    and its transitions to the kept states, so u = reward / time once only
    state 0 is left (renewal-reward).  A row depends on its own action and on
    the actions of the censored states, the suffix axis x, laid last with the
    censored state's action as its leading digit.

    The direct system drops the balance equation of state n-1, so each row's
    transition into n-1 is taken as 1 minus its other entries (by math.fsum),
    and the reduction solves the system the chain kernel solves.  Where the
    rounded products over-sum that entry is a negative rounding defect; it is
    kept, since a clamp at 0 moves u by up to 1e-5 max(1, |S_d|, |S_a|) on
    rows with entries near 1e-20.

    The tables live in the two `_scratch` arrays, each step written into the
    one its input is not in, and the censored row is divided in place; the
    returned arrays are fresh."""
    k, n = w.shape[0], f.shape[0]
    bufs = _scratch(n, k)
    p = (f[:, None, :, None] * w[None, :, None, :]).reshape(n * k, n)  # [(i, b), flat(d, a)]
    p[:, -1] = [math.fsum([1.0, *row]) for row in (-p[:, :-1]).tolist()]
    t = bufs[0][:n * (n + 3) * k].reshape(n, n + 3, k, 1)  # [i, column, b, x]
    t[:, 0, :, 0], t[:, 1, :, 0], t[:, 2] = sd[:, None], sa[:, None], 1.0
    t[:, 3:, :, 0] = p.reshape(n, k, n).transpose(0, 2, 1)
    for m in range(n - 1, 0, -1):
        row = t[m, :m + 3]  # [column, b_m, x]; censored, so no later step reads it
        row /= row[3:].sum(axis=0)  # GTH: no subtraction
        x = t.shape[3]
        step = bufs[(n - m) % 2][:m * (m + 3) * k * k * x].reshape(m, m + 3, k, k, x)
        np.multiply(t[:m, None, m + 3, :, None], row[None, :, None], out=step)  # [i, column, b, b_m, x]
        step += t[:m, :m + 3, :, None]  # in place: adding into a new array is 2-5x slower
        t = step.reshape(m, m + 3, k, -1)
    return (t[0, 0] / t[0, 2]).ravel(), (t[0, 1] / t[0, 2]).ravel()


def defender_utility_under_br(g: GameSpec, pi_d: MemoryOneStrategy):
    """Best response with the optimistic-follower tie rule: among attacker
    policies within TIE_TOL of the optimal gain, pick one maximizing the
    defender's utility.

    K <= 3 enumerates the policies exactly, on the values of one state
    reduction (see the module docstring).  Above, the search starts from the
    best of K + 1 policies (`_start`): the Howard optimum, whose pair is the
    means of its fundamental matrix, and the K constant ones, scored by one
    stacked solve of their lumped K-state chains; the fundamental matrix of
    a constant policy is formed only when it wins.  Then, state by state, it
    takes in action order each action that raises the defender's utility
    further while staying in the tie set, until a sweep changes nothing (a
    local optimum, not an exhaustive one).  One pass scores, by rank-one
    updates of the current fundamental matrix, the K actions of every state
    left in the sweep (at most _SWAP_PASS_ENTRIES / 3K^2 states); the first
    state where another action qualifies is then searched action by action.
    An accepted swap updates the fundamental matrix by rank one, its
    (u_d, u_a) is read from the updated matrix (`_accept_swap`), and the
    later states are scored again.

    Returns ((u_d, u_a), 1-based policy tuple) of the chosen policy.
    """
    tables = f, w, _, sd, sa = _effective_tables(g, pi_d)
    # K <= 3 does not need it; perfbench's K = 3 compare smoke test expects its span
    br = best_response(g, pi_d, tables)
    n = g.k * g.k

    if g.k <= 3:
        u_d, u_a = _screen_values(f, w, sd, sa)
        tie = np.nonzero(u_a >= np.max(u_a) - TIE_TOL)[0]
        chosen = tie[int(np.argmax(u_d[tie]))]
        policy = tuple(int(x) + 1 for x in np.unravel_index(chosen, (g.k,) * n))
        pair = UtilityPair(float(u_d[chosen]), float(u_a[chosen]))
    else:
        floor = br.gain - TIE_TOL
        pol, best_pair, fund = _start(f, w, sd, sa, np.asarray(br.policy, dtype=int) - 1, floor)
        per_pass = max(1, _SWAP_PASS_ENTRIES // (3 * n))
        improved = True
        guard = 0
        while improved and guard < 50:
            improved = False
            guard += 1
            start = 0
            while start < n:
                states = np.arange(start, min(n, start + per_pass))
                ud, ua = _swap_values(f, w, fund, pol, states)
                live = (ua >= floor) & (ud > best_pair[0] + _SWITCH_TOL)
                live[np.arange(len(states)), pol[states]] = False
                start = states[-1] + 1
                hit = live.any(axis=1)
                if not hit.any():
                    continue
                # the first row with a live action swaps: its first live action
                # qualifies, and each later one must beat the one taken
                i = int(np.argmax(hit))
                s = states[i]
                act = pol[s]
                for a in range(g.k):
                    if a != act and ua[i, a] >= floor and ud[i, a] > best_pair[0] + _SWITCH_TOL:
                        best_pair = (ud[i, a], ua[i, a])
                        act = a
                fund, best_pair = _accept_swap(f, w, sd, sa, fund, pol, s, act)
                improved = True
                start = s + 1
        policy = tuple(int(x) + 1 for x in pol)
        pair = UtilityPair(*best_pair)

    return pair, policy
