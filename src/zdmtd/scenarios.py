"""Experiment game families: IoT protection migration and crowdsourcing
task verification.

Parameter values live in versioned JSON config files shipped with the
package; the generators here turn them into GameSpec instances.  The IoT
family always satisfies the covered-beats-uncovered assumption because the
protection gain S is added on top of the amortized migration cost; the
crowdsourcing generator validates it and reports the offending task.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, fields, replace
from importlib import resources

import numpy as np

from .game import GameSpec, require_number, require_numbers


def _load_config(name: str) -> dict:
    with resources.files("zdmtd.configs").joinpath(name).open("r", encoding="utf-8") as fh:
        return json.load(fh)


def iot_defaults() -> dict:
    return _load_config("iot_defaults.json")


def crowd_defaults() -> dict:
    return _load_config("crowd_defaults.json")


@dataclass(frozen=True)
class IotScenario:
    """Protection service migrating over k devices: gain s for interception,
    migration costs y[i][j] (from device i+1 to j+1), attack reward r and
    per-device attack costs c."""

    k: int
    s: float
    y: np.ndarray
    r: float
    c: np.ndarray
    theta: float = None  # mobility knob used to generate y, if any
    zeta: int = None     # attacker cost profile index, if any

    def __post_init__(self):
        require_number(self.k, "k", integer=True)
        require_number(self.s, "protection gain s")
        require_number(self.r, "attack reward r")
        y = require_numbers(self.y, "migration costs y")
        c = require_numbers(self.c, "attack costs c")
        if self.s <= 0 or self.r <= 0:
            raise ValueError("protection gain s and attack reward r must be positive")
        if y.shape != (self.k, self.k) or np.min(y) < 0:
            raise ValueError("migration costs must be a nonnegative k x k matrix")
        if c.shape != (self.k,) or np.min(c) <= 0:
            raise ValueError("attack costs must be positive, one per device")
        y = y.copy()
        y.setflags(write=False)
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "c", c)


@dataclass(frozen=True)
class CrowdScenario:
    """Requester verifying one of k tasks against a worker whose type may
    switch between honest and malicious every `period` stages."""

    k: int
    r_r: np.ndarray      # task rewards
    m: np.ndarray        # low-quality losses (malicious submissions)
    c: float             # verification cost
    r_w: np.ndarray      # honest worker rewards
    r_w_bar: np.ndarray  # malicious worker rewards
    a_extra: np.ndarray  # diversion benefits of a malicious worker
    initial_type: str = "honest"
    period: int = 50

    def __post_init__(self):
        require_number(self.k, "k", integer=True)
        require_number(self.c, "verification cost c")
        require_number(self.period, "switching period", integer=True)
        for name in ("r_r", "m", "r_w", "r_w_bar", "a_extra"):
            v = require_numbers(getattr(self, name), name).copy()
            if v.shape != (self.k,):
                raise ValueError(f"{name} must have length {self.k}")
            v.setflags(write=False)
            object.__setattr__(self, name, v)
        if self.initial_type not in ("honest", "malicious"):
            raise ValueError("initial_type must be honest or malicious")
        if self.period < 1:
            raise ValueError("switching period must be >= 1")


def migration_matrix(k: int, theta: float, amp: float = 0.4, modulus: int = 7) -> np.ndarray:
    """2*theta off the diagonal plus a fixed asymmetric perturbation
    amp * (((3i + 5j) mod modulus) / modulus + j / (2k)), zero on the
    diagonal.  The j-linear part keeps the column means distinct, so the
    devices stay heterogeneous even under uniform attack costs."""
    if not 0.0 <= theta <= 1.0:
        raise ValueError("theta must lie in [0, 1]")
    i, j = np.meshgrid(np.arange(k), np.arange(k), indexing="ij")
    off = 1.0 - np.eye(k)
    wobble = ((3 * i + 5 * j) % modulus) / modulus + j / (2 * k)
    return (2.0 * theta + amp * wobble) * off


def attack_costs(k: int, zeta: int, profiles: dict) -> np.ndarray:
    prof = profiles[str(zeta)]
    if prof["kind"] == "uniform":
        return np.full(k, prof["c0"])
    if prof["kind"] == "near_uniform":
        return prof["c0"] * (1.0 + prof["tilt"] * np.arange(k) / max(k - 1, 1))
    if prof["kind"] == "linear":
        return prof["c0"] + prof["slope"] * np.arange(k)
    if prof["kind"] == "one_cheap":
        c = np.full(k, prof["c_high"])
        c[0] = prof["c_low"]
        return c
    raise ValueError(f"unknown cost profile kind {prof['kind']!r}")


def iot_scenario(k: int, zeta: int, theta: float = None, config: dict = None) -> IotScenario:
    cfg = config or iot_defaults()
    theta = cfg["theta"] if theta is None else theta
    y = migration_matrix(k, theta, cfg["perturb_amp"], cfg["perturb_modulus"])
    c = attack_costs(k, zeta, cfg["cost_profiles"])
    return IotScenario(k, cfg["s"], y, cfg["r"], c, theta=theta, zeta=zeta)


def iot_game(s: IotScenario) -> GameSpec:
    """Covered profit s minus the expected migration cost onto the device;
    uncovered profit is just that cost; the attacker pays c and gains r only
    when the device is unprotected."""
    avg = s.y.mean(axis=0)
    return GameSpec(s.k, s.s - avg, -avg, -s.c, s.r - s.c)


def crowd_scenario(initial_type: str, period: int, config: dict = None) -> CrowdScenario:
    cfg = config or crowd_defaults()
    return CrowdScenario(
        cfg["k"], cfg["r_r"], cfg["m"], cfg["c"], cfg["r_w"], cfg["r_w_bar"],
        cfg["a_extra"], initial_type=initial_type, period=period,
    )


def crowd_game(s: CrowdScenario, worker_type: str) -> GameSpec:
    """Requester rows depend on submission quality (bound to worker type);
    worker rows per type: honest workers earn only when verified, malicious
    ones profit from unverified diversion."""
    if worker_type == "honest":
        u_d_cov = s.r_r - s.c
        u_a_cov = s.r_w
        u_a_unc = np.zeros(s.k)
    elif worker_type == "malicious":
        u_d_cov = s.r_r - s.m - s.c
        u_a_cov = s.r_w_bar
        u_a_unc = s.r_w.mean() + s.a_extra
    else:
        raise ValueError("worker_type must be honest or malicious")
    u_d_unc = np.full(s.k, -s.c)
    bad = np.nonzero(u_d_cov <= u_d_unc)[0]
    if bad.size:
        raise ValueError(
            f"scenario violates the covered-beats-uncovered assumption at "
            f"task(s) {[int(b) + 1 for b in bad]} for a {worker_type} worker"
        )
    return GameSpec(s.k, u_d_cov, u_d_unc, u_a_cov, u_a_unc)


def default_suites():
    """Deterministic experiment suites: one IoT scenario per (k, zeta) and
    one crowdsourcing scenario per (initial type, period)."""
    iot_cfg = iot_defaults()
    crowd_cfg = crowd_defaults()
    suites = []
    for k in iot_cfg["ks"]:
        for zeta in (1, 2, 3):
            suites.append((f"iot_k{k}_zeta{zeta}", iot_scenario(k, zeta, config=iot_cfg)))
    for initial in crowd_cfg["initial_types"]:
        for period in crowd_cfg["periods"]:
            suites.append(
                (f"crowd_{initial}_p{period}", crowd_scenario(initial, period, crowd_cfg))
            )
    return suites


def scenario_from_dict(obj: dict):
    """Strict scenario envelope: {"scenario": "iot" | "crowd", ...fields...},
    every field without a default present and no other key."""
    if not isinstance(obj, dict) or "scenario" not in obj:
        raise ValueError("scenario JSON must carry a 'scenario' tag")
    kind = obj["scenario"]
    cls = {"iot": IotScenario, "crowd": CrowdScenario}.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(f"unknown scenario kind {kind!r}")
    body = {k: v for k, v in obj.items() if k != "scenario"}
    unknown = set(body) - {f.name for f in fields(cls)}
    missing = {f.name for f in fields(cls) if f.default is MISSING} - set(body)
    for what, keys in (("unknown", unknown), ("missing", missing)):
        if keys:
            raise ValueError(f"{what} keys in {kind} scenario JSON: {sorted(keys)}")
    return cls(**body)


def scenario_to_dict(s) -> dict:
    if isinstance(s, IotScenario):
        return {
            "scenario": "iot", "k": s.k, "s": s.s, "y": s.y.tolist(), "r": s.r,
            "c": s.c.tolist(), "theta": s.theta, "zeta": s.zeta,
        }
    if isinstance(s, CrowdScenario):
        return {
            "scenario": "crowd", "k": s.k, "r_r": s.r_r.tolist(), "m": s.m.tolist(),
            "c": s.c, "r_w": s.r_w.tolist(), "r_w_bar": s.r_w_bar.tolist(),
            "a_extra": s.a_extra.tolist(), "initial_type": s.initial_type,
            "period": s.period,
        }
    raise TypeError(f"not a scenario: {type(s)!r}")


def with_switching(s: CrowdScenario, initial_type: str, period: int) -> CrowdScenario:
    return replace(s, initial_type=initial_type, period=period)
