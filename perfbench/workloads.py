"""The benchmark's four workloads: inputs generated from a seed, the zdmtd
command line each operation runs, what is read back from its outputs, and
the checks those outputs must pass.

Inputs come from the benchmark's own numpy generator keyed by (seed,
workload), never from the package's random streams, so a change to the
package cannot change what it is given.  Each workload has a fixed pass of
operations in a fixed round-robin order over its input classes; a run takes
a prefix of the pass (cycling when a fast program finishes it), so the mix
of classes is the same whatever the rate.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from zdmtd.scenarios import crowd_game, crowd_scenario, iot_game, iot_scenario, scenario_to_dict

# Output tolerances.  None is looser than the package's documented ones:
# 1e-8 defining-equality and sampled-line gates, 1e-6 admits the documented
# 4.6e-7 tie-semantics gap of best-response evaluation.
TOL = {
    "solve_value": 1e-6,        # predicted and realized (u_d, u_a) against golden
    "solve_gate": 1e-8,         # defining-equality and sampled-line residuals
    "solve_line_oracle": 1e-8,  # |alpha u_d + beta u_a + gamma| recomputed here
    "compare_exact": 1e-9,      # oneshot_sse and upper_bound rows against golden
    "compare_zd": 1e-6,         # zd row against golden
    "compare_search": 1e-9,     # search_sse <= upper_bound + this
    "simulate": 1e-9,           # final averages and per-regime means against golden
}

VERIFY_SAMPLES = 64   # the solve command's default
COMPARE_BUDGET = 8    # the search budget `zdmtd bench` uses
SIM_STEPS = 20_000


@dataclass(frozen=True)
class Op:
    """One command: its subcommand, input files (name -> text) and options."""

    index: int
    label: str
    command: str
    inputs: dict
    options: tuple

    @property
    def digest(self) -> str:
        """Fingerprint of the inputs, checked against the golden file so a
        changed generator cannot be compared with stale answers."""
        h = hashlib.sha256(self.command.encode())
        for name in sorted(self.inputs):
            h.update(name.encode() + b"\0" + self.inputs[name].encode() + b"\0")
        h.update(json.dumps(self.options).encode())
        return h.hexdigest()[:16]


def _rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed, int.from_bytes(name.encode(), "little") % 2**32])


def _game_text(cov, unc, a_cov, a_unc) -> str:
    return json.dumps({"k": len(cov), "u_d_cov": [float(x) for x in cov],
                       "u_d_unc": [float(x) for x in unc], "u_a_cov": [float(x) for x in a_cov],
                       "u_a_unc": [float(x) for x in a_unc]})


def structured_game(rng, k):
    """Ideal-feasible by construction; the `structured` family of
    `zdmtd bench`, regenerated here."""
    unc = rng.normal(size=k)
    cov = unc + rng.uniform(0.1, 2, size=k)
    order = np.argsort(-cov, kind="stable")
    t = float(rng.normal())
    a_cov = np.empty(k)
    a_unc = np.empty(k)
    a_cov[0] = t
    a_cov[1:] = t + rng.uniform(0, 2, size=k - 1)
    a_unc[0] = t + rng.uniform(0, 2)
    a_unc[1 : k - 1] = t
    a_unc[k - 1] = t - rng.uniform(0.1, 2)
    return _game_text(cov[order], unc[order], a_cov, a_unc)


def generic_game(rng, k, jitter=None, scale=0.0):
    """Independent normal payoffs with covered above uncovered defender
    profit (the `generic` family of `zdmtd bench`), optionally perturbed by
    normal noise of the given scale drawn from `jitter`."""
    unc, gap, a_cov, a_unc = (rng.normal(size=k), rng.uniform(0.1, 2, size=k),
                              rng.normal(size=k), rng.normal(size=k))
    if jitter is not None:
        unc, a_cov, a_unc = (x + jitter.normal(scale=scale, size=k) for x in (unc, a_cov, a_unc))
    cov = unc + gap
    order = np.argsort(-cov, kind="stable")
    return _game_text(cov[order], unc[order], a_cov[order], a_unc[order])


def _payoffs(game: dict):
    """(K, S_d, S_a) with S over flat states (i, j): covered when i == j."""
    k = game["k"]
    s = []
    for player in ("d", "a"):
        v = np.tile(np.asarray(game[f"u_{player}_unc"], dtype=float), k)
        v[np.arange(k) * (k + 1)] = game[f"u_{player}_cov"]
        s.append(v)
    return k, s[0], s[1]


def line_residual_oracle(game: dict, pi_d, params, rng, samples: int = 2) -> float:
    """|alpha u_d + beta u_a + gamma| at the long-run utilities against random
    attackers, from a stationary solve written here, not the package's."""
    k, sd, sa = _payoffs(game)
    n = k * k
    worst = 0.0
    for _ in range(samples):
        pi_a = rng.dirichlet(np.ones(k), size=n)
        m = np.einsum("sd,sa->sda", pi_d, pi_a).reshape(n, n)
        a = m.T - np.eye(n)
        a[-1, :] = 1.0
        b = np.zeros(n)
        b[-1] = 1.0
        v = np.linalg.solve(a, b)
        worst = max(worst, abs(params[0] * (v @ sd) + params[1] * (v @ sa) + params[2]))
    return worst


def _csv_float(text: str) -> float:
    """A CSV number; under numpy 2 the trajectory writer emits the repr
    `np.float64(x)` instead of `x`, which is read as x."""
    if text.startswith("np.float64(") and text.endswith(")"):
        text = text[len("np.float64("):-1]
    return float(text)


def _close(a, b, tol) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= tol


class Workload:
    name = ""
    why = ""
    pass_size = 0
    rotation = 1      # length of the round-robin over input classes
    warmup_ops = 0
    tail_pct = 0
    fires = ()        # spans that must fire in a traced run
    silent = ()       # spans that must not
    golden_keys = ()  # fields of record() kept in the golden file

    def make_ops(self, seed: int) -> list:
        raise NotImplementedError

    def capture(self, cli) -> None:
        """Hook into the CLI module before any operation, for answers the
        command does not write out."""

    def prepare(self, workdir: str, run) -> None:
        """Extra set-up before any operation (files that are not inputs)."""

    def argv(self, op: Op, workdir: str) -> list:
        paths = {name: os.path.join(workdir, f"{op.index}-{name}") for name in op.inputs}
        return [op.command] + [x for name in sorted(paths) for x in (f"--{name}", paths[name])] \
            + list(op.options) + self.out_args(workdir)

    def write_inputs(self, ops, workdir: str) -> None:
        for op in ops:
            for name, text in op.inputs.items():
                with open(os.path.join(workdir, f"{op.index}-{name}"), "w", encoding="utf-8") as fh:
                    fh.write(text)

    def out_args(self, workdir: str) -> list:
        raise NotImplementedError

    def clear(self, workdir: str) -> None:
        """Remove the previous operation's outputs."""

    def record(self, op: Op, rc: int, workdir: str) -> dict:
        """The operation's answer, as compared with the golden file."""
        raise NotImplementedError

    def check(self, op: Op, rec: dict, golden: dict) -> list:
        """Problems with one answer; golden is the recorded answer or None."""
        raise NotImplementedError


class SolveWorkload(Workload):
    fires = ("cli.main", "cli.solve_game", "programs.solve_ideal", "lp.solve_lp")
    golden_keys = ("rc", "kind", "u_d", "u_a", "realized_u_d", "realized_u_a")

    def out_args(self, workdir):
        return ["--out", os.path.join(workdir, "out")]

    def clear(self, workdir):
        for name in ("result.json", "strategy.json"):
            path = os.path.join(workdir, "out", name)
            if os.path.exists(path):
                os.remove(path)

    def record(self, op, rc, workdir):
        with open(os.path.join(workdir, "out", "result.json"), encoding="utf-8") as fh:
            res = json.load(fh)
        rec = {"rc": rc, "result": res, "pi": None}
        for key in self.golden_keys[1:]:
            rec[key] = res.get(key)
        if rc == 0:
            with open(os.path.join(workdir, "out", "strategy.json"), encoding="utf-8") as fh:
                rec["pi"] = np.asarray(json.load(fh)["pi"], dtype=float)
        return rec

    def check(self, op, rec, golden):
        problems = []
        rc = rec["rc"]
        if rc == 0:
            res, pi = rec["result"], rec["pi"]
            game = json.loads(op.inputs["game"])
            resid = res["residuals"]
            if rec["kind"] not in ("ideal", "optimal"):
                problems.append(f"exit 0 with kind {rec['kind']!r}")
            if not resid["defining_equality"] <= TOL["solve_gate"]:
                problems.append(f"defining residual {resid['defining_equality']:.3e}")
            if resid.get("line_samples_n") != VERIFY_SAMPLES or \
                    not resid["line_samples_max"] <= TOL["solve_gate"]:
                problems.append(f"sampled line residual {resid.get('line_samples_max')}")
            if game["k"] <= 12 and rec["realized_u_d"] is None:
                problems.append("no best-response evaluation at K <= 12")
            if pi.min() < 0 or np.max(np.abs(pi.sum(axis=1) - 1.0)) > 1e-9:
                problems.append("strategy rows are not distributions")
            else:
                params = (res["alpha"], res["beta"], res["gamma"])
                worst = line_residual_oracle(game, pi, params, _rng(op.index, "oracle"))
                if not worst <= TOL["solve_line_oracle"]:
                    problems.append(f"enforced line fails an outside check: {worst:.3e}")
        elif rc == 2:
            if rec["kind"] not in ("none", "infeasible"):
                problems.append(f"exit 2 with kind {rec['kind']!r}")
        else:
            problems.append(f"exit code {rc}")
        problems += self.family_check(op, rec)
        if golden is not None:
            if (rc, rec["kind"]) != (golden["rc"], golden["kind"]):
                problems.append(f"rc/kind {rc}/{rec['kind']} != golden {golden['rc']}/{golden['kind']}")
            for key in ("u_d", "u_a", "realized_u_d", "realized_u_a"):
                if not _close(rec[key], golden[key], TOL["solve_value"]):
                    problems.append(f"{key} {rec[key]!r} != golden {golden[key]!r}")
        return problems

    def family_check(self, op, rec):
        return []


class SolveIdeal(SolveWorkload):
    name = "solve-ideal"
    why = ("ideal-feasible games, K 4..10: best-response tie refinement and 64 sampled "
           "stationary solves dominate; the optimal program never runs")
    pass_size = 280
    rotation = 7
    warmup_ops = 7
    tail_pct = 90
    fires = SolveWorkload.fires + ("programs.realize_params", "zd.construct_strategy",
                                   "markov.stationary", "mdp.defender_utility_under_br")
    silent = ("programs.solve_optimal", "sse.oneshot_sse", "sse.search_sse", "sim.simulate")

    def make_ops(self, seed):
        rng = _rng(seed, self.name)
        ops = []
        for i in range(self.pass_size):
            k = 4 + i % self.rotation
            ops.append(Op(i, f"k{k}", "solve", {"game": structured_game(rng, k)},
                          ("--mode", "auto", "--seed", str(int(rng.integers(2**31))))))
        return ops

    def family_check(self, op, rec):
        if (rec["rc"], rec["kind"]) != (0, "ideal"):
            return [f"ideal-feasible game solved as rc/kind {rec['rc']}/{rec['kind']}"]
        return []


class SolveGeneric(SolveWorkload):
    name = "solve-generic"
    why = ("random games at K 2 and 3 (angular sweeps) and K 50 (2,450 cells proving none): "
           "the optimal program dominates; same command as solve-ideal")
    pass_size = 60
    rotation = 5
    warmup_ops = 3
    tail_pct = 60
    fires = SolveWorkload.fires + ("programs.solve_optimal",)
    silent = ("sse.oneshot_sse", "sse.search_sse", "sim.simulate")
    # K = 50 first, so that even one operation runs the optimal program
    KS = (50, 2, 3, 2, 3)
    # A generic solve costs 0.01 s (ideal), about 0.4 s (none) or up to
    # 1.3 s (optimal), and a run holds only about 30 of them, so games drawn
    # afresh per seed would make the outcome mix, not the program, set the
    # run-to-run spread.  The seed therefore perturbs one fixed draw of the
    # family: every seed gets distinct payoffs with the same mix.
    BASE_SEED = 0
    JITTER = 1e-3

    def make_ops(self, seed):
        base = _rng(self.BASE_SEED, self.name)
        rng = _rng(seed, self.name + "/jitter")
        ops = []
        for i in range(self.pass_size):
            k = self.KS[i % self.rotation]
            game = generic_game(base, k, rng, self.JITTER)
            ops.append(Op(i, f"k{k}", "solve", {"game": game},
                          ("--mode", "auto", "--seed", str(int(rng.integers(2**31))))))
        return ops

    def family_check(self, op, rec):
        if op.label == "k50" and rec["rc"] != 2:
            return [f"generic K=50 game returned exit {rec['rc']}, expected 2 (none)"]
        return []


class CompareIot(Workload):
    name = "compare-iot"
    why = ("IoT migration games, K 3..6 x three cost profiles: one-shot LPs, seeded search and "
           "best response on non-ZD strategies, exhaustive at K 3")
    pass_size = 96
    rotation = 12
    warmup_ops = 4
    tail_pct = 75
    fires = ("cli.main", "cli.solve_game", "programs.solve_ideal", "programs.solve_optimal",
             "lp.solve_lp", "mdp.best_response", "mdp.defender_utility_under_br",
             "sse.oneshot_sse", "sse.search_sse")
    silent = ("markov.stationary", "sim.simulate")
    ROWS = ("zd", "oneshot_sse", "search_sse", "upper_bound")
    golden_keys = ("rc", "fallback") + ROWS

    def make_ops(self, seed):
        rng = _rng(seed, self.name)
        ops = []
        for i in range(self.pass_size):
            k, zeta = 3 + i % 4, 1 + (i // 4) % 3
            theta = float(rng.uniform(0.0, 1.0))
            g = iot_game(iot_scenario(k, zeta, theta=theta))
            text = _game_text(g.u_d_cov, g.u_d_unc, g.u_a_cov, g.u_a_unc)
            ops.append(Op(i, f"k{k}z{zeta}", "compare", {"game": text},
                          ("--budget", str(COMPARE_BUDGET),
                           "--seed", str(int(rng.integers(2**31))))))
        return ops

    def out_args(self, workdir):
        return ["--out", os.path.join(workdir, "comparison.csv")]

    def clear(self, workdir):
        path = os.path.join(workdir, "comparison.csv")
        if os.path.exists(path):
            os.remove(path)

    def record(self, op, rc, workdir):
        rec = {"rc": rc, "fallback": False}
        with open(os.path.join(workdir, "comparison.csv"), encoding="utf-8") as fh:
            for line in fh.read().splitlines():
                if line.startswith("# zd_fallback="):
                    rec["fallback"] = True
                elif line and not line.startswith("#") and not line.startswith("strategy,"):
                    name, value, _ = line.split(",")
                    rec[name] = float(value)
        return rec

    def check(self, op, rec, golden):
        if rec["rc"] != 0:
            return [f"exit code {rec['rc']}"]
        missing = [r for r in self.ROWS if r not in rec]
        if missing:
            return [f"missing rows {missing}"]
        problems = []
        if not all(math.isfinite(rec[r]) for r in self.ROWS):
            problems.append("non-finite value")
        # the search is seeded with the zd strategy and scores it the same way
        if not rec["search_sse"] >= rec["zd"]:
            problems.append(f"search_sse {rec['search_sse']!r} < zd {rec['zd']!r}")
        for row in ("search_sse", "oneshot_sse"):
            if not rec[row] <= rec["upper_bound"] + TOL["compare_search"]:
                problems.append(f"{row} {rec[row]!r} above upper_bound {rec['upper_bound']!r}")
        # the IoT family has constant covered-to-uncovered gaps: no enforceable line
        if not rec["fallback"]:
            problems.append("zd row not flagged as the one-shot fallback")
        if golden is not None:
            if rec["fallback"] != golden["fallback"]:
                problems.append("fallback flag differs from golden")
            for row, tol in (("oneshot_sse", TOL["compare_exact"]),
                             ("upper_bound", TOL["compare_exact"]),
                             ("zd", TOL["compare_zd"])):
                if not _close(rec[row], golden[row], tol):
                    problems.append(f"{row} {rec[row]!r} != golden {golden[row]!r}")
        return problems


class SimulateCrowd(Workload):
    name = "simulate-crowd"
    why = ("crowdsourcing switching simulation, both initial types x periods 10 and 50, "
           f"{SIM_STEPS} steps each: the simulator's per-step loop")
    pass_size = 120
    rotation = 4
    warmup_ops = 4
    tail_pct = 85
    fires = ("cli.main", "sim.simulate", "mdp.best_response")
    silent = ("cli.solve_game", "markov.stationary", "programs.solve_optimal",
              "sse.oneshot_sse", "sse.search_sse")
    CASES = (("honest", 10), ("honest", 50), ("malicious", 10), ("malicious", 50))
    golden_keys = ("rc", "steps", "final_u_d", "final_u_a", "regimes")

    def __init__(self):
        self.report = None

    def capture(self, cli) -> None:
        """Keep the report `simulate` computes, for the per-regime means it
        prints only to six digits.  A pass-through, not a timing span."""
        inner = cli.switching_experiment

        def switching_experiment(*args, **kwargs):
            self.report = inner(*args, **kwargs)
            return self.report

        cli.switching_experiment = switching_experiment

    def make_ops(self, seed):
        rng = _rng(seed, self.name)
        ops = []
        for i in range(self.pass_size):
            initial, period = self.CASES[i % self.rotation]
            text = json.dumps(scenario_to_dict(crowd_scenario(initial, period)))
            ops.append(Op(i, f"{initial}-p{period}", "simulate", {"scenario": text},
                          ("--steps", str(SIM_STEPS), "--seed", str(int(rng.integers(2**31))))))
        return ops

    def prepare(self, workdir, run):
        """Solve the malicious-type game once into strategy.json."""
        scenario = crowd_scenario(*self.CASES[0])
        g = crowd_game(scenario, "malicious")
        path = os.path.join(workdir, "crowd-malicious.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_game_text(g.u_d_cov, g.u_d_unc, g.u_a_cov, g.u_a_unc))
        rc = run(["solve", "--game", path, "--out", os.path.join(workdir, "strategy")])
        if rc != 0:
            raise RuntimeError(f"set-up solve of the crowdsourcing game exited {rc}")

    def argv(self, op, workdir):
        return super().argv(op, workdir) + [
            "--strategy", os.path.join(workdir, "strategy", "strategy.json")]

    def out_args(self, workdir):
        return ["--out", os.path.join(workdir, "trajectory.csv")]

    def clear(self, workdir):
        self.report = None
        path = os.path.join(workdir, "trajectory.csv")
        if os.path.exists(path):
            os.remove(path)

    def record(self, op, rc, workdir):
        with open(os.path.join(workdir, "trajectory.csv"), encoding="utf-8") as fh:
            last = fh.read().splitlines()[-1].split(",")
        rec = {"rc": rc, "steps": int(last[0]), "final_u_d": _csv_float(last[1]),
               "final_u_a": _csv_float(last[2]), "regimes": None}
        if self.report is not None:
            rec["regimes"] = {name: [s.n_steps, s.mean_u_d, s.mean_u_a]
                              for name, s in self.report.regimes.items()}
        return rec

    def check(self, op, rec, golden):
        if rec["rc"] != 0:
            return [f"exit code {rec['rc']}"]
        problems = []
        if rec["steps"] != SIM_STEPS:
            problems.append(f"trajectory ends at step {rec['steps']}")
        regimes = rec["regimes"] or {}
        if sorted(regimes) != ["honest", "malicious"]:
            problems.append(f"regimes {sorted(regimes)}")
        elif sum(n for n, _, _ in regimes.values()) != SIM_STEPS:
            problems.append("regime step counts do not add up")
        else:
            for i, key in ((1, "final_u_d"), (2, "final_u_a")):
                pooled = sum(r[0] * r[i] for r in regimes.values()) / SIM_STEPS
                if not abs(pooled - rec[key]) <= TOL["simulate"]:
                    problems.append(f"regime means pool to {pooled!r}, {key} is {rec[key]!r}")
        if golden is not None:
            for key in ("final_u_d", "final_u_a"):
                if not _close(rec[key], golden[key], TOL["simulate"]):
                    problems.append(f"{key} {rec[key]!r} != golden {golden[key]!r}")
            for name, (n, ud, ua) in (golden["regimes"] or {}).items():
                got = regimes.get(name)
                if got is None or got[0] != n or not (_close(got[1], ud, TOL["simulate"])
                                                      and _close(got[2], ua, TOL["simulate"])):
                    problems.append(f"regime {name} {got} != golden {[n, ud, ua]}")
        return problems


WORKLOADS = {w.name: w for w in (SolveIdeal(), SolveGeneric(), CompareIot(), SimulateCrowd())}
