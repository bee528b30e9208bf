"""Command-line front end: solve, compare, bench, simulate, emit-mip.

Batch commands reading JSON inputs and writing CSV/JSON artifacts; every
output carries a config hash and replays bit-identically from its seed.
Exit codes are stable API: 0 success, 2 no enforceable line (infeasible),
3 verification failure, 64 usage error.  A numerical failure inside the
package (LpNumericalError, OneshotInfeasibleError, StationaryError,
PolicyIterationCycleError, ZdConstructionError) also exits 3, with one
``error:`` line on stderr instead of a traceback.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import time
from contextlib import contextmanager, suppress
from dataclasses import dataclass

import numpy as np

from .game import (GameSpec, MemoryOneStrategy, canonicalize, game_to_dict, load_game,
                   require_number, require_numbers)
from .lp import LpNumericalError
from .markov import StationaryError, UtilityPair, max_line_residual
from .mdp import PolicyIterationCycleError, defender_utility_under_br
from .programs import realize_params, solve_ideal, solve_optimal
from .rng import stream
from .scenarios import CrowdScenario, scenario_from_dict, scenario_to_dict
from .sse import (OneshotInfeasibleError, build_mip, exhaustive_sse, oneshot_sse, render_mip,
                  search_sse, sse_upper_bound)
from .sim import switching_experiment
from .zd import ZdConstructionError, ZdLinearParams, classify, defining_residual
from . import __version__

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_VERIFY = 3
EXIT_USAGE = 64

VERIFY_TOL = 1e-8
_BR_EVAL_MAX_K = 12  # candidates are scored under attacker best response up to here
_CSV_BLOCK = 2 ** 16  # trajectory rows formatted per write

NUMERICAL_ERRORS = (LpNumericalError, OneshotInfeasibleError, StationaryError,
                    PolicyIterationCycleError, ZdConstructionError)


@dataclass(frozen=True)
class SolveOutput:
    """Full pipeline result in the game's original labels."""

    kind: str  # ideal | optimal | infeasible | none
    params: ZdLinearParams = None
    strategy: MemoryOneStrategy = None
    phi: np.ndarray = None
    residual: float = None
    predicted: UtilityPair = None
    realized: UtilityPair = None
    cell: tuple = None
    classification: str = None
    max_line_residual: float = None
    verify_samples: int = 0


def solve_game(
    g: GameSpec,
    mode: str = "auto",
    verify_samples: int = 64,
    seed: int = 0,
    evaluate_br: bool = None,
) -> SolveOutput:
    """Canonicalize, find line parameters (ideal program first unless mode
    says otherwise), construct the strategy, verify, and map everything back
    to the caller's target labels.  An optimal line comes with its strategy
    built by `solve_optimal`; an ideal one is built here."""
    if mode not in ("auto", "ideal", "optimal"):
        raise ValueError("mode must be auto, ideal or optimal")
    if verify_samples < 0:
        raise ValueError(f"verify samples must be >= 0 (0 skips sampling), got {verify_samples}")
    if evaluate_br is None:
        evaluate_br = g.k <= _BR_EVAL_MAX_K
    gc, cp = canonicalize(g)

    kind = None
    if mode in ("auto", "ideal"):
        ideal = solve_ideal(gc)
        if ideal.found:
            kind = "ideal"
            params = ideal.params
            frame_pair = (ideal.role1, ideal.role_k)  # canonical labels
            t = ideal.role1 - 1
            predicted = UtilityPair(float(gc.u_d_cov[t]), float(gc.u_a_cov[t]))
            built = realize_params(gc, params, ideal.role1, ideal.role_k)
        elif mode == "ideal":
            return SolveOutput("infeasible")
    if kind is None:
        opt = solve_optimal(gc, evaluate_br)
        if opt.kind == "none":
            return SolveOutput("none")
        kind = "optimal"
        params = opt.params
        frame_pair = (opt.cell.i1, opt.cell.i2)
        predicted = opt.predicted
        built = opt.realization
    if built is None:
        return SolveOutput("none")
    strategy_canon, _, phi_canon = built
    strategy = cp.invert_strategy(strategy_canon)
    phi = cp.invert_phi(phi_canon)

    residual = defining_residual(g, strategy, params, phi)
    worst = None
    if verify_samples > 0:
        worst = max_line_residual(g, strategy, params.alpha, params.beta, params.gamma,
                                  verify_samples, stream(seed, "solve-verify"))

    realized = None
    if evaluate_br and kind == "optimal" and cp.is_identity():
        realized = opt.realized  # solve_optimal scored these very inputs
    elif evaluate_br:  # in the caller's labels, as the caller would score it
        realized, _ = defender_utility_under_br(g, strategy)

    return SolveOutput(
        kind=kind, params=params, strategy=strategy, phi=phi, residual=residual,
        predicted=predicted, realized=realized,
        cell=(cp.inverse[frame_pair[0] - 1], cp.inverse[frame_pair[1] - 1]),
        classification=classify(params).kind,
        max_line_residual=worst, verify_samples=verify_samples,
    )


def config_hash(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


@contextmanager
def atomic_open(path: str):
    """Text file handle on a temporary sibling that replaces path on a
    clean exit, so readers never see a partial file; when the body raises,
    the sibling is removed and path is left as it was."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.remove(tmp)
        raise


def atomic_write(path: str, text: str) -> None:
    with atomic_open(path) as fh:
        fh.write(text)


def _write_json(path: str, obj) -> None:
    atomic_write(path, json.dumps(obj, indent=1) + "\n")


def strategy_text(obj: dict) -> str:
    """json.dumps(obj, indent=1) + "\n" for a `strategy_json` object, with
    the pi rows written row by row through float.__repr__, as json spells a
    finite float: the pure-Python encoder behind indent= is several times
    slower on the K^2 x K rows."""
    pi = "[\n" + ",\n".join("  [\n   " + ",\n   ".join(map(float.__repr__, row)) + "\n  ]"
                             for row in obj["pi"]) + "\n ]"
    assert "n" not in pi, "strategy rows must be finite"  # json spells NaN, Infinity
    return json.dumps({**obj, "pi": None}, indent=1).replace('"pi": null', '"pi": ' + pi, 1) + "\n"


def strategy_json(out: SolveOutput, hash_: str) -> dict:
    return {
        "k": out.strategy.k,
        "pi": out.strategy.rows.tolist(),
        "zd": {
            "alpha": out.params.alpha,
            "beta": out.params.beta,
            "gamma": out.params.gamma,
            "phi": out.phi.tolist(),
            "residual": out.residual,
            "class": out.classification,
        },
        "config_hash": hash_,
    }


def result_json(out: SolveOutput, hash_: str) -> dict:
    residuals = {"defining_equality": out.residual}
    if out.max_line_residual is not None:
        residuals["line_samples_max"] = out.max_line_residual
        residuals["line_samples_n"] = out.verify_samples
    return {
        "kind": out.kind,
        "alpha": out.params.alpha,
        "beta": out.params.beta,
        "gamma": out.params.gamma,
        "u_d": out.predicted.u_d,
        "u_a": out.predicted.u_a,
        "realized_u_d": None if out.realized is None else out.realized.u_d,
        "realized_u_a": None if out.realized is None else out.realized.u_a,
        "cell": list(out.cell) if out.cell else None,
        "class": out.classification,
        "residuals": residuals,
        "config_hash": hash_,
    }


def cmd_solve(args) -> int:
    g = load_game(args.game)
    out = solve_game(g, mode=args.mode, verify_samples=args.verify_samples,
                     seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    hash_ = config_hash({
        "command": "solve", "game": game_to_dict(g), "mode": args.mode,
        "seed": args.seed, "verify_samples": args.verify_samples,
        "version": __version__,
    })
    if out.kind in ("infeasible", "none"):
        _write_json(os.path.join(args.out, "result.json"),
                    {"kind": out.kind, "config_hash": hash_})
        print(f"no enforceable line found (kind={out.kind})")
        return EXIT_INFEASIBLE
    atomic_write(os.path.join(args.out, "strategy.json"), strategy_text(strategy_json(out, hash_)))
    _write_json(os.path.join(args.out, "result.json"), result_json(out, hash_))
    ok = out.residual <= args.tol_verify and (
        out.max_line_residual is None or out.max_line_residual <= args.tol_line
    )
    print(f"kind={out.kind} class={out.classification} "
          f"defining_residual={out.residual:.2e} "
          f"sampled_line_max={out.max_line_residual} predicted_u_d={out.predicted.u_d:.6g}")
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_compare(args) -> int:
    g = load_game(args.game)
    hash_ = config_hash({
        "command": "compare", "game": game_to_dict(g), "seed": args.seed,
        "budget": args.budget, "version": __version__,
    })
    rows = []
    flags = []

    t0 = time.perf_counter()
    one = oneshot_sse(g)
    t_one = time.perf_counter() - t0
    lifted = one.lifted(g.k)

    t0 = time.perf_counter()
    out = solve_game(g, mode="auto", verify_samples=0, seed=args.seed,
                     evaluate_br=False)
    if out.kind in ("ideal", "optimal"):
        zd_strategy = out.strategy
    else:
        # no enforceable line exists: fall back to the lifted one-shot
        # strategy and flag the row
        zd_strategy = lifted
        flags.append("# zd_fallback=oneshot_lift (no enforceable line)")
    pair, _ = defender_utility_under_br(g, zd_strategy)
    rows.append(("zd", pair.u_d, time.perf_counter() - t0))
    rows.append(("oneshot_sse", one.value, t_one))

    # the search starts from the one-shot lift and the zd strategy, whose
    # score it reuses
    t0 = time.perf_counter()
    search = search_sse(g, args.budget, args.seed, [lifted, zd_strategy],
                        scored=[(zd_strategy, pair)])
    rows.append(("search_sse", search.value, time.perf_counter() - t0))
    rows.append(("upper_bound", sse_upper_bound(g), 0.0))

    lines = [f"# zdmtd compare seed={args.seed} config_hash={hash_}"]
    lines += flags
    lines.append("strategy,value,wall_time")
    for name, value, wall in rows:
        lines.append(f"{name},{value!r},{wall:.6f}")
    atomic_write(args.out, "\n".join(lines) + "\n")
    print("\n".join(lines))
    return EXIT_OK


def _bench_games(k: int, trials: int, seed: int, family: str):
    rng = stream(seed, "bench", family, str(k))
    games = []
    for _ in range(trials):
        unc = rng.normal(size=k)
        cov = unc + rng.uniform(0.1, 2, size=k)
        order = np.argsort(-cov, kind="stable")
        if family == "generic":
            games.append(GameSpec(k, cov[order], unc[order],
                                  rng.normal(size=k)[order], rng.normal(size=k)[order]))
        else:
            t = float(rng.normal())
            u_a_cov = np.empty(k)
            u_a_unc = np.empty(k)
            u_a_cov[0] = t
            u_a_cov[1:] = t + rng.uniform(0, 2, size=k - 1)
            u_a_unc[0] = t + rng.uniform(0, 2)
            u_a_unc[1 : k - 1] = t
            u_a_unc[k - 1] = t - rng.uniform(0.1, 2)
            games.append(GameSpec(k, cov[order], unc[order], u_a_cov, u_a_unc))
    return games


def bench_rows(kmax: int, trials: int, seed: int, search_budget: int = 8):
    """Timing table: ZD pipeline per family and K, plus the baseline costs
    (exhaustive search at K <= 3, local search at small K)."""
    if trials < 1:
        raise ValueError(f"--trials must be >= 1, got {trials}")
    if kmax < 2:
        raise ValueError(f"--kmax must be >= 2, got {kmax}")
    rows = []
    ks = [k for k in range(2, kmax + 1)
          if k <= 10 or k % 5 == 0 or k == kmax]
    for family in ("structured", "generic"):
        for k in ks:
            times = []
            for g in _bench_games(k, trials, seed, family):
                t0 = time.perf_counter()
                solve_game(g, mode="auto", verify_samples=0, evaluate_br=False)
                times.append(time.perf_counter() - t0)
            rows.append(("zd_solve", family, k, trials,
                         min(times), sum(times) / len(times), max(times)))
    for k in (2, 3):
        if k > kmax:
            continue
        g = _bench_games(k, 1, seed, "generic")[0]
        t0 = time.perf_counter()
        exhaustive_sse(g)
        dt = time.perf_counter() - t0
        rows.append(("exhaustive_sse", "generic", k, 1, dt, dt, dt))
    for k in [k for k in ks if k <= 10]:
        g = _bench_games(k, 1, seed, "generic")[0]
        t0 = time.perf_counter()
        search_sse(g, budget=search_budget, seed=seed)
        dt = time.perf_counter() - t0
        rows.append(("search_sse", "generic", k, 1, dt, dt, dt))
    return rows


def cmd_bench(args) -> int:
    hash_ = config_hash({
        "command": "bench", "kmax": args.kmax, "trials": args.trials,
        "seed": args.seed, "version": __version__,
    })
    rows = bench_rows(args.kmax, args.trials, args.seed)
    lines = [f"# zdmtd bench seed={args.seed} config_hash={hash_}",
             "solver,family,k,trials,t_min_s,t_mean_s,t_max_s"]
    for solver, family, k, trials, tmin, tmean, tmax in rows:
        lines.append(f"{solver},{family},{k},{trials},{tmin:.6f},{tmean:.6f},{tmax:.6f}")
    atomic_write(args.out, "\n".join(lines) + "\n")
    print("\n".join(lines))
    return EXIT_OK


def _load_strategy(path: str):
    """Strategy JSON as `solve` writes it: k and pi, and an optional zd block
    whose alpha, beta, gamma and phi are then all required.  Only a missing
    or null zd means no block; an empty one is missing its keys."""
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    zd = obj.get("zd") if isinstance(obj, dict) else None
    if not isinstance(obj, dict) or not isinstance(zd, (dict, type(None))):
        raise ValueError("strategy JSON and its zd block must be objects")
    missing = [key for key in ("k", "pi") if key not in obj]
    if zd is not None:
        missing += [f"zd.{key}" for key in ("alpha", "beta", "gamma", "phi") if key not in zd]
    if missing:
        raise ValueError(f"missing keys in strategy JSON: {missing}")
    require_number(obj["k"], "strategy k", integer=True)
    strategy = MemoryOneStrategy(obj["k"], require_numbers(obj["pi"], "pi"))
    params = phi = None
    if zd is not None:
        for key in ("alpha", "beta", "gamma"):
            require_number(zd[key], f"zd.{key}")
        params = ZdLinearParams(zd["alpha"], zd["beta"], zd["gamma"])
        phi = require_numbers(zd["phi"], "zd.phi")
    return strategy, params, phi, {key: obj.get(key) for key in ("k", "pi", "zd")}


def cmd_simulate(args) -> int:
    with open(args.scenario, "r", encoding="utf-8") as fh:
        scenario = scenario_from_dict(json.load(fh))
    if not isinstance(scenario, CrowdScenario):
        raise ValueError("simulate currently drives crowdsourcing scenarios; "
                         "see compare/bench for the IoT family")
    strategy, params, phi, content = _load_strategy(args.strategy)
    hash_ = config_hash({
        "command": "simulate", "scenario": scenario_to_dict(scenario),
        "strategy": content, "seed": args.seed,
        "steps": args.steps, "stride": args.stride, "version": __version__,
    })
    report = switching_experiment(scenario, strategy, steps=args.steps,
                                  seed=args.seed, zd_params=params, zd_phi=phi,
                                  stride=args.stride)
    stats = report.stats
    with atomic_open(args.out) as fh:
        fh.write(f"# zdmtd simulate seed={args.seed} config_hash={hash_}\n"
                 "step,avg_u_d,avg_u_a,regime\n")
        for lo in range(0, len(stats.series_step), _CSV_BLOCK):
            rows = slice(lo, lo + _CSV_BLOCK)
            fh.writelines(f"{step},{u_d!r},{u_a!r},{regime}\n" for step, u_d, u_a, regime in zip(
                stats.series_step[rows].tolist(), stats.series_avg_u_d[rows].tolist(),
                stats.series_avg_u_a[rows].tolist(), stats.series_regime[rows]))
    for name, summary in report.regimes.items():
        print(f"regime={name} steps={summary.n_steps} "
              f"mean_u_d={summary.mean_u_d:.6g} mean_u_a={summary.mean_u_a:.6g} "
              f"line_residual={summary.line_residual} se={summary.line_residual_se}")
    return EXIT_OK


def cmd_emit_mip(args) -> int:
    g = load_game(args.game)
    model = build_mip(g)
    atomic_write(args.out, render_mip(model))
    print(f"k={model.k} binaries={model.n_binary} "
          f"strategy_vars={model.n_strategy_vars} value_vars={model.n_value_vars} "
          f"constraints={len(model.constraints)} z={model.z!r}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged and gives every call a fresh namespace with its defaults."""
    parser = argparse.ArgumentParser(
        prog="zdmtd",
        description="Zero-determinant moving-target-defense strategies for "
                    "repeated security games, with Stackelberg baselines.",
        epilog="Module tolerance defaults: defining equality and sampled line "
               "residuals 1e-8; program feasibility 1e-9; stationary solves "
               "1e-10; action blending 1e-8.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="compute and verify a ZD strategy")
    p.add_argument("--game", required=True, help="game JSON file")
    p.add_argument("--mode", choices=("auto", "ideal", "optimal"), default="auto")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--verify-samples", type=int, default=64)
    p.add_argument("--tol-verify", type=float, default=VERIFY_TOL,
                   help="defining-equality gate (default 1e-8)")
    p.add_argument("--tol-line", type=float, default=VERIFY_TOL,
                   help="sampled line-residual gate (default 1e-8)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("compare", help="ZD vs SSE baselines on one game")
    p.add_argument("--game", required=True)
    p.add_argument("--budget", type=int, default=24)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="comparison.csv")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("bench", help="timing table across K")
    p.add_argument("--kmax", type=int, default=20)
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="bench.csv")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("simulate", help="trajectory of a committed strategy "
                                        "in a switching-worker scenario")
    p.add_argument("--scenario", required=True, help="scenario JSON (envelope)")
    p.add_argument("--strategy", required=True, help="strategy JSON from solve")
    p.add_argument("--steps", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stride", type=int, default=None)
    p.add_argument("--out", default="trajectory.csv")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("emit-mip", help="write the equilibrium program in "
                                        "LP-format text")
    p.add_argument("--game", required=True)
    p.add_argument("--out", default="model.lp")
    p.set_defaults(func=cmd_emit_mip)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_USAGE if err.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except NUMERICAL_ERRORS as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
