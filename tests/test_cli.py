import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from zdmtd import cli, sse
from zdmtd.cli import (EXIT_INFEASIBLE, EXIT_OK, EXIT_USAGE, EXIT_VERIFY, atomic_open, main,
                       solve_game)
from zdmtd.game import GameSpec, game_to_dict
from zdmtd.lp import LpNumericalError, LpOutcome
from zdmtd.markov import StationaryError
from zdmtd.mdp import PolicyIterationCycleError
from zdmtd.scenarios import (crowd_game, crowd_scenario, iot_scenario, scenario_to_dict,
                              with_switching)
from zdmtd.zd import ZdConstructionError

from oracles import ideal_feasible_game, parse_mip, random_game

COR1 = {"k": 3, "u_d_cov": [5, 4, 3], "u_d_unc": [0, 0, 0],
        "u_a_cov": [-2, 1, 0], "u_a_unc": [3, -2, -4]}


def write_game(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def test_solve_corollary1_auto(tmp_path):
    game = write_game(tmp_path / "game.json", COR1)
    code = main(["solve", "--game", game, "--out", str(tmp_path), "--seed", "1"])
    assert code == EXIT_OK
    result = json.loads((tmp_path / "result.json").read_text())
    assert result["kind"] == "ideal"
    assert result["residuals"]["defining_equality"] <= 1e-8
    assert result["residuals"]["line_samples_max"] <= 1e-8
    strategy = json.loads((tmp_path / "strategy.json").read_text())
    assert strategy["k"] == 3
    assert len(strategy["pi"]) == 9
    assert strategy["zd"]["class"] in ("equalizer", "extortion", "generous")
    assert result["config_hash"] == strategy["config_hash"]


def test_solve_ideal_mode_infeasible(tmp_path):
    rng = np.random.default_rng(10)
    g = random_game(4, rng)  # pairwise-distinct uncovered pairs
    game = write_game(tmp_path / "game.json", game_to_dict(g))
    code = main(["solve", "--game", game, "--mode", "ideal", "--out", str(tmp_path)])
    assert code == EXIT_INFEASIBLE
    result = json.loads((tmp_path / "result.json").read_text())
    assert result["kind"] == "infeasible"
    assert not (tmp_path / "strategy.json").exists()


def test_solve_malformed_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = tmp_path / "out"
    code = main(["solve", "--game", str(bad), "--out", str(out)])
    assert code == EXIT_USAGE
    assert not out.exists()  # no partial output

    wrong = write_game(tmp_path / "wrong.json", {**COR1, "extra": 1})
    assert main(["solve", "--game", wrong, "--out", str(out)]) == EXIT_USAGE


@pytest.mark.parametrize("k", ["null", "[3]", "{}", "1e400"],
                         ids=["null", "array", "object", "1e400"])
def test_solve_game_whose_k_is_no_number_exits_usage(tmp_path, capsys, k):
    # json reads 1e400 as inf
    game = tmp_path / "game.json"
    game.write_text(json.dumps({**COR1, "k": 3}).replace('"k": 3', f'"k": {k}'))
    out = tmp_path / "out"
    assert main(["solve", "--game", str(game), "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: K must be an integer") and err.count("\n") == 1
    assert not out.exists()


def test_solve_negative_verify_samples_exits_usage(tmp_path, capsys):
    game = write_game(tmp_path / "game.json", COR1)
    out = tmp_path / "out"
    assert main(["solve", "--game", game, "--out", str(out), "--verify-samples", "-5"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "-5" in err
    assert err.count("\n") == 1
    assert not out.exists()
    # zero still means: skip the sampled line check
    assert main(["solve", "--game", game, "--out", str(out), "--verify-samples", "0"]) == EXIT_OK
    result = json.loads((out / "result.json").read_text())
    assert set(result["residuals"]) == {"defining_equality"}


def test_atomic_open_removes_its_temporary_file_on_failure(tmp_path):
    target = tmp_path / "out.csv"
    target.write_text("old\n")
    with pytest.raises(RuntimeError, match="halfway"):
        with atomic_open(str(target)) as fh:
            fh.write("partial")
            raise RuntimeError("halfway")
    assert target.read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]
    with atomic_open(str(tmp_path / "new.csv")) as fh:
        fh.write("done\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["new.csv", "out.csv"]


def test_usage_error_on_unknown_flag():
    assert main(["solve", "--nonsense"]) == EXIT_USAGE
    assert main([]) == EXIT_USAGE


def test_one_parser_serves_every_call_with_its_own_defaults(tmp_path, capsys):
    cli.build_parser.cache_clear()
    game = write_game(tmp_path / "game.json", COR1)

    def solve(out, *flags):
        code = main(["solve", "--game", game, "--out", str(tmp_path / out), *flags])
        return code, json.loads((tmp_path / out / "result.json").read_text())

    assert main(["solve", "--nonsense"]) == EXIT_USAGE
    assert main(["--version"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == cli.__version__
    code, seeded = solve("seeded", "--seed", "5", "--verify-samples", "3")
    assert code == EXIT_OK and seeded["residuals"]["line_samples_n"] == 3
    code, default = solve("default")
    assert code == EXIT_OK and default["residuals"]["line_samples_n"] == 64
    assert default["config_hash"] == cli.config_hash({
        "command": "solve", "game": game_to_dict(cli.load_game(game)), "mode": "auto", "seed": 0,
        "verify_samples": 64, "version": cli.__version__})
    assert seeded["config_hash"] != default["config_hash"]
    assert main(["solve", "--nonsense"]) == EXIT_USAGE
    assert cli.build_parser.cache_info()[:2] == (4, 1)  # five calls, one build


def test_strategy_text_is_json_dumps_byte_for_byte():
    rng = np.random.default_rng(73)
    for k in range(2, 13):
        rows = rng.dirichlet(np.full(k, 0.3), size=k * k)
        rows[0] = np.eye(k)[0]  # exact 0 and 1 entries
        rows[1, :2] = [1e-300, 1.0 - 1e-300]
        rows[2, :2] = [1.0 - 1e-16, 1e-16]
        rows[3, :2] = [5e-324, 1.0]
        obj = {"k": k, "pi": rows.tolist(),
               "zd": {"alpha": float(rng.normal()), "beta": 1.0, "gamma": -0.0,
                      "phi": rng.normal(size=k).tolist(), "residual": 1e-17, "class": "extortion"},
               "config_hash": "0123456789abcdef"}
        assert cli.strategy_text(obj) == json.dumps(obj, indent=1) + "\n", k


def test_compare_sandwich_and_regression(tmp_path):
    from zdmtd.scenarios import iot_game, iot_scenario
    g = iot_game(iot_scenario(3, 1))
    game = write_game(tmp_path / "game.json", game_to_dict(g))
    out = tmp_path / "cmp.csv"
    code = main(["compare", "--game", game, "--budget", "8", "--seed", "0",
                 "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    header = lines.index("strategy,value,wall_time")
    rows = {parts[0]: float(parts[1]) for parts in
            (line.split(",") for line in lines[header + 1:])}
    assert set(rows) == {"zd", "oneshot_sse", "search_sse", "upper_bound"}
    assert rows["zd"] <= rows["search_sse"] + 1e-9
    assert rows["search_sse"] <= rows["upper_bound"] + 1e-9
    # this payoff family admits no enforceable line: the zd row is the
    # flagged one-shot fallback (pinned regression values)
    assert any("zd_fallback" in line for line in lines[:header])
    assert rows["zd"] == pytest.approx(0.6952380947936513, abs=1e-9)
    assert rows["oneshot_sse"] == pytest.approx(0.6952380952380955, abs=1e-9)
    assert rows["search_sse"] == pytest.approx(0.6952380947936513, abs=1e-9)
    assert rows["upper_bound"] == pytest.approx(4.0285714285714285, abs=1e-9)


def test_bench_csv_shape(tmp_path):
    out = tmp_path / "bench.csv"
    code = main(["bench", "--kmax", "3", "--trials", "2", "--seed", "1",
                 "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[1] == "solver,family,k,trials,t_min_s,t_mean_s,t_max_s"
    solvers = {line.split(",")[0] for line in lines[2:]}
    assert solvers == {"zd_solve", "exhaustive_sse", "search_sse"}


@pytest.mark.parametrize("flag,value", [("--trials", "0"), ("--trials", "-2"), ("--kmax", "1")])
def test_bench_bad_sizes_exit_usage(tmp_path, capsys, flag, value):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--kmax", "2", "--trials", "1", flag, value, "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} ") and value in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_emit_mip_counts_and_roundtrip(tmp_path, monkeypatch, capsys):
    calls = []
    build = cli.build_mip

    def counting(g):
        calls.append(g.k)
        return build(g)

    for module in (cli, sse):  # every binding a rendering could reach
        monkeypatch.setattr(module, "build_mip", counting)
    game = write_game(tmp_path / "game.json", COR1)
    out = tmp_path / "model.lp"
    code = main(["emit-mip", "--game", game, "--out", str(out)])
    assert code == EXIT_OK
    assert calls == [3]  # the counts and the file come from one model
    printed = capsys.readouterr().out
    assert "binaries=27" in printed
    text = out.read_text()
    assert sse.render_mip(parse_mip(text)) == text


def test_simulate_deterministic(tmp_path):
    scenario = with_switching(crowd_scenario("honest", 50), "malicious", 50)
    mal = crowd_game(scenario, "malicious")
    game = write_game(tmp_path / "game.json", game_to_dict(mal))
    assert main(["solve", "--game", game, "--out", str(tmp_path)]) == EXIT_OK

    sc_path = tmp_path / "scenario.json"
    sc_path.write_text(json.dumps(scenario_to_dict(scenario)))
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out_a, out_b):
        code = main(["simulate", "--scenario", str(sc_path),
                     "--strategy", str(tmp_path / "strategy.json"),
                     "--steps", "5000", "--seed", "4", "--out", str(out)])
        assert code == EXIT_OK
    assert out_a.read_bytes() == out_b.read_bytes()
    header = out_a.read_text().splitlines()
    assert header[1] == "step,avg_u_d,avg_u_a,regime"
    assert header[2].endswith(("honest", "malicious"))
    for line in header[2:]:
        _, avg_u_d, avg_u_a, _ = line.split(",")
        float(avg_u_d), float(avg_u_a)  # plain floats, not np.float64(...)


def test_simulate_hash_follows_content(tmp_path):
    scenario = with_switching(crowd_scenario("honest", 50), "malicious", 10)
    mal = crowd_game(scenario, "malicious")
    game = write_game(tmp_path / "game.json", game_to_dict(mal))
    assert main(["solve", "--game", game, "--out", str(tmp_path)]) == EXIT_OK
    strategy = json.loads((tmp_path / "strategy.json").read_text())

    def header(directory, strategy_obj):
        directory.mkdir()
        (directory / "scenario.json").write_text(json.dumps(scenario_to_dict(scenario)))
        (directory / "strategy.json").write_text(json.dumps(strategy_obj))
        out = directory / "trajectory.csv"
        assert main(["simulate", "--scenario", str(directory / "scenario.json"),
                     "--strategy", str(directory / "strategy.json"),
                     "--steps", "200", "--seed", "4", "--out", str(out)]) == EXIT_OK
        return out.read_text().splitlines()[0]

    first = header(tmp_path / "a", strategy)
    assert header(tmp_path / "b", strategy) == first
    changed = dict(strategy, pi=[[1.0 / mal.k] * mal.k] * (mal.k * mal.k))
    assert header(tmp_path / "c", changed) != first


def _simulate_usage_error(tmp_path, capsys, scenario_obj, strategy_obj):
    (tmp_path / "scenario.json").write_text(json.dumps(scenario_obj))
    (tmp_path / "strategy.json").write_text(json.dumps(strategy_obj))
    code = main(["simulate", "--scenario", str(tmp_path / "scenario.json"),
                 "--strategy", str(tmp_path / "strategy.json"), "--steps", "100",
                 "--out", str(tmp_path / "trajectory.csv")])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.startswith("error: ") and err.count("\n") == 1  # no traceback
    assert not (tmp_path / "trajectory.csv").exists()
    return err


UNIFORM3 = {"k": 3, "pi": [[1 / 3] * 3] * 9}
ZD3 = {"alpha": 0.0, "beta": 1.0, "gamma": -1.0, "phi": [1.0, 0.5, 0.0]}


@pytest.mark.parametrize("strategy_obj,named", [
    ({"k": 3}, "'pi'"),
    ({"pi": UNIFORM3["pi"]}, "'k'"),
    ({**UNIFORM3, "zd": {key: v for key, v in ZD3.items() if key != "phi"}}, "'zd.phi'"),
    ({**UNIFORM3, "zd": [1.0]}, "zd block"),
    ({**UNIFORM3, "zd": {}}, "'zd.alpha'"),
    ({**UNIFORM3, "zd": []}, "zd block"),
    ({**UNIFORM3, "k": "3"}, "strategy k must be an integer, got '3'"),
    ({**UNIFORM3, "zd": {**ZD3, "alpha": "0"}}, "zd.alpha must be a number, got '0'"),
    ({**UNIFORM3, "pi": [[{}, 0.5, 0.5]] + UNIFORM3["pi"][1:]},
     "each entry of pi must be a number, got {}"),
    ({**UNIFORM3, "pi": UNIFORM3["pi"][:8] + [[None, 0.5, 0.5]]},
     "each entry of pi must be a number, got None"),
    ({**UNIFORM3, "pi": [["0.5", 0.25, 0.25]] + UNIFORM3["pi"][1:]},
     "each entry of pi must be a number, got '0.5'"),
    ({**UNIFORM3, "pi": [[True, 0.0, 0.0]] + UNIFORM3["pi"][1:]},
     "each entry of pi must be a number, got True"),
    ({**UNIFORM3, "pi": [[float("nan"), 0.5, 0.5]] + UNIFORM3["pi"][1:]},
     "pi contains non-finite entries"),
    ({**UNIFORM3, "zd": {**ZD3, "phi": [None, 0.5, 0.0]}},
     "each entry of zd.phi must be a number, got None"),
    ({**UNIFORM3, "zd": {**ZD3, "alpha": float("nan")}}, "zd.alpha must be finite, got nan"),
    ({**UNIFORM3, "zd": {**ZD3, "alpha": float("inf")}}, "zd.alpha must be finite, got inf"),
], ids=["no-pi", "no-k", "zd-without-phi", "zd-not-an-object", "zd-empty-object",
        "zd-empty-array", "k-string", "alpha-string",
        "pi-object", "pi-null", "pi-string", "pi-bool", "pi-nan", "phi-null",
        "alpha-nan", "alpha-inf"])
def test_simulate_malformed_strategy_exits_usage(tmp_path, capsys, strategy_obj, named):
    scenario = scenario_to_dict(crowd_scenario("honest", 10))
    err = _simulate_usage_error(tmp_path, capsys, scenario, strategy_obj)
    assert named in err


@pytest.mark.parametrize("edit,named", [
    (lambda sc: {**sc, "bonus": 1.0}, "unknown keys in crowd scenario JSON: ['bonus']"),
    (lambda sc: {key: v for key, v in sc.items() if key != "r_r"},
     "missing keys in crowd scenario JSON: ['r_r']"),
    (lambda sc: {**sc, "period": "10"}, "switching period must be an integer, got '10'"),
    (lambda sc: {**sc, "period": 10.0}, "switching period must be an integer, got 10.0"),
    (lambda sc: {**sc, "c": "1"}, "verification cost c must be a number, got '1'"),
    (lambda sc: {**sc, "r_r": [{}] + sc["r_r"][1:]}, "each entry of r_r must be a number, got {}"),
    (lambda sc: {**sc, "m": sc["m"][:-1] + [None]}, "each entry of m must be a number, got None"),
    (lambda sc: {**scenario_to_dict(iot_scenario(3, 1)), "s": "1"},
     "protection gain s must be a number, got '1'"),
    (lambda sc: {**scenario_to_dict(iot_scenario(3, 1)), "c": [1.0, "1", 1.0]},
     "each entry of attack costs c must be a number, got '1'"),
], ids=["unknown-key", "missing-key", "period-string", "period-float", "cost-string",
        "rewards-object", "losses-null", "iot-gain-string", "iot-costs-string"])
def test_simulate_malformed_scenario_exits_usage(tmp_path, capsys, edit, named):
    scenario = edit(scenario_to_dict(crowd_scenario("honest", 10)))
    err = _simulate_usage_error(tmp_path, capsys, scenario, UNIFORM3)
    assert named in err


@pytest.mark.parametrize("exc", [LpNumericalError, StationaryError,
                                 PolicyIterationCycleError, ZdConstructionError])
def test_numerical_errors_exit_verify(tmp_path, monkeypatch, capsys, exc):
    def fail(*args, **kwargs):
        raise exc("boom")

    monkeypatch.setattr("zdmtd.cli.solve_game", fail)
    game = write_game(tmp_path / "game.json", COR1)
    for argv in (["solve", "--game", game, "--out", str(tmp_path / "out")],
                 ["compare", "--game", game, "--out", str(tmp_path / "c.csv")]):
        assert main(argv) == EXIT_VERIFY
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "boom" in err
        assert err.count("\n") == 1  # one line, no traceback


def test_compare_exits_verify_when_no_attacked_target_is_enforceable(tmp_path, monkeypatch, capsys):
    def infeasible(lp):
        return [LpOutcome("infeasible", index=i) for i in range(lp.alternatives)]

    monkeypatch.setattr(sse, "solve_each", infeasible)
    game = write_game(tmp_path / "game.json", COR1)
    assert main(["compare", "--game", game, "--out", str(tmp_path / "c.csv")]) == EXIT_VERIFY
    err = capsys.readouterr().err
    assert err == "error: LpNumericalError: no attacked target is enforceable; malformed game\n"


def test_compare_on_a_game_whose_swap_search_start_misses_the_floor(tmp_path):
    # a structured K = 4 game with every payoff times 2^20: on one scoring
    # call Howard's u_a reads 4.7e-10 below gain - TIE_TOL and no constant
    # policy reaches it, so the swap search starts from Howard's policy
    g = ideal_feasible_game(4, np.random.default_rng([4, 10]))
    scale = 2.0 ** 20
    g = GameSpec(4, g.u_d_cov * scale, g.u_d_unc * scale, g.u_a_cov * scale, g.u_a_unc * scale)
    game = write_game(tmp_path / "game.json", game_to_dict(g))
    out = tmp_path / "c.csv"
    assert main(["compare", "--game", game, "--budget", "4", "--out", str(out)]) == EXIT_OK
    assert [line.split(",")[0] for line in out.read_text().splitlines()[2:]] == [
        "zd", "oneshot_sse", "search_sse", "upper_bound"]


def test_solve_game_function_modes():
    g = GameSpec(3, (5, 4, 3), (0, 0, 0), (-2, 1, 0), (3, -2, -4))
    out = solve_game(g, mode="auto", verify_samples=16, seed=0)
    assert out.kind == "ideal"
    assert out.residual <= 1e-8
    assert out.realized is not None
    assert out.realized.u_d == pytest.approx(5.0, abs=1e-6)

    forced = solve_game(g, mode="optimal", verify_samples=0)
    assert forced.kind == "optimal"


def test_solve_game_builds_each_candidate_once(monkeypatch):
    # games with unsorted labels reach the optimal program: the winner is the
    # candidate solve_optimal built and scored, not built again; solve_game
    # scores it once more, in the caller's labels
    from zdmtd import cli, programs
    from zdmtd.mdp import defender_utility_under_br

    log = []  # (what, inside solve_optimal)
    inside = []

    def spy(name, fn, counts=lambda out: True):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            if counts(out):
                log.append((name, bool(inside)))
            return out
        return wrapper

    def optimal(*args, **kwargs):
        inside.append(True)
        try:
            return programs.solve_optimal(*args, **kwargs)
        finally:
            inside.pop()

    score = spy("score", defender_utility_under_br)
    build = spy("build", programs.realize_params, lambda out: out is not None)
    for module in (cli, programs):
        monkeypatch.setattr(module, "defender_utility_under_br", score)
        monkeypatch.setattr(module, "realize_params", build)
    monkeypatch.setattr(cli, "solve_optimal", optimal)

    rng = np.random.default_rng(8)
    optimal_games = 0
    for trial in range(24):
        k = 2 + trial % 2
        base = random_game(k, rng)
        perm = rng.permutation(k)
        while np.array_equal(perm, np.arange(k)):
            perm = rng.permutation(k)
        g = GameSpec(k, base.u_d_cov[perm], base.u_d_unc[perm],
                     base.u_a_cov[perm], base.u_a_unc[perm])
        log.clear()
        out = solve_game(g, verify_samples=0)
        if out.kind != "optimal":
            continue
        optimal_games += 1
        shortlisted = log.count(("build", True))
        assert shortlisted >= 1
        assert log.count(("score", True)) == shortlisted
        assert log.count(("score", False)) == 1 and ("build", False) not in log
        fresh, _ = defender_utility_under_br(g, out.strategy)
        assert out.realized.u_d == fresh.u_d and out.realized.u_a == fresh.u_a
    assert optimal_games >= 8, optimal_games


def test_solve_game_reuses_the_winner_score_in_canonical_labels(monkeypatch):
    # when the caller's labels are already canonical, solve_optimal scored
    # the winner on the very game and strategy solve_game returns: no second
    # scoring call, and the same values a fresh call gives
    from zdmtd import cli, programs
    from zdmtd.game import canonicalize
    from zdmtd.mdp import defender_utility_under_br

    calls = {"cli": 0, "programs": 0}

    def spy(where):
        def wrapper(*args):
            calls[where] += 1
            return defender_utility_under_br(*args)
        return wrapper

    monkeypatch.setattr(cli, "defender_utility_under_br", spy("cli"))
    monkeypatch.setattr(programs, "defender_utility_under_br", spy("programs"))
    rng = np.random.default_rng(8)
    optimal_games = 0
    for trial in range(24):
        g, _ = canonicalize(random_game(2 + trial % 2, rng))
        assert canonicalize(g)[1].is_identity()
        calls.update(cli=0, programs=0)
        out = solve_game(g, verify_samples=0)
        if out.kind != "optimal":
            assert calls["cli"] == (out.kind == "ideal")
            continue
        optimal_games += 1
        assert calls["cli"] == 0 and calls["programs"] >= 1
        fresh, _ = defender_utility_under_br(g, out.strategy)
        assert out.realized == fresh
    assert optimal_games >= 8, optimal_games


def test_solve_game_ignores_label_order(monkeypatch):
    # two cells often realize one line, and their scores then differ only by
    # rounding that depends on the label order: relabeled copies of a game
    # must still get the same line from the same targets
    from zdmtd import programs

    rng = np.random.default_rng(1)
    drawn = [random_game(2 + t % 2, rng) for t in range(44)]
    near_tied = [drawn[35], drawn[43],
                 GameSpec(2, (2.0, 1.0), (1.0, -1.0), (-1.0, -1.0), (-2.0, 1.0))]
    score = programs.defender_utility_under_br
    for base in drawn[:6] + near_tied:
        seen = set()
        for perm in itertools.permutations(range(base.k)):
            perm = np.array(perm)
            g = GameSpec(base.k, np.asarray(base.u_d_cov)[perm], np.asarray(base.u_d_unc)[perm],
                         np.asarray(base.u_a_cov)[perm], np.asarray(base.u_a_unc)[perm])
            scores = []

            def spy(*args):
                scored = score(*args)
                scores.append(scored[0].u_d)
                return scored

            monkeypatch.setattr(programs, "defender_utility_under_br", spy)
            out = solve_game(g, verify_samples=0)
            if any(base is b for b in near_tied):
                top = sorted(scores)[-2:]
                assert out.kind == "optimal" and top[1] - top[0] < 1e-8
            seen.add((out.kind, out.params.as_array().tobytes() if out.params else None,
                      out.cell and tuple(int(perm[c - 1]) for c in out.cell)))
        assert len(seen) == 1, seen


def test_solve_game_relabels_strategy_and_phi_bit_for_bit():
    # every relabeled copy of a game without covered-profit ties canonicalizes
    # to the same game, so its strategy and phi are the base's, relabeled
    # exactly; the expectation is the pointwise label map, and the defining
    # residual catches a mislabeling that the base's solve shares
    rng = np.random.default_rng(1)
    drawn = [random_game(2 + t % 2, rng) for t in range(30)]
    for base in [drawn[n] for n in (0, 1, 2, 3, 17, 27, 29)]:  # ideal, optimal, varied cells
        want = solve_game(base, verify_samples=0)
        assert want.kind in ("ideal", "optimal")
        k = base.k
        for perm in itertools.permutations(range(k)):  # target t+1 is base's perm[t]+1
            perm = np.array(perm)
            g = GameSpec(k, base.u_d_cov[perm], base.u_d_unc[perm],
                         base.u_a_cov[perm], base.u_a_unc[perm])
            out = solve_game(g, verify_samples=0)
            assert out.residual <= 1e-8 and out.params == want.params
            assert tuple(int(perm[c - 1]) + 1 for c in out.cell) == want.cell
            for t in range(k):
                assert out.phi[t] == want.phi[perm[t]]
                for i in range(k):
                    for j in range(k):
                        assert (out.strategy.rows[i * k + j, t]
                                == want.strategy.rows[perm[i] * k + perm[j], perm[t]])


def test_compare_scores_the_zd_strategy_once(tmp_path, monkeypatch):
    # the IoT family falls back to the one-shot lift, which is also the
    # search's first seed: one one-shot LP pass and one scoring for both
    from zdmtd import cli, programs, sse
    from zdmtd.mdp import defender_utility_under_br
    from zdmtd.scenarios import iot_game, iot_scenario

    counts = {"score": 0, "oneshot": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    score = counted("score", defender_utility_under_br)
    for module in (cli, programs, sse):
        monkeypatch.setattr(module, "defender_utility_under_br", score)
    oneshot = counted("oneshot", sse.oneshot_sse)
    monkeypatch.setattr(cli, "oneshot_sse", oneshot)
    monkeypatch.setattr(sse, "oneshot_sse", oneshot)

    game = write_game(tmp_path / "game.json", game_to_dict(iot_game(iot_scenario(3, 1))))
    budget = 8
    assert main(["compare", "--game", game, "--budget", str(budget), "--seed", "0",
                 "--out", str(tmp_path / "cmp.csv")]) == EXIT_OK
    assert counts == {"score": 1 + budget, "oneshot": 1}


SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_solve(tmp_path, game, *python_flags, timeout=20):
    """`zdmtd solve` in a fresh interpreter; (exit code, stderr, seconds)."""
    path = write_game(tmp_path / "game.json", game)
    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *python_flags, "-m", "zdmtd.cli", "solve",
                           "--game", path, "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, env=env, timeout=timeout)
    return proc.returncode, proc.stderr, time.perf_counter() - start


@pytest.mark.parametrize("game", [
    {"k": 2, "u_d_cov": [1, 1], "u_d_unc": [0, 0], "u_a_cov": [0, 0], "u_a_unc": [1, 1]},
    {"k": 3, "u_d_cov": [1, 1, 1], "u_d_unc": [0, 0, 0], "u_a_cov": [0, 0, 0],
     "u_a_unc": [1, 1, 1]},
    {"k": 2, "u_d_cov": [2, 2], "u_d_unc": [1, 1], "u_a_cov": [1, 1], "u_a_unc": [2, 2]},
], ids=["k2-unit", "k3-unit", "k2-shifted"])
def test_solve_tied_games_finish(tmp_path, game):
    # tied payoffs: the sampled chains of the verification step are reducible
    code, err, seconds = run_solve(tmp_path, game)
    assert code == EXIT_OK, err
    assert seconds < 10, seconds
    result = json.loads((tmp_path / "out" / "result.json").read_text())
    assert result["residuals"]["defining_equality"] <= 1e-8
    assert result["residuals"]["line_samples_max"] <= 1e-8


def test_solve_rejects_overflowing_payoffs(tmp_path):
    game = {"k": 2, "u_d_cov": [1e300, 5e299], "u_d_unc": [0, 1],
            "u_a_cov": [2, -1e300], "u_a_unc": [3e299, 1]}
    code, err, _ = run_solve(tmp_path, game, "-W", "error::RuntimeWarning")
    assert code == EXIT_USAGE
    assert err.startswith("error: u_d_cov ")


def test_solve_largest_payoffs_raise_no_warning(tmp_path):
    game = {"k": 2, "u_d_cov": [1e100, 5e99], "u_d_unc": [0, 1],
            "u_a_cov": [2, -1e100], "u_a_unc": [3e99, 1]}
    code, err, _ = run_solve(tmp_path, game, "-W", "error::RuntimeWarning")
    assert code in (EXIT_OK, EXIT_INFEASIBLE, EXIT_VERIFY), err
    assert "Warning" not in err and "Traceback" not in err
