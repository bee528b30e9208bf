import dataclasses
import importlib.util
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from zdmtd import cli, programs
from zdmtd import lp as lp_module
from zdmtd.cli import solve_game
from zdmtd.game import GameSpec, canonicalize, relabeling
from zdmtd.lp import LinearProgram
from zdmtd.markov import max_line_residual
from zdmtd.programs import (
    HullPolygon,
    LambdaCell,
    _pencil_values,
    _sweep_slices,
    hull,
    realize_params,
    solve_ideal,
    solve_optimal,
)
from zdmtd.rng import stream
from zdmtd.zd import ZdLinearParams, defining_residual

import oracles
from oracles import (
    check_corollaries,
    directional_value,
    hull_contains,
    ideal_feasible_game,
    k2_grid_oracle,
    line_section,
    null_space,
    pipeline_value,
    random_game,
    sweep_2d_reference,
)

COR1 = GameSpec(3, (5, 4, 3), (0, 0, 0), (-2, 1, 0), (3, -2, -4))
EXTORT = GameSpec(3, (2.0, 1.2, 1.0), (1.5, 0.6, -1.0), (1.0, 0.5, 2.0), (1.0, 0.3, -1.0))


def eq10_rows_hold(g, p, role1, role_k, tol=1e-8):
    c = p.alpha * g.u_d_cov + p.beta * g.u_a_cov + p.gamma
    u = p.alpha * g.u_d_unc + p.beta * g.u_a_unc + p.gamma
    mids = [t for t in range(1, g.k + 1) if t not in (role1, role_k)]
    return (
        abs(c[role1 - 1]) <= tol
        and c[role_k - 1] >= -tol
        and u[role1 - 1] >= -tol
        and all(abs(u[t - 1]) <= tol for t in mids)
        and u[role_k - 1] <= tol
        and p.alpha <= tol
        and p.beta >= -tol
    )


def test_solve_ideal_corollary1_instance():
    res = solve_ideal(COR1)
    assert res.found
    assert eq10_rows_hold(COR1, res.params, res.role1, res.role_k)
    # alpha = 0 is admissible for this instance: verify by direct substitution
    from zdmtd.zd import ZdLinearParams
    assert eq10_rows_hold(COR1, ZdLinearParams(0, 1, 2), 1, 3)


def test_solve_ideal_scale_invariance():
    res = solve_ideal(COR1)
    p = res.params
    from zdmtd.zd import ZdLinearParams
    for c in (0.5, 3.0, 17.0):
        scaled = ZdLinearParams(c * p.alpha, c * p.beta, c * p.gamma)
        assert eq10_rows_hold(COR1, scaled, res.role1, res.role_k)


def test_solve_ideal_overdetermined_infeasible():
    rng = np.random.default_rng(6)
    for k in (4, 5):
        g = random_game(k, rng)
        # rank oracle: with pairwise-distinct uncovered pairs the equality
        # rows already span all of parameter space for every role choice
        for role1 in (1,):
            for role_k in range(2, k + 1):
                rows = [[g.u_d_cov[role1 - 1], g.u_a_cov[role1 - 1], 1.0]]
                rows += [[g.u_d_unc[t - 1], g.u_a_unc[t - 1], 1.0]
                         for t in range(1, k + 1) if t not in (role1, role_k)]
                assert np.linalg.matrix_rank(np.array(rows)) == 3
        assert not solve_ideal(g).found


def test_solve_ideal_k2_matches_circle_grid():
    # grid oracle: the covered-at-1 equality defines a plane; sweep the unit
    # circle inside it and test the sign conditions.  The grid cannot resolve
    # slivers thinner than its step, so the comparison is two-sided: an LP
    # "feasible" must show up at step-sized slack, an LP "infeasible" must
    # leave no strictly feasible grid point.
    rng = np.random.default_rng(41)
    step = 1e-2
    for _ in range(20):
        g = random_game(2, rng)
        res = solve_ideal(g)
        basis = np.linalg.svd(
            np.array([[g.u_d_cov[0], g.u_a_cov[0], 1.0]]))[2][1:].T
        ts = np.arange(0.0, 2 * np.pi, step)
        pts = basis @ np.stack([np.cos(ts), np.sin(ts)])
        c2 = pts.T @ np.array([g.u_d_cov[1], g.u_a_cov[1], 1.0])
        u1 = pts.T @ np.array([g.u_d_unc[0], g.u_a_unc[0], 1.0])
        u2 = pts.T @ np.array([g.u_d_unc[1], g.u_a_unc[1], 1.0])

        def grid_found(slack):
            return bool(np.any(
                (c2 >= -slack) & (u1 >= -slack) & (u2 <= slack)
                & (pts[0] <= slack) & (pts[1] >= -slack)
                & (np.abs(pts[0]) + np.abs(pts[1]) > 1e-6)
            ))

        scale = max(1.0, float(np.max(np.abs([*g.u_d_cov, *g.u_a_cov,
                                              *g.u_d_unc, *g.u_a_unc]))))
        if res.found:
            assert grid_found(2 * step * scale)
        else:
            assert not grid_found(1e-9)


def test_check_corollaries_examples():
    rep = check_corollaries(COR1)
    assert rep.equalizer and not rep.extortion

    rep = check_corollaries(EXTORT)
    assert rep.extortion and rep.chi == pytest.approx(2.0)
    assert not rep.generous

    # boundary chi = 1: defender and attacker values coincide entrywise
    both = GameSpec(2, (2.0, 1.5), (1.0, 0.5), (2.0, 1.5), (1.0, 0.5))
    rep = check_corollaries(both)
    assert rep.extortion and rep.generous and rep.chi == pytest.approx(1.0)

    with pytest.raises(ValueError, match="chi undefined"):
        check_corollaries(COR1, theta=COR1.u_a_cov[0])


def test_corollaries_imply_ideal_feasible():
    for g in (COR1, EXTORT,
              GameSpec(2, (2.0, 1.5), (1.0, 0.5), (2.0, 1.5), (1.0, 0.5))):
        rep = check_corollaries(g)
        assert rep.equalizer or rep.extortion or rep.generous
        assert solve_ideal(g).found


def test_corollaries_generic_smoke():
    rng = np.random.default_rng(123)
    hits = 0
    for _ in range(50):
        g = random_game(3, rng)
        try:
            rep = check_corollaries(g)
        except ValueError:
            continue
        hits += rep.equalizer or rep.extortion or rep.generous
    assert hits <= 25  # generic instances rarely satisfy any corollary


def test_hull_square_and_degenerate():
    g = GameSpec(2, (1, 1), (0, 0), (1, 0), (1, 0))
    hp = hull(g)
    assert hp.n == 4
    assert sorted(map(tuple, hp.vertices)) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert hull_contains(hp, 0.5, 0.5)
    assert not hull_contains(hp, 1.5, 0.5)

    pt = HullPolygon(np.array([[2.0, 3.0]]))
    assert hull_contains(pt, 2, 3) and not hull_contains(pt, 2.1, 3)

    seg = HullPolygon(np.array([[0.0, 0.0], [1.0, 1.0]]))
    assert hull_contains(seg, 0.5, 0.5) and not hull_contains(seg, 0.5, 0.6)
    sec = line_section(seg, 1.0, 1.0, -1.0)  # x + y = 1 crosses the segment
    assert len(sec) >= 1
    assert sec[0] == pytest.approx((0.5, 0.5))


def _hull_games(case):
    """Payoff sets for each shape of hull: one point (no valid game has
    one, so a bare namespace), a segment, collinear pairs, repeated pairs
    and random games K = 2..50."""
    rng = np.random.default_rng(41)
    if case == "point":
        return [SimpleNamespace(u_d_cov=np.full(3, 0.3), u_a_cov=np.full(3, -0.2),
                                u_d_unc=np.full(3, 0.3), u_a_unc=np.full(3, -0.2))]
    if case == "segment":
        return [GameSpec(2, (1.0, 1.0), (0.0, 0.0), (3.0, 3.0), (1.0, 1.0))]
    if case == "collinear":  # every pair on u_a = 0.1 u_d - 0.7, with a third of them repeated
        games = []
        for k in (2, 3, 5, 8):
            unc = np.round(rng.uniform(-3, 0, size=k), 1)
            cov = unc + np.round(rng.uniform(0.1, 2, size=k), 1)
            unc[::3], cov[::3] = unc[0], cov[0]
            games.append(GameSpec(k, cov, unc, 0.1 * cov - 0.7, 0.1 * unc - 0.7))
        return games
    if case == "repeated":
        return _repeated_payoff_games(rng, 40)
    return [random_game(k, rng, scale) for k in range(2, 51) for scale in (1.0, 1e-3, 1e3)]


@pytest.mark.parametrize("case", ["point", "segment", "collinear", "repeated", "random"])
def test_hull_walk_matches_the_numpy_scalar_walk(case):
    # the walk on Python floats makes the same IEEE operations as the walk
    # on numpy scalars, so the vertices are the same bits
    for g in _hull_games(case):
        got, want = hull(g).vertices, oracles.hull_reference(g).vertices
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), g
    if case in ("point", "segment"):
        assert len(want) == {"point": 1, "segment": 2}[case]


def test_hull_matches_orientation_oracle():
    rng = np.random.default_rng(13)
    g = random_game(3, rng)
    hp = hull(g)
    pts = np.concatenate([
        np.column_stack([g.u_d_cov, g.u_a_cov]),
        np.column_stack([g.u_d_unc, g.u_a_unc]),
    ])
    # O(n^3) oracle: (i, j) is a hull edge iff every other point is weakly left
    edge_points = set()
    n = len(pts)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            d = pts[j] - pts[i]
            cross = d[0] * (pts[:, 1] - pts[i, 1]) - d[1] * (pts[:, 0] - pts[i, 0])
            if np.all(cross >= -1e-12):
                edge_points.add((round(pts[i][0], 9), round(pts[i][1], 9)))
                edge_points.add((round(pts[j][0], 9), round(pts[j][1], 9)))
    got = {(round(x, 9), round(y, 9)) for x, y in hp.vertices}
    assert got == edge_points


def test_solve_game_short_circuits_on_ideal():
    res = solve_game(COR1, verify_samples=0)
    assert res.kind == "ideal"
    assert res.predicted.u_d == pytest.approx(5.0, abs=1e-9)


def test_solve_game_never_enters_solve_optimal_on_ideal_games(monkeypatch):
    def spy(*args, **kwargs):
        raise AssertionError("solve_optimal ran on an ideal-feasible game")

    for module in (cli, programs):
        monkeypatch.setattr(module, "solve_optimal", spy)
    rng = np.random.default_rng(31)
    games = [COR1, EXTORT] + [ideal_feasible_game(k, rng) for k in (2, 3, 5) for _ in range(2)]
    for g in games:
        assert solve_game(g, verify_samples=0).kind == "ideal"


def test_solve_game_k2_beats_grid_oracle_seed9():
    rng = np.random.default_rng(9)
    g = random_game(2, rng)
    res = solve_game(g, verify_samples=0)
    value = pipeline_value(g, res)
    assert value is not None
    oracle, n_checked = k2_grid_oracle(g)
    assert n_checked > 0
    assert value >= oracle - 1e-3


def test_solve_optimal_reports_unique_consistent_cell():
    # K=5 with the uncovered pairs of targets 3..5 collinear (u_a = 1) and
    # those of targets 1, 2 off that line: only the cells excluding {1, 2}
    # have a rank-deficient equality system, so the solver must report one
    # of those and the line u_a = 1 (ordered enumeration picks (1, 2))
    g = GameSpec(
        5,
        (5.0, 4.0, 3.0, 2.0, 1.0),
        (1.0, 0.5, 0.0, -1.0, -2.0),
        (0.0, 3.0, 1.5, 0.5, 1.0),
        (2.0, 0.0, 1.0, 1.0, 1.0),
    )
    res = solve_optimal(g, evaluate_br=True)
    assert res.kind == "optimal"
    assert {res.cell.i1, res.cell.i2} == {1, 2}
    assert (res.cell.i1, res.cell.i2) == (1, 2)
    p = res.params
    assert abs(p.alpha) <= 1e-9 and p.beta * 1.0 + p.gamma == pytest.approx(0, abs=1e-9)


def test_optimal_predicted_on_line_and_in_hull():
    rng = np.random.default_rng(77)
    found = 0
    for _ in range(10):
        g = random_game(2, rng)
        res = solve_optimal(g, evaluate_br=True)
        if res.kind != "optimal":
            continue
        found += 1
        p = res.params
        line = abs(p.alpha * res.predicted.u_d + p.beta * res.predicted.u_a + p.gamma)
        assert line <= 1e-9
        assert hull_contains(hull(g), res.predicted.u_d, res.predicted.u_a)
        # the cell constraints hold at the winner (c = 1) and, by homogeneity,
        # survive positive rescaling
        gmat = oracles.cell_ineq_rows(g, res.cell)
        for c in (1.0, 0.5, 7.0):
            vec = c * p.as_array()
            assert np.min(gmat @ vec) >= -1e-8 * c * max(1.0, np.max(np.abs(gmat)))
            assert abs(vec @ [res.predicted.u_d, res.predicted.u_a, 1.0]) <= 1e-8 * c
    assert found >= 5


def test_theorem2_upper_bound_property():
    rng = np.random.default_rng(55)
    for k in (2, 3):
        for _ in range(6):
            g = ideal_feasible_game(k, rng)
            res = solve_game(g, verify_samples=0)
            value = pipeline_value(g, res)
            assert value is not None
            assert value <= np.max(g.u_d_cov) + 1e-9


def test_theorem3_value_on_ideal_instances():
    rng = np.random.default_rng(31)
    for k in (3, 5):
        for _ in range(4):
            g = ideal_feasible_game(k, rng)
            res = solve_game(g, verify_samples=0)
            assert res.kind == "ideal"
            value = pipeline_value(g, res)
            assert value == pytest.approx(float(np.max(g.u_d_cov)), abs=1e-6)


def test_realize_params_verifies():
    res = solve_ideal(COR1)
    strategy, zd, phi = realize_params(COR1, res.params, res.role1, res.role_k)
    frame = relabeling(COR1.k, res.role1, res.role_k)
    gw = frame.apply_game(COR1)
    p = zd.params
    assert defining_residual(gw, zd.strategy, p, zd.phi.phi) <= 1e-8
    # the strategy and phi come back in COR1's own labels
    assert np.array_equal(strategy.rows, frame.invert_strategy(zd.strategy).rows)
    assert np.array_equal(phi, frame.invert_phi(zd.phi.phi))
    assert defining_residual(COR1, strategy, p, phi) <= 1e-8
    assert max_line_residual(gw, zd.strategy, p.alpha, p.beta, p.gamma, 200,
                             stream(11, "zd-verify")) <= 1e-8


def test_solve_ideal_with_a_payoff_near_the_lp_tolerance():
    # phase 1's tableau, updated in place by each pivot, drifts here until a
    # column with no positive entry looks improving; re-forming it from the
    # basis recovers
    assert solve_ideal(GameSpec(2, (1.1, 0.125), (0.0, 0.0), (5e-9, 0.0), (0.0, 0.0))).found


def test_solve_with_a_payoff_near_the_lp_tolerance_finds_a_feasible_point():
    # phase 2 ends on a basis whose drifted rhs reads feasible while its point
    # violates a row by 3.9e-2; re-forming the tableau from the basis recovers
    g = GameSpec(2, (-4.9, 3.0), (-5.0, 0.0), (0.0, 0.0), (-4.7, 1e-7))
    out = solve_game(g, verify_samples=64)
    assert out.kind == "ideal"
    assert out.residual <= 1e-8 and out.max_line_residual <= 1e-8


def test_lambda_cell_validation():
    with pytest.raises(ValueError):
        LambdaCell(2, 2)


def _recorded_batches(monkeypatch, games):
    """Every batch of slices (gmat, basis) the optimal program sweeps on
    these games, one per game, with its hull."""
    calls = []

    def record(slices, hp):
        calls.append((slices, hp))
        return [None] * len(slices)

    monkeypatch.setattr(programs, "_sweep_slices", record)
    for g in games:
        solve_optimal(g, evaluate_br=False)
    monkeypatch.undo()
    return calls


def _matches_reference(slices, hp):
    """The batch's results, checked slice by slice against the scalar loop."""
    got = _sweep_slices(slices, hp)
    assert len(got) == len(slices)
    for res, (gmat, basis) in zip(got, slices):
        want = sweep_2d_reference(gmat, basis, hp)
        assert (res is None) == (not want)
        if want:
            assert np.array_equal(res, want[0])
    return got


def test_sweep_2d_matches_reference_loop(monkeypatch):
    # bit identity, not a tolerance: on flat stretches of the value, ulp
    # noise decides the winning angle, so any reordered arithmetic shows
    rng = np.random.default_rng(23)
    games = [random_game(k, rng, scale) for k in (2, 3) for scale in (1.0, 10.0, 1.0, 10.0)]
    batches = _recorded_batches(monkeypatch, games)
    found = [sum(r is not None for r in _sweep_slices(*b)) for b in batches]
    hit = next(b for b, n in zip(batches, found) if n >= 4)
    miss = next(b for b, n in zip(batches, found) if n == 0 and len(b[0]) >= 4)
    for slices, hp in (hit, miss):
        _matches_reference(slices, hp)


@pytest.mark.parametrize("case", ["point", "segment", "infeasible", "miss", "all-miss"])
def test_sweep_2d_matches_reference_on_degenerate_slices(case):
    square = HullPolygon(np.array([[10.0, 10.0], [11.0, 10.0], [11.0, 11.0], [10.0, 11.0]]))
    open_cone = np.zeros((4, 3))
    through_origin = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    rng = np.random.default_rng(5)
    basis = np.linalg.qr(rng.normal(size=(3, 2)))[0]
    gmat, hp = {
        "point": (open_cone, HullPolygon(np.array([[0.3, -0.2]]))),
        "segment": (open_cone, HullPolygon(np.array([[-1.0, 0.5], [2.0, 1.5]]))),
        # x >= 0, -x >= 0, y >= 0, -y >= 0 leaves no unit vector
        "infeasible": (np.array([[1.0, 0, 0], [-1.0, 0, 0], [0, 1.0, 0], [0, -1.0, 0]]), square),
        # lines through the origin: most miss the square, a few cross it
        "miss": (open_cone, square),
        # alpha, beta >= 0: every line through the origin misses the square
        "all-miss": (np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 0], [0, 0, 0]]), square),
    }[case]
    if case in ("miss", "all-miss"):
        basis = through_origin
    if case == "point":  # every line passes through the point: a flat value
        basis = null_space(np.array([[0.3, -0.2, 1.0]]))
    got = _matches_reference([(gmat, basis)], hp)
    assert (got[0] is None) == (case in ("infeasible", "all-miss"))


def _refinement_lines(monkeypatch):
    """The lines of each kernel call the lockstep refinement makes, as a
    list that fills while the patches hold."""
    lines, inside = [], []
    kernel, refine = programs._pencil_values, programs._refine

    def spy(ps, hp):
        if inside:
            lines.append(ps.copy())
        return kernel(ps, hp)

    def refine_spy(*args):
        inside.append(True)
        try:
            return refine(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(programs, "_pencil_values", spy)
    monkeypatch.setattr(programs, "_refine", refine_spy)
    return lines


def _arc(basis, a, b):
    """Cell rows keeping the slice's angles in [a, b]."""
    return np.array([[-np.sin(a), np.cos(a)], [np.sin(b), -np.cos(b)],
                     [0.0, 0.0], [0.0, 0.0]]) @ basis.T


# every line of these slices passes through (0.3, -0.2), inside the square
_SQUARE = HullPolygon(np.array([[-1.0, -0.5], [2.0, -0.5], [2.0, 1.5], [-1.0, 1.5]]))
_BASIS = null_space(np.array([[0.3, -0.2, 1.0]]))
_SAMPLE = 1000 * programs._SWEEP_STEP
_SLICES = [
    (np.zeros((4, 3)), _BASIS),  # open cone: both angles feasible at every step
    (_arc(_BASIS, 0.3, 0.70005), _BASIS),  # the best sample is the arc's end: one angle
    # only one sample is feasible, and the first steps' angles lie outside
    (_arc(_BASIS, _SAMPLE - 1e-4, _SAMPLE + 1e-4), _BASIS),
]


def test_sweep_2d_refines_slices_with_one_two_or_no_feasible_angle(monkeypatch):
    lines = _refinement_lines(monkeypatch)
    got = _sweep_slices(_SLICES, _SQUARE)
    monkeypatch.undo()
    assert lines[0].shape[1] == 2 + 1 + 0 and len(lines) == 24
    assert all(r is not None for r in got)
    _matches_reference(_SLICES, _SQUARE)


@pytest.mark.parametrize("which", [0, 1, 2])
def test_sweep_2d_refinement_scores_the_reference_lines(monkeypatch, which):
    # the stacked product must round as each angle's own basis @ z does
    scored = []
    section = oracles.line_section

    def record(hp, a, b, c, *args):
        scored.append((a, b, c))
        return section(hp, a, b, c, *args)

    lines = _refinement_lines(monkeypatch)
    _sweep_slices([_SLICES[which]], _SQUARE)
    got = np.hstack(lines)
    monkeypatch.setattr(oracles, "line_section", record)
    sweep_2d_reference(*_SLICES[which], _SQUARE)
    monkeypatch.undo()
    assert got.shape[1] >= 24
    assert np.array_equal(got, np.array(scored[len(scored) - got.shape[1]:]).T)


def test_sweep_2d_skips_the_kernel_without_a_line(monkeypatch):
    # a slice or a cell with no feasible line makes no zero-width kernel call
    widths = []

    def spy(ps, hp):
        widths.append(ps.shape[1])
        return _pencil_values(ps, hp)

    monkeypatch.setattr(programs, "_pencil_values", spy)
    square = HullPolygon(np.array([[10.0, 10.0], [11.0, 10.0], [11.0, 11.0], [10.0, 11.0]]))
    infeasible = np.array([[1.0, 0, 0], [-1.0, 0, 0], [0, 1.0, 0], [0, -1.0, 0]])
    basis = np.linalg.qr(np.random.default_rng(5).normal(size=(3, 2)))[0]
    assert _sweep_slices([(infeasible, basis)], square) == [None]
    assert widths == []
    rng = np.random.default_rng(23)
    for g in [random_game(k, rng, scale) for k in (2, 3) for scale in (1.0, 10.0)]:
        solve_optimal(g, evaluate_br=False)
    assert widths and min(widths) > 0


def test_solve_optimal_refines_all_slices_in_one_lockstep_pass(monkeypatch):
    # one K = 2 game refines ten slices; a slice-at-a-time refinement would
    # make 24 kernel calls for each of them
    g = random_game(2, np.random.default_rng(1))
    refined = []
    refine = programs._refine

    def count(group, hp):
        refined.append(len(group))
        return refine(group, hp)

    monkeypatch.setattr(programs, "_refine", count)
    lines = _refinement_lines(monkeypatch)
    solve_optimal(g, evaluate_br=False)
    assert sum(refined) == 10
    assert 0 < len(lines) <= 24


def _same(a, b):
    """Equal field by field, arrays bit for bit."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if dataclasses.is_dataclass(a):
        return all(_same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    return a == b


def test_solve_optimal_matches_a_per_slice_reference_sweep(monkeypatch):
    rng = np.random.default_rng(31)
    games = [random_game(2 + t % 2, rng) for t in range(20)]
    cache = {}

    def reference(slices, hp):
        out = []
        for gmat, basis in slices:
            key = (gmat.tobytes(), basis.tobytes(), hp.vertices.tobytes())
            if key not in cache:
                cache[key] = sweep_2d_reference(gmat, basis, hp)
            out.append(cache[key][0] if cache[key] else None)
        return out

    for evaluate_br in (False, True):
        got = [solve_optimal(g, evaluate_br) for g in games]
        monkeypatch.setattr(programs, "_sweep_slices", reference)
        want = [solve_optimal(g, evaluate_br) for g in games]
        monkeypatch.undo()
        assert sum(w.kind == "optimal" for w in want) >= 10
        assert all(_same(x, y) for x, y in zip(got, want))


def _section_reference(ps, hp):
    """(value, x, y) rows of the scalar reference for each line ps[:, j]: the
    first section point of largest u_d, NaN where the line misses."""
    out = []
    for p in ps.T:
        pts = line_section(hp, *p)
        if pts:
            x, y = max(pts, key=lambda q: q[0])
            out.append((directional_value(p, pts), x, y))
        else:
            out.append((np.nan, np.nan, np.nan))
    return np.array(out).T


def test_pencil_values_match_reference_on_recorded_candidates(monkeypatch):
    # bit identity: solve_optimal reports the point and ranks by the value
    cells, swept = [], []
    original, sweep = programs._game_candidates, programs._sweep_slices

    def record(open_cells, hp, unc, gmats, scales):
        lists = original(open_cells, hp, unc, gmats, scales)
        cells.extend((cands, hp) for cands in lists)
        return lists

    def record_sweep(slices, hp):
        swept.extend(sweep(slices, hp))
        return swept[len(swept) - len(slices):]

    monkeypatch.setattr(programs, "_game_candidates", record)
    monkeypatch.setattr(programs, "_sweep_slices", record_sweep)
    rng = np.random.default_rng(12)
    for k in (2, 3, 4, 5):
        for _ in range(3):
            solve_optimal(random_game(k, rng), evaluate_br=False)
    monkeypatch.undo()
    recorded, found = [], iter(swept)  # each slice marker takes its sweep result
    for cands, hp in cells:
        vecs = [next(found) if isinstance(c, tuple) else c for c in cands]
        vecs = [ZdLinearParams(*c).normalized().as_array() for c in vecs if c is not None]
        if vecs:
            recorded.append((np.array(vecs).T, hp))
    hits = 0
    for ps, hp in recorded:
        got, want = np.array(_pencil_values(ps, hp)), _section_reference(ps, hp)
        assert np.array_equal(got, want, equal_nan=True)
        hits += int(np.count_nonzero(~np.isnan(want[0])))
    assert len(recorded) >= 10 and hits >= 10


@pytest.mark.parametrize("case", ["point", "segment", "vertical-edge", "vertex", "miss"])
def test_pencil_values_match_reference_on_special_lines(case):
    square = HullPolygon(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
    hp, lines = {
        # through the point, and two lines that pass it by
        "point": (HullPolygon(np.array([[0.3, -0.2]])),
                  [(1.0, 0.0, -0.3), (2.0, 1.0, -0.4), (0.0, 1.0, 1.0), (1.0, 1.0, 0.0)]),
        # across the segment, through one end, and missing it
        "segment": (HullPolygon(np.array([[-1.0, 0.5], [2.0, 1.5]])),
                    [(1.0, 1.0, -1.0), (1.0, 0.0, 1.0), (-1.0, 3.0, 0.0), (0.0, 1.0, 5.0)]),
        # x = 1 holds the edge from (1, 0) to (1, 1): both tie on max x and
        # the first must win; the lines parallel to an edge divide by zero
        "vertical-edge": (square, [(1.0, 0.0, -1.0), (-2.0, 0.0, 2.0), (1.0, 0.0, -0.5),
                                   (0.0, 1.0, -0.5), (0.0, 1.0, -1.0)]),
        # the line touches the square at (0, 0) or (1, 0) only
        "vertex": (square, [(1.0, 1.0, 0.0), (-1.0, -1.0, 0.0), (1.0, -1.0, -1.0)]),
        # off the square, and the all-zero pencil direction (alpha = beta = 0)
        "miss": (square, [(1.0, 1.0, 5.0), (1.0, -1.0, 3.0), (0.0, 0.0, 1.0), (0.0, 0.0, 0.0)]),
    }[case]
    ps = np.array(lines).T
    got, want = np.array(_pencil_values(ps, hp)), _section_reference(ps, hp)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.all(np.isnan(want[0])) == (case == "miss")
    if case == "vertical-edge":
        assert (want[1, 0], want[2, 0]) == (1.0, 0.0)


def _visited_cells(monkeypatch, g):
    visited = []
    original = programs._game_candidates

    def record(cells, hp, unc, gmats, scales):
        visited.extend((cell.i1, cell.i2) for cell in cells)
        return original(cells, hp, unc, gmats, scales)

    monkeypatch.setattr(programs, "_game_candidates", record)
    res = solve_optimal(g, evaluate_br=False)
    monkeypatch.undo()
    return res, set(visited)


@pytest.mark.parametrize("k", [5, 8, 50])
def test_rank_certificate_skips_only_empty_cells(monkeypatch, k):
    rng = np.random.default_rng(k)
    g = random_game(k, rng)
    _, visited = _visited_cells(monkeypatch, g)
    unc = np.column_stack([g.u_d_unc, g.u_a_unc, np.ones(k)])
    cells = {(i1, i2) for i1 in range(1, k + 1) for i2 in range(1, k + 1) if i1 != i2}
    skipped = cells - visited
    assert skipped  # random uncovered pairs are in general position
    for i1, i2 in skipped:
        assert null_space(np.delete(unc, [i1 - 1, i2 - 1], axis=0)).shape[1] == 0


def _collinear_pairs_game():
    """Uncovered pairs on one line to 1e-12: every cell keeps a null vector."""
    rng = np.random.default_rng(8)
    base = random_game(8, rng)
    u_a_unc = 0.5 * base.u_d_unc - 1.0 + rng.uniform(-1e-12, 1e-12, size=8)
    return GameSpec(8, base.u_d_cov, base.u_d_unc, base.u_a_cov, u_a_unc)


def _repeated_payoff_games(rng, count):
    """Small-integer games, a third with every uncovered pair the same (a
    null plane at K >= 4): ties, repeated hull points and rank drops."""
    games = []
    for i in range(count):
        k = 2 + i % 5
        unc = rng.integers(-2, 1, size=k).astype(float)
        a_cov, a_unc = rng.integers(-2, 3, size=(2, k)).astype(float)
        if i % 3 == 0:
            unc[:], a_unc[:] = unc[0], a_unc[0]
        games.append(canonicalize(GameSpec(k, unc + rng.integers(1, 3, size=k), unc, a_cov,
                                           a_unc))[0])
    return games


def _same_candidates(got, want):
    """Equal lists: vectors bit for bit, and each slice's gmat and basis bit
    for bit with the basis's memory layout."""
    if len(got) != len(want):
        return False
    for a, b in zip(got, want):
        if isinstance(a, tuple) != isinstance(b, tuple):
            return False
        pairs = zip(a, b) if isinstance(a, tuple) else [(a, b)]
        if not all(x.shape == y.shape and x.strides == y.strides and x.tobytes() == y.tobytes()
                   for x, y in pairs):
            return False
    return True


def test_game_candidates_match_the_per_cell_reference(monkeypatch):
    # bit identity: the sweep and the shortlist read the vectors, the slice
    # markers and their bases in list order, so any reordered or relaid-out
    # product would show
    rng = np.random.default_rng(30)
    games = [random_game(k, rng, scale) for k in range(2, 7) for scale in (1.0, 10.0, 1e-3)
             for _ in range(4)]
    games += [_collinear_pairs_game()] + _repeated_payoff_games(rng, 45)
    games += [g for k in (2, 3, 4) for g in cli._bench_games(k, 10, 0, "generic")]
    lists = []
    original = programs._game_candidates

    def record(cells, hp, unc, gmats, scales):
        out = original(cells, hp, unc, gmats, scales)
        lists.append((cells, hp, unc, out))
        return out

    monkeypatch.setattr(programs, "_game_candidates", record)
    for g in games:
        solve_optimal(g, evaluate_br=False)
    monkeypatch.undo()
    seen = {"vector": 0, "slice": 0, "plane cell": 0, "all-space cell": 0}
    for (cells, hp, unc, out), g in zip(lists, games):
        for cell, got in zip(cells, out):
            gmat = oracles.cell_ineq_rows(g, cell)
            want = oracles.cell_candidates_reference(cell, hp, unc, gmat,
                                                     max(1.0, float(np.max(np.abs(gmat)))))
            assert _same_candidates(got, want), (g, cell)
            d = null_space(np.delete(unc, [cell.i1 - 1, cell.i2 - 1], axis=0)).shape[1]
            seen["plane cell"] += d == 2 and g.k >= 4
            seen["all-space cell"] += d == 3
            for c in got:
                seen["slice" if isinstance(c, tuple) else "vector"] += 1
    assert len(lists) == len(games) and min(seen.values()) >= 10, seen


def test_solve_optimal_k3_makes_at_most_three_svd_calls(monkeypatch):
    # one call for the equality blocks and one for the sub-systems; K = 3
    # certifies no triple and has no 3-D cone
    g = cli._bench_games(3, 1, 0, "generic")[0]
    calls = []
    svd = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    solve_optimal(g, evaluate_br=False)
    assert len(calls) <= 3, calls


class _CandidatesBuilt(Exception):
    """Stops solve_optimal once its candidates are built."""


def _candidates_and_svd_sizes(monkeypatch, g, budget):
    """The candidate lists of g under an SVD entry budget, and the (entries
    in, entries of U) of every SVD call that built them."""
    original, svd, sizes, lists = programs._game_candidates, np.linalg.svd, [], []

    def measured(a, *args, **kwargs):
        u, s, vt = svd(a, *args, **kwargs)
        sizes.append((np.size(a), np.size(u)))
        return u, s, vt

    def record(*args):
        monkeypatch.setattr(np.linalg, "svd", measured)
        lists.append(original(*args))
        monkeypatch.setattr(np.linalg, "svd", svd)
        raise _CandidatesBuilt

    monkeypatch.setattr(programs, "SVD_STACK_ENTRIES", budget)
    monkeypatch.setattr(programs, "_game_candidates", record)
    with pytest.raises(_CandidatesBuilt):
        solve_optimal(g, evaluate_br=False)
    monkeypatch.undo()
    return lists[0], sizes


def _same_uncovered_pair_game(k):
    """Every uncovered pair the same: each cell's equality block has rank 1,
    so each cell has a null plane and one sub-system per hull vertex."""
    rng = np.random.default_rng(k)
    return canonicalize(GameSpec(k, rng.uniform(1, 2, k), np.full(k, -1.0),
                                 rng.uniform(-2, 0, k), np.full(k, 1.0)))[0]


@pytest.mark.parametrize("kind", ["zero-sum", "same pair"])
def test_candidate_svds_stay_within_their_entry_budget(monkeypatch, kind):
    # a zero-sum game's uncovered pairs are collinear, so no triple closes a
    # cell and all K (K - 1) equality blocks are factored; in the other game
    # every cell adds a sub-system per hull vertex.  Each call must stay
    # within the budget, its U no larger than its input
    if kind == "zero-sum":
        rng = np.random.default_rng(100)
        d_cov, d_unc = rng.uniform(1, 2, 100), rng.uniform(-2, 0, 100)
        g = canonicalize(GameSpec(100, d_cov, d_unc, -d_cov, -d_unc))[0]
    else:
        g = _same_uncovered_pair_game(60)
    cands, sizes = _candidates_and_svd_sizes(monkeypatch, g, programs.SVD_STACK_ENTRIES)
    assert len(cands) == g.k * (g.k - 1)
    assert sum(n for n, _ in sizes) > 2 * programs.SVD_STACK_ENTRIES  # several calls
    assert all(n <= programs.SVD_STACK_ENTRIES and u <= n for n, u in sizes), sizes


def test_candidate_lists_do_not_depend_on_the_svd_budget(monkeypatch):
    # a budget of 40 entries splits every stack into calls of a few systems
    rng = np.random.default_rng(31)
    games = [random_game(k, rng) for k in range(2, 7) for _ in range(3)]
    games += [_collinear_pairs_game(), _same_uncovered_pair_game(6)]
    games += _repeated_payoff_games(rng, 15)
    for g in games:
        got, sizes = _candidates_and_svd_sizes(monkeypatch, g, 40)
        want, _ = _candidates_and_svd_sizes(monkeypatch, g, 2**20)
        assert all(n <= 40 for n, _ in sizes)
        assert all(_same_candidates(a, b) for a, b in zip(got, want)) and len(got) == len(want)


def test_rank_certificate_skips_no_cell_on_collinear_pairs(monkeypatch):
    _, visited = _visited_cells(monkeypatch, _collinear_pairs_game())
    assert len(visited) == 8 * 7


def test_open_cell_mask_matches_the_per_cell_triple_check():
    # random sets of the disjoint triples _rank3_triples certifies, none to
    # all of them; the mask must keep a cell exactly when the per-cell check
    # over every triple does
    rng = np.random.default_rng(25)
    for k in range(5, 61):
        n = k // 3
        for count in {min(c, n) for c in (0, 1, 2, 3)} | {int(rng.integers(n + 1)), n}:
            triples = [range(3 * j, 3 * j + 3) for j in sorted(rng.choice(n, count, replace=False))]
            expect = [[i1 != i2 and not any(i1 not in t and i2 not in t for t in triples)
                       for i2 in range(k)] for i1 in range(k)]
            assert programs._open_cells(k, triples).tolist() == expect, (k, triples)


def test_solve_optimal_k50_proves_none_in_few_svds(monkeypatch):
    g = random_game(50, np.random.default_rng(50))
    calls = []
    svd = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    res = solve_optimal(g, evaluate_br=False)
    assert res.kind == "none"
    assert len(calls) <= 20


def _ideal_fields(res):
    """Every field of an IdealResult, the parameters bit for bit."""
    p = res.params
    return res.found, res.role1, res.role_k, None if p is None else \
        np.array([p.alpha, p.beta, p.gamma]).tobytes()


def _benchmark_games(seed):
    """The canonical games of every solve and compare operation of the
    benchmark's pass for a seed."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("benchmark_workloads", path)
    workloads = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(workloads)  # registered first: its dataclasses look it up
    games = []
    for workload in (workloads.SolveIdeal, workloads.SolveGeneric, workloads.CompareIot):
        for op in workload().make_ops(seed):
            d = json.loads(op.inputs["game"])
            g = GameSpec(d["k"], d["u_d_cov"], d["u_d_unc"], d["u_a_cov"], d["u_a_unc"])
            games.append(canonicalize(g)[0])
    return games


@pytest.mark.parametrize("seed", [0, 1])
def test_solve_ideal_matches_the_per_pair_reference_on_benchmark_games(seed):
    games = _benchmark_games(seed)
    found = 0
    for g in games:
        got = _ideal_fields(solve_ideal(g))
        assert got == _ideal_fields(oracles.solve_ideal_reference(g)), g
        found += got[0]
    assert 280 <= found < len(games) and max(g.k for g in games) == 50


def test_solve_ideal_matches_the_per_pair_reference_on_tied_top_payoffs():
    # targets 1..t share the top covered payoff exactly or within the 1e-9
    # the program's tie rule allows, so the stack holds t blocks of pairs.
    # An ideal-feasible game with an exact tie also has targets 1 and 2
    # swapped, so that its feasible pair (2, K) lies in the second block
    rng = np.random.default_rng(67)
    found = later_block = 0
    for trial in range(80):
        k = int(rng.integers(2, 9))
        g = (ideal_feasible_game if trial % 2 else random_game)(k, rng)
        ties = int(rng.integers(2, k + 1))
        gap = rng.choice([0.0, 5e-10])
        cov = np.array(g.u_d_cov)
        cov[1:ties] = cov[0] - gap
        g = dataclasses.replace(g, u_d_cov=cov)
        if trial % 2 and gap == 0.0:
            order = np.r_[1, 0, 2:k]
            g = dataclasses.replace(g, u_d_cov=g.u_d_cov[order], u_d_unc=g.u_d_unc[order],
                                    u_a_cov=g.u_a_cov[order], u_a_unc=g.u_a_unc[order])
        res = solve_ideal(g)
        assert _ideal_fields(res) == _ideal_fields(oracles.solve_ideal_reference(g)), g
        found += res.found
        later_block += res.found and res.role1 > 1
    assert found >= 20 and later_block >= 5, (found, later_block)


def test_solve_ideal_matches_the_per_pair_reference_when_the_first_pair_is_feasible():
    # an ideal-feasible game's feasible pair is (1, K); moving target K to
    # label 2 makes it the first pair of the stack
    rng = np.random.default_rng(71)
    for k in (2, 3, 4, 7, 12, 50):
        g = ideal_feasible_game(k, rng)
        order = np.r_[0, k - 1, 1:k - 1]
        g = dataclasses.replace(g, u_d_cov=g.u_d_cov[order], u_d_unc=g.u_d_unc[order],
                                u_a_cov=g.u_a_cov[order], u_a_unc=g.u_a_unc[order])
        res = solve_ideal(g)
        assert (res.found, res.role1, res.role_k) == (True, 1, 2)
        assert _ideal_fields(res) == _ideal_fields(oracles.solve_ideal_reference(g))


def _counting_pivots(patch, steps):
    """Count in steps the lockstep pivot steps; a drive-out pivot passes its
    row as a list and is not counted."""
    pivot = lp_module._pivot

    def spy(T, rows, col, step):
        if not isinstance(rows, list):
            steps.append(len(T))
        return pivot(T, rows, col, step)

    patch.setattr(lp_module, "_pivot", spy)


def _ideal_steps(monkeypatch, g):
    """(the IdealResult, the ideal stack solve_lp got, and the lockstep
    pivot steps made on it) for game g."""
    stacks, steps = [], []
    solve_lp = lp_module.solve_lp
    with monkeypatch.context() as patch:
        patch.setattr(lp_module, "solve_lp", lambda lp: stacks.append(lp) or solve_lp(lp))
        _counting_pivots(patch, steps)
        res = solve_ideal(g)
    (stack,) = stacks
    return res, stack, len(steps)


def test_k50_generic_ideal_program_is_decided_without_a_pivot(monkeypatch):
    # every one of the 49 role pairs has full-rank homogeneous equality rows,
    # so the presolve certifies all of them; solve_lp still runs
    g = cli._bench_games(50, 1, 0, "generic")[0]
    res, stack, steps = _ideal_steps(monkeypatch, g)
    assert not res.found
    assert stack.alternatives == 49 and steps == 0
    assert lp_module._standardize(stack)[-1].all()


def test_k50_feasible_first_pair_makes_the_steps_of_that_pair_alone(monkeypatch):
    # an ideal-feasible K = 50 game relabeled so that its feasible pair is the
    # first of the 49: the other 48 pairs are certified infeasible and leave
    # the stack before it is built
    g = ideal_feasible_game(50, np.random.default_rng(61))
    order = np.r_[0, 49, 1:49]
    g = dataclasses.replace(g, u_d_cov=g.u_d_cov[order], u_d_unc=g.u_d_unc[order],
                            u_a_cov=g.u_a_cov[order], u_a_unc=g.u_a_unc[order])
    res, stack, steps = _ideal_steps(monkeypatch, g)
    assert (res.found, res.role1, res.role_k) == (True, 1, 2)
    cut = lp_module._standardize(stack)[-1]
    assert cut.sum() == 48 and not cut[0]
    first = LinearProgram(stack.objective, stack.sense,
                          [(row[0] if row.ndim == 2 else row, rel, rhs)
                           for row, rel, rhs in stack.constraints], stack.bounds)
    alone = []
    with monkeypatch.context() as patch:
        _counting_pivots(patch, alone)
        assert lp_module.solve_lp(first).status == "optimal"
    assert steps == len(alone) > 0
