import numpy as np
import pytest

from zdmtd import cli, programs
from zdmtd.cli import solve_game
from zdmtd.game import GameSpec
from zdmtd.programs import (
    HullPolygon,
    LambdaCell,
    _null_space,
    _pencil_values,
    _sweep_2d,
    check_corollaries,
    hull,
    realize_params,
    solve_ideal,
    solve_optimal,
)
from zdmtd.zd import verify

from oracles import (
    directional_value,
    ideal_feasible_game,
    k2_grid_oracle,
    line_section,
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
    assert hp.contains(0.5, 0.5)
    assert not hp.contains(1.5, 0.5)

    pt = HullPolygon(np.array([[2.0, 3.0]]))
    assert pt.contains(2, 3) and not pt.contains(2.1, 3)

    seg = HullPolygon(np.array([[0.0, 0.0], [1.0, 1.0]]))
    assert seg.contains(0.5, 0.5) and not seg.contains(0.5, 0.6)
    sec = line_section(seg, 1.0, 1.0, -1.0)  # x + y = 1 crosses the segment
    assert len(sec) >= 1
    assert sec[0] == pytest.approx((0.5, 0.5))


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
        assert hull(g).contains(res.predicted.u_d, res.predicted.u_a)
        for key, val in res.certificate.items():
            assert val <= 1e-8, key
        # homogeneity: every cell constraint residual survives positive rescaling
        from zdmtd.programs import _cell_ineq_rows
        gmat = _cell_ineq_rows(g, res.cell)
        for c in (0.5, 7.0):
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
    strategy, zd, frame = realize_params(COR1, res.params, res.role1, res.role_k)
    gw = frame.apply_game(COR1)
    rep = verify(gw, zd, n_samples=200, seed=11)
    assert rep.eq5_residual <= 1e-8
    assert rep.max_line_residual <= 1e-8


def test_lambda_cell_validation():
    with pytest.raises(ValueError):
        LambdaCell(2, 2)


def _recorded_slices(monkeypatch, games):
    """Every (gmat, basis, hull) the optimal program sweeps on these games."""
    calls = []

    def record(gmat, basis, hp):
        calls.append((gmat, basis, hp))
        return []

    monkeypatch.setattr(programs, "_sweep_2d", record)
    for g in games:
        solve_optimal(g, evaluate_br=False)
    monkeypatch.undo()
    return calls


def test_sweep_2d_matches_reference_loop(monkeypatch):
    # bit identity, not a tolerance: on flat stretches of the value, ulp
    # noise decides the winning angle, so any reordered arithmetic shows
    rng = np.random.default_rng(23)
    games = [random_game(k, rng, scale) for k in (2, 3) for scale in (1.0, 10.0, 1.0, 10.0)]
    slices = _recorded_slices(monkeypatch, games)
    hits = [sl for sl in slices if _sweep_2d(*sl)]
    misses = [sl for sl in slices if not _sweep_2d(*sl)]
    assert len(hits) >= 4 and len(misses) >= 4
    for sl in hits[:16] + misses[:8]:
        got, want = _sweep_2d(*sl), sweep_2d_reference(*sl)
        assert len(got) == len(want)
        if want:
            assert np.array_equal(got[0], want[0])


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
        basis = _null_space(np.array([[0.3, -0.2, 1.0]]))
    got, want = _sweep_2d(gmat, basis, hp), sweep_2d_reference(gmat, basis, hp)
    assert len(got) == len(want)
    assert (len(want) == 0) == (case in ("infeasible", "all-miss"))
    if want:
        assert np.array_equal(got[0], want[0])


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
    assert _sweep_2d(infeasible, basis, square) == []
    assert widths == []
    rng = np.random.default_rng(23)
    for g in [random_game(k, rng, scale) for k in (2, 3) for scale in (1.0, 10.0)]:
        solve_optimal(g, evaluate_br=False)
    assert widths and min(widths) > 0


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
    recorded = []
    original = programs._cell_candidates

    def record(g, cell, hp, unc):
        cands = original(g, cell, hp, unc)
        if cands:
            recorded.append((np.array([programs._normalize(c).as_array() for c in cands]).T, hp))
        return cands

    monkeypatch.setattr(programs, "_cell_candidates", record)
    rng = np.random.default_rng(12)
    for k in (2, 3, 4, 5):
        for _ in range(3):
            solve_optimal(random_game(k, rng), evaluate_br=False)
    monkeypatch.undo()
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
    original = programs._cell_candidates

    def record(g, cell, hp, unc):
        visited.append((cell.i1, cell.i2))
        return original(g, cell, hp, unc)

    monkeypatch.setattr(programs, "_cell_candidates", record)
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
        assert _null_space(np.delete(unc, [i1 - 1, i2 - 1], axis=0)).shape[1] == 0


def test_rank_certificate_skips_no_cell_on_collinear_pairs(monkeypatch):
    # uncovered pairs on one line to 1e-12: every cell keeps a null vector
    rng = np.random.default_rng(8)
    base = random_game(8, rng)
    u_a_unc = 0.5 * base.u_d_unc - 1.0 + rng.uniform(-1e-12, 1e-12, size=8)
    g = GameSpec(8, base.u_d_cov, base.u_d_unc, base.u_a_cov, u_a_unc)
    _, visited = _visited_cells(monkeypatch, g)
    assert len(visited) == 8 * 7


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
