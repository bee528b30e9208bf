import dataclasses

import numpy as np
import pytest

from zdmtd import lp as lp_module
from zdmtd.lp import (
    _EPS,
    EQ,
    FEAS_TOL,
    GE,
    LE,
    LinearProgram,
    LpError,
    LpNumericalError,
    check_feasible,
    solve_each,
    solve_lp,
)
from zdmtd.programs import solve_ideal
from zdmtd.scenarios import iot_game, iot_scenario

from oracles import ideal_feasible_game, oneshot_program, random_game, simplex_reference


def test_single_bound_example():
    lp = LinearProgram([1.0], "max", [(np.array([1.0]), LE, 3.0)], [(0.0, None)])
    out = solve_lp(lp)
    assert out.status == "optimal"
    assert out.x[0] == pytest.approx(3.0, abs=1e-10)
    assert out.objective == pytest.approx(3.0, abs=1e-10)


def test_simplex_face_example():
    lp = LinearProgram(
        [1.0, 1.0], "max",
        [(np.array([1.0, 1.0]), LE, 1.0)],
        [(0.0, None), (0.0, None)],
    )
    out = solve_lp(lp)
    assert out.status == "optimal"
    assert out.objective == pytest.approx(1.0, abs=1e-10)
    assert out.x.sum() == pytest.approx(1.0, abs=1e-10)


def test_empty_interval_infeasible():
    rows = [(np.array([1.0]), LE, -1.0), (np.array([1.0]), GE, 1.0)]
    assert solve_lp(LinearProgram([0.0], "min", rows)).status == "infeasible"
    assert check_feasible(rows, 1).status == "infeasible"


def test_check_feasible_examples():
    res = check_feasible([(np.array([1.0]), EQ, 1.0), (np.array([1.0]), EQ, 2.0)], 1)
    assert res.status == "infeasible"

    res = check_feasible([], 1)
    assert res.status == "optimal"
    assert res.x[0] == 0.0


def test_eq10_system_for_corollary1_instance():
    # K=3 equalizer-friendly attacker values; defender rows only enter E1
    u_d_cov, u_a_cov = (5.0, 4.0, 3.0), (-2.0, 1.0, 0.0)
    u_d_unc, u_a_unc = (0.0, 0.0, 0.0), (3.0, -2.0, -4.0)
    rows = [
        (np.array([u_d_cov[0], u_a_cov[0], 1.0]), EQ, 0.0),
        (np.array([u_d_cov[2], u_a_cov[2], 1.0]), GE, 0.0),
        (np.array([u_d_unc[0], u_a_unc[0], 1.0]), GE, 0.0),
        (np.array([u_d_unc[1], u_a_unc[1], 1.0]), EQ, 0.0),
        (np.array([u_d_unc[2], u_a_unc[2], 1.0]), LE, 0.0),
        (np.array([1.0, 0.0, 0.0]), LE, 0.0),
        (np.array([0.0, 1.0, 0.0]), GE, 0.0),
        (np.array([-1.0, 1.0, 0.0]), GE, 1.0),
    ]
    res = check_feasible(rows, 3)
    assert res.status == "optimal"
    # verify the returned point against every row by direct substitution
    for row, rel, rhs in rows:
        v = float(row @ res.x)
        if rel == LE:
            assert v <= rhs + 1e-8
        elif rel == GE:
            assert v >= rhs - 1e-8
        else:
            assert v == pytest.approx(rhs, abs=1e-8)


def test_unbounded():
    lp = LinearProgram([1.0], "max", [])
    assert solve_lp(lp).status == "unbounded"
    lp = LinearProgram([1.0, 0.0], "max", [(np.array([0.0, 1.0]), LE, 5.0)],
                       [(None, None), (0.0, None)])
    assert solve_lp(lp).status == "unbounded"


def test_two_sided_bounds_and_negative_rhs():
    lp = LinearProgram(
        [-2.0, 1.0], "min",
        [(np.array([1.0, -1.0]), GE, -4.0)],
        [(-1.0, 3.0), (0.0, 2.0)],
    )
    out = solve_lp(lp)
    assert out.status == "optimal"
    # minimize -2x + y: push x to 3, y to 0; row: 3 - 0 >= -4 ok
    assert out.x[0] == pytest.approx(3.0, abs=1e-10)
    assert out.x[1] == pytest.approx(0.0, abs=1e-10)


def test_equalities_with_free_variables():
    # alpha = 1 exactly via two free vars and an equality chain
    rows = [
        (np.array([1.0, 1.0]), EQ, 3.0),
        (np.array([1.0, -1.0]), EQ, -1.0),
    ]
    res = check_feasible(rows, 2)
    assert res.status == "optimal"
    assert res.x[0] == pytest.approx(1.0, abs=1e-9)
    assert res.x[1] == pytest.approx(2.0, abs=1e-9)


def test_deterministic_repeatability():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n, m = 4, 6
        A = rng.normal(size=(m, n))
        x0 = rng.normal(size=n)
        rows = [(A[i], LE, float(A[i] @ x0) + float(rng.uniform(0, 1))) for i in range(m)]
        lp = LinearProgram(rng.normal(size=n), "max", rows, [(-10.0, 10.0)] * n)
        a = solve_lp(lp)
        b = solve_lp(lp)
        assert a.status == b.status
        if a.status == "optimal":
            assert np.array_equal(a.x, b.x)
            assert a.objective == b.objective


def test_feasible_points_reverify():
    # systems feasible by construction: rhs set from a reference point
    rng = np.random.default_rng(11)
    for trial in range(30):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, 8))
        A = rng.normal(size=(m, n)) * rng.uniform(0.5, 20)
        x0 = rng.normal(size=n)
        rows = []
        for i in range(m):
            rel = (LE, GE, EQ)[int(rng.integers(0, 3))]
            slack = float(rng.uniform(0, 2)) if rel != EQ else 0.0
            rhs = float(A[i] @ x0) + (slack if rel == LE else -slack if rel == GE else 0.0)
            rows.append((A[i], rel, rhs))
        res = check_feasible(rows, n)
        assert res.status == "optimal", f"trial {trial} should be feasible"
        for row, rel, rhs in rows:
            v = float(row @ res.x)
            scale = max(1.0, np.max(np.abs(row)))
            if rel == LE:
                assert v - rhs <= 1e-8 * scale
            elif rel == GE:
                assert rhs - v <= 1e-8 * scale
            else:
                assert abs(v - rhs) <= 1e-8 * scale


def test_dimension_errors():
    with pytest.raises(LpError):
        LinearProgram([1.0], "max", [(np.array([1.0, 2.0]), LE, 1.0)])
    with pytest.raises(LpError):
        LinearProgram([1.0], "best", [])
    with pytest.raises(LpError):
        LinearProgram([1.0], "max", [(np.array([1.0]), "<", 1.0)])


@pytest.mark.parametrize("objective,row,rhs", [
    (np.ones((2, 2)), np.ones((3, 2)), 1.0),        # objective and row stacks disagree
    (np.ones((2, 2)), np.ones(2), [1.0, 2.0, 3.0]),  # objective and rhs stacks disagree
    (np.ones(2), np.ones((3, 2)), [1.0, 2.0]),       # row and rhs stacks disagree
    (np.ones((0, 2)), np.ones(2), 1.0),              # an empty stack
    (np.ones(2), np.ones(2), [[1.0, 2.0]]),          # a rhs of two dimensions
    (np.ones(2), np.ones((2, 2)), [1.0, np.nan]),    # a non-finite rhs entry
    (np.ones(2), np.ones(2), [1.0, np.inf]),
    (np.ones((2, 2, 2)), np.ones(2), 1.0),           # an objective of three dimensions
], ids=["objective-rows", "objective-rhs", "rows-rhs", "empty", "rhs-2d", "rhs-nan", "rhs-inf",
        "objective-3d"])
def test_malformed_stacks_raise(objective, row, rhs):
    with pytest.raises(LpError):
        LinearProgram(objective, "max", [(row, LE, rhs)])


def _linprog_oracle(lp, band=None):
    """(status, optimum) of the same program from scipy's HiGHS.  With a
    band, every row is first moved by band * FEAS_TOL * max(1, |row|), the
    tolerance solve_lp checks rows with: outward (an equality becomes two
    inequalities) for band > 0, inward (equalities kept) for band < 0; and
    HiGHS solves to 1e-10, well inside that shift."""
    optimize = pytest.importorskip("scipy.optimize")
    sign = -1.0 if lp.sense == "max" else 1.0
    ub, ub_rhs, eq, eq_rhs = [], [], [], []
    for row, rel, rhs in lp.constraints:
        shift = (band or 0.0) * FEAS_TOL * max(1.0, np.max(np.abs(row)))
        if rel == EQ and shift > 0:
            ub += [row, -row]
            ub_rhs += [rhs + shift, -rhs + shift]
        elif rel == EQ:
            eq.append(row)
            eq_rhs.append(rhs)
        else:
            flip = 1.0 if rel == LE else -1.0
            ub.append(flip * row)
            ub_rhs.append(flip * rhs + shift)
    options = None if band is None else {"primal_feasibility_tolerance": 1e-10,
                                         "dual_feasibility_tolerance": 1e-10}
    res = optimize.linprog(sign * lp.objective, A_ub=np.array(ub) if ub else None,
                           b_ub=ub_rhs or None, A_eq=np.array(eq) if eq else None,
                           b_eq=eq_rhs or None, bounds=list(lp.bounds), method="highs",
                           options=options)
    status = {0: "optimal", 2: "infeasible", 3: "unbounded"}[res.status]
    return status, (sign * res.fun if status == "optimal" else None)


def test_solve_lp_matches_scipy_highs():
    pytest.importorskip("scipy")
    rng = np.random.default_rng(2024)
    counts = {"optimal": 0, "infeasible": 0}
    for trial in range(120):
        n = int(rng.integers(2, 6))
        rows = []
        for _ in range(int(rng.integers(1, 7))):
            rel = (LE, GE, EQ)[int(rng.choice(3, p=[0.45, 0.45, 0.1]))]
            rows.append((rng.normal(size=n).round(3), rel, round(float(rng.normal()), 3)))
        if trial % 4 == 0:  # a contradictory pair: infeasible by construction
            row = rng.normal(size=n).round(3)
            rows += [(row, LE, -1.0), (row, GE, 1.0)]
        bounds = [(float(-rng.uniform(1, 5)), float(rng.uniform(1, 5))) for _ in range(n)]
        lp = LinearProgram(rng.normal(size=n).round(3), ("max", "min")[trial % 2],
                           rows, bounds)
        status, optimum = _linprog_oracle(lp)
        out = solve_lp(lp)
        assert out.status == status, (trial, lp)
        counts[status] += 1
        if status == "optimal":
            assert abs(out.objective - optimum) <= 1e-8 * max(1.0, abs(optimum)), (trial, lp)
    assert counts["optimal"] >= 30 and counts["infeasible"] >= 30, counts


def _near_tol_lp(rng):
    """A boxed program whose rows, objective and right-hand sides mix
    entries of a few times FEAS_TOL into ordinary ones; every row and the
    objective keep one entry of magnitude 0.1..2, so none is vacuous within
    the tolerance."""
    n = int(rng.integers(2, 5))
    tiny = FEAS_TOL * np.array([0.5, 1.0, 2.0, 5.0])

    def coefficients():
        v = rng.normal(size=n).round(3)
        lead = int(rng.integers(n))
        v[lead] = rng.choice([-1.0, 1.0]) * round(float(rng.uniform(0.1, 2.0)), 3)
        near = rng.random(n) < 0.4
        near[lead] = False
        v[near] = rng.choice(tiny, size=near.sum()) * rng.choice([-1.0, 1.0], size=near.sum())
        return v

    def rhs():
        if rng.random() < 0.5:
            return float(rng.choice([-1.0, 1.0]) * rng.choice(tiny))
        return round(float(rng.normal()), 3)

    rows = [(coefficients(), (LE, GE, EQ)[int(rng.choice(3, p=[0.45, 0.45, 0.1]))], rhs())
            for _ in range(int(rng.integers(1, 6)))]
    bounds = [(float(-rng.uniform(1, 5)), float(rng.uniform(1, 5))) for _ in range(n)]
    return LinearProgram(coefficients(), ("max", "min")[int(rng.integers(2))], rows, bounds)


def _stopping_allowance(lp):
    """The most objective the simplex's stopping rule can leave: it stops
    once no reduced cost is below -_EPS, and any feasible point differs from
    its vertex by nonbasic columns that move at most over their ranges, a
    variable's box width (its own column and its upper-bound slack) or a
    scaled row's activity range (the row's slack)."""
    widths = np.array([hi - lo for lo, hi in lp.bounds])
    slack = sum(np.abs(row) @ widths / max(1.0, np.max(np.abs(row))) for row, _, _ in lp.constraints)
    return _EPS * (2.0 * widths.sum() + slack)


def test_solve_lp_matches_scipy_highs_near_the_feasibility_tolerance():
    # the status is compared where it does not change within the tolerance
    # band: HiGHS answers the same on the rows moved FEAS_TOL out and in.
    # The optimum lies between HiGHS's optima of the two moved programs, up
    # to the stopping rule's allowance below and 1e-9 (HiGHS's own accuracy)
    # on either side.  About 1 % of draws fall inside the band, where either
    # status would do
    pytest.importorskip("scipy")
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(st.integers(0, 2**31))
    def check(seed):
        lp = _near_tol_lp(np.random.default_rng(seed))
        (inner, inner_opt), (outer, outer_opt) = _linprog_oracle(lp, -1.0), _linprog_oracle(lp, 1.0)
        hypothesis.assume(inner == outer)
        out = solve_lp(lp)
        assert out.status == inner, lp
        if inner == "optimal":
            sign = 1.0 if lp.sense == "max" else -1.0
            margin = 1e-9 * max(1.0, abs(inner_opt), abs(outer_opt))
            assert sign * (out.objective - inner_opt) >= -_stopping_allowance(lp) - margin, lp
            assert sign * (out.objective - outer_opt) <= margin, lp

    check()


@pytest.mark.xfail(strict=True, raises=LpNumericalError,
                   reason="known defect: solve_lp raises 'simplex returned optimal but the point "
                          "violates constraints by 2.203e-07' on this draw")
def test_solve_lp_near_the_feasibility_tolerance_on_draw_19671():
    # the draw on which the property above fails whenever the default
    # Hypothesis profile reaches it: HiGHS finds both moved programs optimal,
    # so the property requires an optimum, checked here as it checks it
    pytest.importorskip("scipy")
    lp = _near_tol_lp(np.random.default_rng(19671))
    (inner, inner_opt), (outer, outer_opt) = _linprog_oracle(lp, -1.0), _linprog_oracle(lp, 1.0)
    assert inner == outer == "optimal"
    out = solve_lp(lp)
    sign = 1.0 if lp.sense == "max" else -1.0
    margin = 1e-9 * max(1.0, abs(inner_opt), abs(outer_opt))
    assert out.status == "optimal"
    assert sign * (out.objective - inner_opt) >= -_stopping_allowance(lp) - margin
    assert sign * (out.objective - outer_opt) <= margin


def test_solve_lp_on_a_program_infeasible_only_within_the_tolerance():
    # exactly infeasible: row 2 asks x2 <= -4.8e-8 and row 3 x2 >= -1.5e-8;
    # feasible once each row may miss by FEAS_TOL, so either status would
    # do.  Phase 2 returns a point 0.146 off row 2, twice, after a phase 1
    # that ended inside the band, so the program is reported infeasible
    lp = LinearProgram([-0.086, 1.341], "max",
                       [([1.707, -0.399], LE, 0.77), ([1e-8, -0.208], GE, 1e-8),
                        ([5e-9, 0.67], GE, -1e-8), ([0.444, 0.0], LE, 1.025)],
                       [(-3.251596182096633, 3.8714887788942542),
                        (-3.921591022027818, 3.911630129664025)])
    out = solve_lp(lp)
    assert out.status == "infeasible" or out.max_violation <= FEAS_TOL


def _outcome(solve, lp):
    """Everything a solve reports, bit for bit, or the error it raises."""
    try:
        out = solve(lp)
    except Exception as err:  # compared by type and message
        return type(err).__name__, str(err)
    x = None if out.x is None else out.x.tobytes()
    return out.status, x, out.objective, out.max_violation


def _draw(rng, integer, size):
    if integer:
        return rng.integers(-3, 4, size=size).astype(float)
    return rng.normal(size=size) * rng.choice([1e-3, 1.0, 1e3])


def _random_row(rng, integer, n):
    row = _draw(rng, integer, n)
    row[rng.random(n) < 0.2] = 0.0
    return row


def _random_lp(rng, integer):
    """Random rows, relations, senses and bound kinds; integer entries in
    -3..3 make degenerate vertices and exact ratio ties common."""
    n, m = int(rng.integers(1, 6)), int(rng.integers(0, 10))
    rows = []
    for _ in range(m):
        row = _random_row(rng, integer, n)
        rows.append((row, (LE, EQ, GE)[int(rng.integers(3))], float(_draw(rng, integer, 1)[0])))
    bounds = []
    for _ in range(n):
        lo = float(_draw(rng, integer, 1)[0]) - 1.0
        bounds.append([(None, None), (lo, None), (None, lo),
                       (lo, lo + abs(float(_draw(rng, integer, 1)[0])))][int(rng.integers(4))])
    return LinearProgram(_draw(rng, integer, n), ("max", "min")[int(rng.integers(2))], rows, bounds)


def _near_tie_lp(rng):
    """Rows whose ratios at the first pivots differ by less than _EPS."""
    d = rng.uniform(-2 * _EPS, 2 * _EPS, size=3)
    rows = [(np.array([1.0, 1.0]), LE, 1.0 + d[0]), (np.array([1.0, 1.0 + d[1]]), LE, 1.0),
            (np.array([2.0, 1.0]), LE, 2.0 + d[2]), (np.array([1.0, -1.0]), GE, -1.0)]
    order = rng.permutation(len(rows))
    return LinearProgram(rng.normal(size=2), "max", [rows[i] for i in order],
                         [(0.0, None), (0.0, None)])


def _near_tie_spy(monkeypatch):
    """Count the row scans that settle a real near-tie: a second ratio
    within _EPS of the minimum without equalling it."""
    near_ties = []
    scan_row = lp_module._scan_row

    def spy(ratios, cand, basis):
        gap = ratios[cand] - ratios[cand].min() if cand.any() else ratios[:0]
        near_ties.append(bool(np.any((gap > 0) & (gap <= _EPS))))
        return scan_row(ratios, cand, basis)

    monkeypatch.setattr(lp_module, "_scan_row", spy)
    return near_ties


def _take(lp, i):
    """The alternatives i of a stack (an index, a slice or a list of
    indices): its stacked objective, rows and right-hand sides sliced
    alike, its shared ones kept."""
    def part(v, ndim):
        return v[i] if np.ndim(v) == ndim else v

    return LinearProgram(part(lp.objective, 2), lp.sense,
                         [(part(r, 2), rel, part(rhs, 1)) for r, rel, rhs in lp.constraints],
                         lp.bounds)


def _alternative(lp, i):
    """Alternative i of a stack as a program of its own."""
    return _take(lp, i)


def _alternatives(lp):
    return [_alternative(lp, i) for i in range(lp.alternatives)]


def test_solve_lp_matches_per_row_reference(monkeypatch):
    rng = np.random.default_rng(31)
    lps = [_random_lp(rng, integer=i % 2 == 0) for i in range(900)]
    lps += [_near_tie_lp(rng) for _ in range(150)]

    recorded, oneshot = [], []  # the ideal stacks (K = 2..50) and one-shot stacks of real games

    def record(lp):
        recorded.append(lp)
        return solve_lp(lp)

    monkeypatch.setattr(lp_module, "solve_lp", record)
    for k in (2, 3, 4, 6, 9, 50):
        g = random_game(k, rng)
        solve_ideal(g)
        oneshot.append(oneshot_program(g))
    monkeypatch.undo()
    # the K = 50 ideal program is one stack of its 49 role pairs, and each
    # game's one-shot programs one stack of K: each is checked as a program
    # of its own
    assert sum(lp.alternatives == 49 and len(lp.constraints) == 50 + 5 for lp in recorded) == 1
    assert sum(lp.alternatives for lp in oneshot) == 2 + 3 + 4 + 6 + 9 + 50 == 74
    lps += [alt for lp in recorded + oneshot for alt in _alternatives(lp)]
    assert sum(lp.n == 3 and len(lp.constraints) == 50 + 5 for lp in lps) == 49

    near_ties = _near_tie_spy(monkeypatch)
    statuses = {}
    for i, lp in enumerate(lps):
        got = _outcome(solve_lp, lp)
        assert got == _outcome(simplex_reference, lp), (i, lp)
        statuses[got[0]] = statuses.get(got[0], 0) + 1
    assert len(lps) >= 1000
    assert min(statuses.get(s, 0) for s in ("optimal", "infeasible", "unbounded")) >= 100, statuses
    assert sum(near_ties) >= 20, sum(near_ties)


def _suffix(stack, j):
    """The stack without its first j alternatives."""
    return _take(stack, slice(j, None))


def _first_outcome(solve, alternatives):
    """What solving the alternatives one by one in order reports: the index
    and outcome of the first that is not infeasible, or of the first error."""
    for i, lp in enumerate(alternatives):
        got = _outcome(solve, lp)
        if got[0] != "infeasible":
            return i, got
    return None, ("infeasible", None, None, None)


def _stack_outcome(stack):
    try:
        out = solve_lp(stack)
    except Exception as err:  # compared by type and message, as _outcome does
        return None, (type(err).__name__, str(err))
    x = None if out.x is None else out.x.tobytes()
    return out.index, (out.status, x, out.objective, out.max_violation)


def _check_stack(stack, reference=True):
    """Every suffix of the stack reports what the sequential loop over its
    alternatives reports, solved alone and by the reference; returns the
    first statuses seen.  An error's index is not reported by a stack."""
    alternatives = _alternatives(stack)
    firsts = []
    for j in range(len(alternatives)):
        want = _first_outcome(solve_lp, alternatives[j:])
        if reference:
            assert want == _first_outcome(simplex_reference, alternatives[j:]), (j, stack)
        index, got = _stack_outcome(_suffix(stack, j))
        if got[0] in ("optimal", "infeasible", "unbounded"):
            assert (index, got) == want, (j, stack)
        else:
            assert got == want[1], (j, stack)
        firsts.append(got[0])
    return firsts


def _random_stack(rng, integer, size):
    """A random program whose rows are, each with even odds, shared by all
    alternatives or redrawn for each (sometimes kept as the base row); the
    bound shifts then give alternatives their own right-hand sides, so
    runs of alternatives with different row flips occur too."""
    base = _random_lp(rng, integer)
    rows = []
    for row, rel, rhs in base.constraints:
        if rng.random() < 0.5:
            alts = [_random_row(rng, integer, base.n) if rng.random() < 0.8 else row
                    for _ in range(size)]
            row = np.array(alts)
        rows.append((row, rel, rhs))
    return LinearProgram(base.objective, base.sense, rows, base.bounds)


def _near_tie_stack(rng, size):
    """Near-tie programs that share right-hand sides and row order: the
    coefficients carry the perturbations."""
    d = rng.uniform(-2 * _EPS, 2 * _EPS, size=(3, size))
    rows = [(np.column_stack([1.0 + d[0], np.ones(size)]), LE, 1.0),
            (np.column_stack([np.ones(size), 1.0 + d[1]]), LE, 1.0),
            (np.column_stack([2.0 + d[2], np.ones(size)]), LE, 2.0),
            (np.array([1.0, -1.0]), GE, -1.0)]
    order = rng.permutation(len(rows))
    return LinearProgram(rng.normal(size=2), "max", [rows[i] for i in order],
                         [(0.0, None), (0.0, None)])


def _band_stack(rng, size):
    """The program infeasible only within the tolerance band (above), first
    in a stack of copies whose rows move by up to 1 %."""
    lp = LinearProgram([-0.086, 1.341], "max",
                       [([1.707, -0.399], LE, 0.77), ([1e-8, -0.208], GE, 1e-8),
                        ([5e-9, 0.67], GE, -1e-8), ([0.444, 0.0], LE, 1.025)],
                       [(-3.251596182096633, 3.8714887788942542),
                        (-3.921591022027818, 3.911630129664025)])
    rows = [(row * np.vstack([np.ones(2), 1.0 + rng.uniform(-0.01, 0.01, size=(size - 1, 2))]),
             rel, rhs) for row, rel, rhs in lp.constraints]
    return LinearProgram(lp.objective, lp.sense, rows, lp.bounds)


def test_stacks_match_their_alternatives_alone_and_the_reference(monkeypatch):
    rng = np.random.default_rng(47)
    stacks = [_random_stack(rng, i % 2 == 0, int(rng.integers(1, 7))) for i in range(240)]
    stacks += [_near_tie_stack(rng, int(rng.integers(2, 6))) for _ in range(60)]
    recorded = []  # the ideal stacks of real games, tied top payoffs included

    def record(lp):
        recorded.append(lp)
        return solve_lp(lp)

    monkeypatch.setattr(lp_module, "solve_lp", record)
    for k in (2, 3, 5, 8):
        solve_ideal(random_game(k, rng))
        solve_ideal(ideal_feasible_game(k, rng))
        g = random_game(k, rng)  # target 2 tied with target 1 at the top
        solve_ideal(dataclasses.replace(g, u_d_cov=np.r_[g.u_d_cov[0], g.u_d_cov[0], g.u_d_cov[2:]]))
    monkeypatch.undo()
    stacks += recorded
    # stacked objectives and right-hand sides
    stacks += [_varied_stack(rng, i % 2 == 0, int(rng.integers(1, 7))) for i in range(100)]
    # homogeneous equality blocks: the presolve takes some alternatives out
    # of the stack, and each one it keeps gets its bits alone and the
    # reference's.  A certified one is infeasible, where the reference may
    # raise (test_rank_presolve_certifies_only_infeasible_alternatives)
    mixed = 0
    for i in range(60):
        stack = _pinned_stack(np.random.default_rng([83, i]), 6)
        _check_stack(stack, reference=False)
        assert _each_outcome(stack) == _each_alone(stack), stack
        cut = _certified(stack)
        for j in (~cut).nonzero()[0]:
            alt = _alternative(stack, j)
            assert _outcome(solve_lp, alt) == _outcome(simplex_reference, alt), (j, stack)
        mixed += 0 < cut.sum() < len(cut)
    assert mixed >= 30, mixed

    near_ties = _near_tie_spy(monkeypatch)
    firsts = {}
    for stack in stacks:
        for status in _check_stack(stack):
            firsts[status] = firsts.get(status, 0) + 1
    # the band program, which the phase-2 re-form reports infeasible
    for _ in range(5):
        assert _check_stack(_band_stack(rng, 4))[0] == "infeasible"
    assert sum(stack.alternatives > 1 for stack in stacks) >= 200
    assert min(firsts.get(s, 0) for s in ("optimal", "infeasible", "unbounded")) >= 50, firsts
    assert sum(near_ties) >= 20, sum(near_ties)


def test_stacks_match_their_alternatives_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=120, deadline=None)
    @hypothesis.given(st.integers(0, 2**31), st.integers(1, 6), st.booleans())
    @hypothesis.example(168053020, 5, False)  # a phase-2 re-form makes alternative 1 optimal
    def check(seed, size, integer):
        _check_stack(_random_stack(np.random.default_rng(seed), integer, size))

    check()


def _reordered(stack, order):
    """The stack with its alternatives taken in the given order."""
    return _take(stack, order)


def test_stacks_with_raising_alternatives_raise_only_before_the_first_found(monkeypatch):
    # a pivot budget of 1 makes every alternative that needs a second pivot
    # in a phase raise; the sequential loop then decides what the stack
    # reports.  Each stack with a raising and a found alternative is also
    # checked with the one of them first and the other second, both ways
    monkeypatch.setattr(lp_module, "_MAX_PIVOTS", 1)
    rng = np.random.default_rng(53)
    raised = pairs = 0
    for i in range(400):
        stack = _random_stack(rng, i % 2 == 0, int(rng.integers(2, 6)))
        raised += _check_stack(stack, reference=False)[0] == "LpNumericalError"
        outcomes = [_outcome(solve_lp, alt)[0] for alt in _alternatives(stack)]
        errors = [j for j, status in enumerate(outcomes) if status == "LpNumericalError"]
        found = [j for j, status in enumerate(outcomes) if status in ("optimal", "unbounded")]
        if errors and found:
            pair = [found[0], errors[0]]
            assert _check_stack(_reordered(stack, pair), reference=False)[0] == outcomes[found[0]]
            assert _check_stack(_reordered(stack, pair[::-1]), reference=False)[0] == "LpNumericalError"
            pairs += 1
    assert raised >= 50 and pairs >= 20, (raised, pairs)


def _varied_stack(rng, integer, size):
    """A random stack (`_random_stack`) whose objective and right-hand
    sides are, each with even odds, drawn afresh for every alternative, so
    that its alternatives flip different rows."""
    stack = _random_stack(rng, integer, size)
    objective = stack.objective
    if rng.random() < 0.5:
        objective = np.array([_draw(rng, integer, stack.n) for _ in range(size)])
    rows = [(row, rel, _draw(rng, integer, size) if rng.random() < 0.5 else rhs)
            for row, rel, rhs in stack.constraints]
    return LinearProgram(objective, stack.sense, rows, stack.bounds)


def _oneshot_stacks(games):
    """The stack of each game's one-shot SSE programs (`oracles.oneshot_program`)."""
    return [oneshot_program(g) for g in games]


def _oneshot_games(rng):
    """IoT games at K = 3..6 and random games at K = 2..8."""
    games = [iot_game(iot_scenario(k, zeta, theta=float(rng.uniform())))
             for k in range(3, 7) for zeta in (1, 2, 3)]
    return games + [random_game(k, rng) for k in range(2, 9)]


def _flips(stack):
    """Which rows each alternative negates for a nonnegative right-hand side."""
    return lp_module._standardize(stack)[3] < 0


def _each_outcome(stack):
    """Everything `solve_each` reports, bit for bit, or the error it raises."""
    try:
        outs = solve_each(stack)
    except Exception as err:  # compared by type and message, as _outcome does
        return type(err).__name__, str(err)
    return [(out.index, out.status, None if out.x is None else out.x.tobytes(), out.objective,
             out.max_violation) for out in outs]


def _each_alone(stack):
    """What solving the alternatives alone in order reports: every outcome
    with its index, or the first error."""
    outcomes = []
    for i, alt in enumerate(_alternatives(stack)):
        got = _outcome(solve_lp, alt)
        if got[0] not in ("optimal", "infeasible", "unbounded"):
            return got
        outcomes.append((i, *got))
    return outcomes


def test_solve_each_matches_the_alternatives_solved_alone(monkeypatch):
    # stacked objectives, rows and right-hand sides: every alternative's
    # outcome is bit for bit its outcome alone, and the first error in
    # stack order is raised.  A pivot budget of 1 makes many alternatives
    # raise
    rng = np.random.default_rng(67)
    stacks = _oneshot_stacks(_oneshot_games(rng))
    stacks += [_varied_stack(rng, i % 2 == 0, int(rng.integers(1, 7))) for i in range(300)]
    statuses = {}
    for budget in (lp_module._MAX_PIVOTS, 1):
        monkeypatch.setattr(lp_module, "_MAX_PIVOTS", budget)
        for stack in stacks:
            want = _each_alone(stack)
            assert _each_outcome(stack) == want, stack
            for status in [want[0]] if isinstance(want, tuple) else [o[1] for o in want]:
                statuses[status] = statuses.get(status, 0) + 1
    assert sum(len(np.unique(_flips(stack), axis=0)) > 1 for stack in stacks) >= 150
    assert min(statuses.get(s, 0) for s in ("optimal", "infeasible", "unbounded",
                                            "LpNumericalError")) >= 100, statuses


def _step_counter(monkeypatch):
    """count(lp): the stack-wide pivot steps solve_lp makes on lp, checked
    equal to those solve_each makes (a drive-out pivot passes its row as a
    list and is not counted)."""
    steps = []
    pivot = lp_module._pivot

    def spy(T, rows, col, step):
        if not isinstance(rows, list):
            steps.append(len(T))
        return pivot(T, rows, col, step)

    monkeypatch.setattr(lp_module, "_pivot", spy)

    def count(lp):
        counts = []
        for solve in (_stack_outcome, _each_outcome):
            steps.clear()
            solve(lp)
            counts.append(len(steps))
        assert counts[0] == counts[1], (counts, lp)
        return counts[0]

    return count


def test_pivot_matches_row_at_a_time_elimination_bit_for_bit():
    # tableaux full of signed zeros, with zero pivot-column entries, pivoted
    # through scratch space of one, two and all tableaux
    rng = np.random.default_rng(79)
    for trial in range(40):
        b, m, w = int(rng.integers(1, 6)), int(rng.integers(2, 7)), int(rng.integers(3, 9))
        T = rng.normal(size=(b, m, w)) * (rng.random((b, m, w)) < 0.6)
        T *= rng.choice([-1.0, 1.0], size=T.shape)  # -0.0 where a zero is negated
        rows, cols = rng.integers(m, size=b), rng.integers(w, size=b)
        T[np.arange(b), rows, cols] = rng.choice([-1.0, 1.0], size=b) * rng.uniform(0.5, 2, size=b)
        want = T.copy()
        for k, (row, col) in enumerate(zip(rows, cols)):  # the scalar elimination
            want[k, row] /= want[k, row, col]
            for i in range(m):
                if i != row and want[k, i, col] != 0.0:
                    want[k, i] -= want[k, i, col] * want[k, row]
        for size in (1, 2, b):
            got = T.copy()
            lp_module._pivot(got, rows, got[np.arange(b), :, cols], np.empty((size, m, w)))
            assert got.tobytes() == want.tobytes(), (trial, size)


def test_alternatives_that_flip_different_rows_pivot_in_one_lockstep(monkeypatch):
    # a stack pivots until its last alternative resolves, so its
    # stack-wide steps are the largest count alone; solving the runs of
    # alternatives with equal row flips one after another would take the
    # sum of each run's largest
    rng = np.random.default_rng(71)
    stacks = _oneshot_stacks(_oneshot_games(rng))
    stacks += [_varied_stack(rng, i % 2 == 0, int(rng.integers(2, 7))) for i in range(200)]
    count = _step_counter(monkeypatch)
    merged = 0
    for stack in stacks:
        alone = [count(alt) for alt in _alternatives(stack)]
        assert count(stack) == max(alone), stack
        flips = _flips(stack)
        cuts = [0] + [i for i in range(1, len(flips)) if (flips[i] != flips[i - 1]).any()]
        runs = sum(max(alone[lo:hi]) for lo, hi in zip(cuts, cuts[1:] + [len(flips)]))
        merged += runs > max(alone)
    assert merged >= 100, merged


def test_ideal_stack_stops_at_a_feasible_first_pair(monkeypatch):
    # an ideal-feasible K = 50 game relabeled so that its feasible pair is
    # the first of the 49: the stack reports that pair, and runs every
    # pair to its verdict in lockstep
    g = ideal_feasible_game(50, np.random.default_rng(61))
    order = np.r_[0, 49, 1:49]
    g = dataclasses.replace(g, u_d_cov=g.u_d_cov[order], u_d_unc=g.u_d_unc[order],
                            u_a_cov=g.u_a_cov[order], u_a_unc=g.u_a_unc[order])
    recorded = []

    def record(lp):
        recorded.append(lp)
        return solve_lp(lp)

    monkeypatch.setattr(lp_module, "solve_lp", record)
    res = solve_ideal(g)
    monkeypatch.undo()
    assert (res.found, res.role1, res.role_k) == (True, 1, 2)
    (stack,) = recorded
    assert stack.alternatives == 49
    assert _stack_outcome(stack) == (0, _outcome(solve_lp, _alternative(stack, 0)))
    count = _step_counter(monkeypatch)
    assert count(stack) == max(count(alt) for alt in _alternatives(stack)) > 0


def _pinned_stack(rng, size):
    """A stack whose equality rows are homogeneous: n = 2..4 variables and
    n..n+3 equality rows at a scale of 1e-3..1e6, with the last column of an
    alternative's block, by even odds, independent, within 1e-14..1e-6 of a
    combination of the others, or such a combination; then a >= row that
    asks for x away from 0, at times by 1 to 4 times what the equality rows
    allow, and random <= / >= rows.  Some alternatives get a nonzero
    equality right-hand side.  Free or boxed variables, and a zero or random
    objective."""
    n = int(rng.integers(2, 5))
    m_e = int(rng.integers(n, n + 4))
    block = rng.normal(size=(size, m_e, n))
    kind = rng.integers(3, size=size)[:, None]
    dep = np.einsum("bmi,bi->bm", block[..., :-1], rng.normal(size=(size, n - 1)))
    near = 10.0 ** rng.uniform(-14, -6, size=(size, 1)) * rng.normal(size=(size, m_e))
    block[..., -1] = np.where(kind == 0, block[..., -1], dep + np.where(kind == 1, near, 0.0))
    block *= 10.0 ** rng.uniform(-3, 6, size=(size, 1, 1))
    rhs = np.where(rng.random(size) < 0.15, rng.normal(size=size), 0.0)
    rows = [(block[:, 0], EQ, rhs)] + [(block[:, i], EQ, 0.0) for i in range(1, m_e)]
    away = np.zeros(n)
    away[:2] = -1.0, 1.0
    if rng.random() < 0.5:
        rows.append((away, GE, float(rng.choice([1e-3, 1.0, 1e3]))))
    else:  # |x| of an accepted point is at most sqrt(2 m_e) FEAS_TOL / sigma_min
        hat = block / np.fmax(1.0, np.abs(block).max(axis=2, keepdims=True))
        with np.errstate(divide="ignore"):
            reach = np.sqrt(2 * m_e) * FEAS_TOL / np.linalg.svd(hat, compute_uv=False)[:, -1]
        rows.append((away, GE, FEAS_TOL + np.fmin(reach, 1e6) * rng.uniform(1.0, 4.0, size=size)))
    for _ in range(int(rng.integers(0, 4))):
        row = rng.normal(size=(size, n)) * rng.choice([1e-3, 1.0, 1e3])
        rows.append((row, (LE, GE)[int(rng.integers(2))], float(rng.normal())))
    order = rng.permutation(len(rows))
    bounds = [(None, None)] * n if rng.random() < 0.5 else [(-5.0, 5.0)] * n
    objective = np.zeros(n) if rng.random() < 0.5 else rng.normal(size=n)
    return LinearProgram(objective, ("max", "min")[int(rng.integers(2))],
                         [rows[i] for i in order], bounds)


def _certified(lp):
    """The alternatives the presolve reports infeasible before any pivot."""
    cut = lp_module._standardize(lp)[-1]
    return np.zeros(lp.alternatives, dtype=bool) if cut is None else cut


def _unpresolved(monkeypatch, lp):
    """Every alternative's result on the parent's path: `_simplex` on the
    full standard form, with no presolve."""
    with monkeypatch.context() as patch:
        patch.setattr(lp_module, "_rank_infeasible", lambda *args: None)
        return lp_module._solve(lp)


def test_rank_presolve_certifies_only_infeasible_alternatives(monkeypatch):
    # every certified alternative is infeasible, or raises, when the simplex
    # runs on it without the presolve, and so on the per-row reference; the
    # uncertified ones get the same bits with and without the presolve
    rng = np.random.default_rng(89)
    certified = kept = 0
    for _ in range(300):
        stack = _pinned_stack(rng, int(rng.integers(1, 7)))
        cut = _certified(stack)
        plain = _unpresolved(monkeypatch, stack)
        for i, (result, alone) in enumerate(zip(lp_module._solve(stack), plain)):
            if cut[i]:
                assert isinstance(alone, Exception) or alone[0] == "infeasible", (i, stack)
                assert _outcome(simplex_reference, _alternative(stack, i))[0] in (
                    "infeasible", "LpNumericalError"), (i, stack)
                assert result == ("infeasible", None, None)
            elif isinstance(alone, Exception):
                assert type(result) is type(alone) and str(result) == str(alone)
            else:
                assert result[0] == alone[0] and (result[1] is None or (
                    result[1].tobytes() == alone[1].tobytes() and result[2] == alone[2])), (i, stack)
        certified += cut.sum()
        kept += len(cut) - cut.sum()
    assert certified >= 300 and kept >= 300, (certified, kept)


def _least_slack(lp):
    """HiGHS's least t >= 0 such that some x within the bounds holds every
    row, scaled by max(1, |row|_inf) as solve_lp checks it, within t.  A
    point solve_lp accepts holds them within FEAS_TOL."""
    optimize = pytest.importorskip("scipy.optimize")
    ub, ub_rhs = [], []
    for row, rel, rhs in lp.constraints:
        scale = max(1.0, np.max(np.abs(row)))
        for sign in {LE: (1.0,), GE: (-1.0,), EQ: (1.0, -1.0)}[rel]:
            ub.append(np.r_[sign * row / scale, -1.0])
            ub_rhs.append(sign * rhs / scale)
    res = optimize.linprog(np.r_[np.zeros(lp.n), 1.0], A_ub=np.array(ub), b_ub=ub_rhs,
                           bounds=list(lp.bounds) + [(0.0, None)], method="highs",
                           options={"primal_feasibility_tolerance": 1e-10,
                                    "dual_feasibility_tolerance": 1e-10})
    assert res.status == 0, res.message
    return res.fun


def test_rank_presolve_certifies_only_programs_highs_finds_infeasible():
    # no point within the bounds holds a certified alternative's scaled rows
    # within FEAS_TOL: HiGHS's least uniform slack is above it.  (HiGHS on
    # the rows moved FEAS_TOL outward accepts points of nearly deficient
    # blocks that miss a row by 5e-8, inside its own tolerance)
    pytest.importorskip("scipy")
    rng = np.random.default_rng(97)
    certified = 0
    for _ in range(200):
        stack = _pinned_stack(rng, int(rng.integers(1, 5)))
        for i in _certified(stack).nonzero()[0]:
            assert _least_slack(_alternative(stack, i)) > FEAS_TOL, (i, stack)
            certified += 1
    assert certified >= 150, certified


def test_rank_presolve_leaves_programs_with_few_or_pinned_equalities_alone(monkeypatch):
    # fewer equality rows than variables, or a nonzero equality right-hand
    # side in every alternative: no certificate is attempted
    rng = np.random.default_rng(101)
    for _ in range(50):
        stack = _pinned_stack(rng, 3)
        eq = [(row, rel, rhs) for row, rel, rhs in stack.constraints if rel == EQ]
        rest = [(row, rel, rhs) for row, rel, rhs in stack.constraints if rel != EQ]
        few = LinearProgram(stack.objective, stack.sense, eq[:stack.n - 1] + rest, stack.bounds)
        pinned = LinearProgram(stack.objective, stack.sense,
                               [(row, EQ, 1.0) for row, _, _ in eq] + rest, stack.bounds)
        assert lp_module._standardize(few)[-1] is None
        assert lp_module._standardize(pinned)[-1] is None
    oneshot = _oneshot_stacks(_oneshot_games(rng))
    assert all(lp_module._standardize(stack)[-1] is None for stack in oneshot)
