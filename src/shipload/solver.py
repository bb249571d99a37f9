"""LP baseline and quadratically constrained solver with KKT certification.

The full problem has a linear objective, two linear constraints, and one
quadratic constraint whose matrix may be indefinite, so a KKT point need
not be a global optimum.  Every answer is found in closed form:

* the relaxation without the stability constraint is solved by
  enumerating the bases of its two-constraint polytope; a point of its
  optimal face that meets the stability constraint is a global optimum,
  with the LP duals as its multipliers,
* else, on a positive-semidefinite matrix, whose region is convex so that
  any KKT point is globally optimal, a support exchange from the
  relaxation's vertex: the points where stationarity on a support meets
  the stability boundary, the support growing by the cargo whose price is
  most negative,
* else, or when that exchange finds no KKT point, the candidate KKT points
  are enumerated support by support
  (:mod:`~shipload.kkt_enumeration`), and the same exchange grows the
  best of them.

The answer is the best of these points that passes the feasibility filter
and the KKT report with its closed-form multipliers.

This module is the one home of the constraint rules and of their two
fixed tolerances.  A loading is evaluated once, in ``_Loading``: its
slacks, its stability gradient and its worst relative violation.  The
feasibility test (that violation at most ``FEASIBILITY_TOLERANCE``), the
active set (|slack| at most ten times that times max(1, scale)),
multiplier recovery, the KKT test at ``KKT_TOLERANCE``, the CLI's
binding flags and ``certify``'s feasibility test all read that one
evaluation.

Lagrange multipliers of a raw loading, which comes with none, are
recovered from its active set by nonnegative least squares (NNLS), whose
minimum is the plain least-squares fit wherever that fit is determined
and nonnegative.  Both fits are computed here in scalar arithmetic, with
no SciPy and no LAPACK call.
"""

from __future__ import annotations

import enum
import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .model import Problem, revenue
from .quadratic_analysis import Definiteness

__all__ = [
    "SolverStatus",
    "KktReport",
    "Solution",
    "solve_lp",
    "solve",
    "kkt_verify",
    "mu_sensitivity",
    "stability_gradient",
    "active_set",
]

# A point is feasible when its worst relative violation is at most
# FEASIBILITY_TOLERANCE, and a KKT point when its report passes at
# KKT_TOLERANCE.  Functions read both when called, never bind them as
# default arguments, so that a patch takes effect.
FEASIBILITY_TOLERANCE = 1e-8
KKT_TOLERANCE = 1e-6

# Relative slack of solve_lp's revenue and dual tests (see its tie rule),
# of the distinctness of its tied vertices, and of the stability test of
# the relaxation's optimal face in solve.
_LP_TOLERANCE = 1e-9
# NNLS raises RuntimeError at this many steps per column, as scipy.optimize.nnls does.
_NNLS_STEPS_PER_COLUMN = 3
# Relative widening of every bound that must dominate a float predicate:
# the root in stable_mass_room, the lattice search's revenue bound and the
# enumeration's stable-mass bound.  Far above the rounding it covers, a few
# ulp or about sqrt(ulp) at a double root.
MARGIN = 1e-6
# Most steps of the support exchange are 2 n plus this many.  The measured
# convex answers took at most 3.
_EXCHANGE_EXTRA_STEPS = 6
# (lam_C, lam_V, lam_S, nu) of a point.
_Multipliers = tuple[float, float, float, np.ndarray]


class SolverStatus(enum.Enum):
    OPTIMAL = "Optimal"
    LOCAL_ONLY = "LocalOnly"
    INFEASIBLE = "Infeasible"
    ITERATION_LIMIT = "IterationLimit"


@dataclass(frozen=True)
class KktReport:
    """First-order optimality residuals at a candidate point.

    ``satisfied`` applies ``KKT_TOLERANCE`` with scaling:
    stationarity is compared relative to the largest freight rate,
    complementarity relative to the objective value, primal feasibility is
    already a relative violation, and dual feasibility is the most negative
    multiplier (absolute).
    """

    stationarity_residual: float
    complementarity_residual: float
    primal_feasibility: float
    dual_feasibility: float
    satisfied: bool


@dataclass(frozen=True, eq=False)
class Solution:
    """Result of an LP or full solve.

    ``multiplier_stability`` prices the quadratic constraint in its
    multiplied-out form (money per ton-meter).  For :func:`solve_lp` the
    stability constraint is not part of the model; its multiplier is
    reported as 0 and the KKT report still checks the full problem, so
    ``kkt.satisfied`` tells whether the LP vertex happens to solve the
    quadratically constrained problem as well.

    ``starts_used`` and ``best_start_index`` are 1 and 0 for a closed-form
    answer, and 0 and -1 for the empty vessel that :func:`solve` returns
    when no candidate is feasible or nothing is.
    """

    x: np.ndarray
    revenue: float
    multiplier_deadweight: float
    multiplier_volume: float
    multiplier_stability: float
    multipliers_nonneg: np.ndarray
    kkt: KktReport
    status: SolverStatus
    starts_used: int
    best_start_index: int


def stability_gradient(problem: Problem, x) -> np.ndarray:
    """Gradient of the quadratic constraint's left side at ``x``."""
    return _Loading(problem, problem.check_vector(x)).gradient


def _stability_slack(problem: Problem, x: np.ndarray, total: float) -> float:
    """r - (s x'Ax + b total), the stability slack of loads ``x`` of mass ``total``."""
    s, b = problem.quad_scale, problem.linear_coeff
    return problem.rhs - (s * float(x @ problem.quad_matrix @ x) + b * total)


class _Loading:
    """One evaluation of a loading ``x``: its slacks, stability gradient and violation.

    The slacks are the deadweight, volume and stability ones.  The
    violation is the largest of 0, of each slack's negative over its scale
    (C, V and max(1, |r|)) and of the lowest load's negative over
    max(1, C); NaN when the loads hold a NaN.
    """

    __slots__ = ("x", "slacks", "gradient", "violation")

    def __init__(self, problem: Problem, x: np.ndarray):
        cap, s, b = problem.deadweight_cap, problem.quad_scale, problem.linear_coeff
        self.x = x
        total = float(x.sum())
        self.slacks = dw, vol, stab = (
            cap - total,
            problem.volume_cap - float(problem.volume_coeffs @ x),
            _stability_slack(problem, x, total),
        )
        self.gradient = 2.0 * s * (problem.quad_matrix @ x) + b
        terms = (
            -dw / cap,
            -vol / problem.volume_cap,
            -stab / max(1.0, abs(problem.rhs)),
            -float(x.min(initial=0.0)) / max(1.0, cap),
        )
        self.violation = math.nan if any(map(math.isnan, terms)) else max(0.0, *terms)


def active_set(problem: Problem, x) -> tuple[bool, bool, bool, np.ndarray]:
    """Which constraints bind at ``x``: deadweight, volume, stability, and the mask x_i ~ 0.

    A constraint binds when its slack, or a load, is within ten times
    ``FEASIBILITY_TOLERANCE`` times max(1, its scale) of zero on either
    side; a constraint violated by more than that does not bind.
    Multiplier recovery takes its columns from these flags, and reports
    show them.
    """
    return _active(problem, _Loading(problem, problem.check_vector(x)))


def _active(problem: Problem, point: _Loading) -> tuple[bool, bool, bool, np.ndarray]:
    threshold = 10.0 * FEASIBILITY_TOLERANCE
    mass_scale = max(1.0, problem.deadweight_cap)
    dw, vol, stab = point.slacks
    return (
        abs(dw) <= threshold * mass_scale,
        abs(vol) <= threshold * max(1.0, problem.volume_cap),
        abs(stab) <= threshold * max(1.0, abs(problem.rhs)),
        np.abs(point.x) <= threshold * mass_scale,
    )


def _recover_multipliers(problem: Problem, point: _Loading) -> _Multipliers:
    """Active-set least-squares estimate of the Lagrange multipliers.

    Stationarity at a KKT point reads p = lam_C*1 + lam_V*(1/d) +
    lam_S*grad_g(x) - nu with every multiplier nonnegative and inactive
    ones zero: a nonnegative least-squares fit of the rates by the active
    gradients and one unit column per empty cargo.  When the plain fit of
    the loaded cargoes' rates determines lam >= 0 and leaves nu_i =
    (G lam - p)_i >= 0 on every empty one, it zeroes every gradient of the
    nonnegative fit and is its only minimum; otherwise :func:`_nnls` runs.
    """
    *binding, at_zero = _active(problem, point)
    gradients = (np.ones(problem.n), problem.volume_coeffs, point.gradient)
    active = [k for k, on in enumerate(binding) if on]
    columns = [gradients[k] for k in active]
    # The rates are finite, and so is the gradient of a binding constraint.
    fit = None
    if active:
        fit = _sign_feasible_fit(np.column_stack(columns), problem.objective, at_zero)
    fit = fit or _nnls(columns, problem.objective, at_zero)
    lam = [0.0, 0.0, 0.0]
    for k, value in zip(active, fit[0]):
        lam[k] = float(value)
    nu = np.zeros(problem.n)
    nu[at_zero] = fit[1]
    return (*lam, nu)


def _sign_feasible_fit(
    gradients: np.ndarray, rates: np.ndarray, at_zero: np.ndarray
) -> tuple[list[float], np.ndarray] | None:
    """(lam, nu) of the plain least-squares fit on the loaded cargoes, or None.

    None when no cargo is loaded, when the loaded cargoes leave the
    multipliers undetermined, or when one of them comes out negative.
    """
    loaded = ~at_zero
    if not loaded.any():
        return None
    lam = _least_squares(gradients[loaded].T.tolist(), rates[loaded].tolist())
    if lam is None:
        return None
    nu = gradients[at_zero] @ lam - rates[at_zero]
    if min(lam) < 0.0 or nu.min(initial=0.0) < 0.0:
        return None
    return lam, nu


def _least_squares(columns: list[list[float]], b: list[float]) -> list[float] | None:
    """The coefficients of the least-squares fit of ``b`` by ``columns``; None if dependent.

    Modified Gram-Schmidt with ``b`` carried along, which is backward stable
    for least squares (Bjorck, BIT 7, 1967), in scalar arithmetic: for at
    most three columns LAPACK's call overhead, and the 1 MB of its code that
    a first call pages in, outweigh the work.  A column left with at most
    1e-12 of the largest one's norm is dependent.  ``columns`` is overwritten.
    """
    k = len(columns)
    floor = 1e-12 * max((math.hypot(*column) for column in columns), default=0.0)
    r = [[0.0] * k for _ in range(k)]
    qtb = [0.0] * k
    for j in range(k):
        norm = math.hypot(*columns[j])
        if norm <= floor:
            return None
        q = [a / norm for a in columns[j]]
        r[j][j] = norm
        for col in range(j + 1, k):
            r[j][col] = dot = sum(map(operator.mul, q, columns[col]))
            columns[col] = [c - dot * a for a, c in zip(q, columns[col])]
        qtb[j] = dot = sum(map(operator.mul, q, b))
        b = [c - dot * a for a, c in zip(q, b)]
    lam = [0.0] * k
    for j in reversed(range(k)):
        lam[j] = (qtb[j] - sum(r[j][col] * lam[col] for col in range(j + 1, k))) / r[j][j]
    return lam


def _nnls(
    gradients: list[np.ndarray], rates: np.ndarray, at_zero: np.ndarray
) -> tuple[list[float], list[float]]:
    """(lam, nu) >= 0 that minimize |G lam - E nu - p|, by Lawson and Hanson's active set.

    G holds ``gradients`` as columns and E the unit columns of the cargoes
    ``at_zero`` (Solving Least Squares Problems, 1974, ch. 23).  A unit
    column in the passive set only frees its cargo's row, so every fit is
    :func:`_least_squares` of at most three gradients on the other rows.
    Like ``scipy.optimize.nnls``, it counts each pass of the inner loop as
    a step and raises RuntimeError at ``_NNLS_STEPS_PER_COLUMN`` per column.
    """
    columns, p = [g.tolist() for g in gradients], rates.tolist()
    k, zero = len(columns), at_zero.nonzero()[0].tolist()

    def fit(passive):
        # Gradient a is variable a, and cargo i's unit column variable k + i.
        freed = {v - k for v in passive if v >= k}
        kept = [i for i in range(len(p)) if i not in freed]
        used = sorted(v for v in passive if v < k)
        lam = _least_squares([[columns[a][i] for i in kept] for a in used], [p[i] for i in kept])
        if lam is None:
            return None
        z = dict(zip(used, lam))
        return z | {k + i: sum(columns[a][i] * z[a] for a in used) - p[i] for i in freed}

    x, steps = {}, 0
    while True:
        # p - G lam + E nu, the residual that the duals price.
        residual = [b + x.get(k + i, 0.0) for i, b in enumerate(p)]
        for a in [v for v in x if v < k]:
            residual = [r - x[a] * g for r, g in zip(residual, columns[a])]
        duals = [(sum(map(operator.mul, columns[a], residual)), a) for a in range(k) if a not in x]
        duals += [(-residual[i], k + i) for i in zero if k + i not in x]
        # Of the positive duals, the largest whose column fits with a positive coefficient joins.
        ranked = [t for dual, t in sorted(duals, key=lambda item: -item[0]) if dual > 0.0]
        trials = ((t, fit([*x, t])) for t in ranked)
        t, z = next(((t, z) for t, z in trials if z is not None and z[t] > 0.0), (None, None))
        if z is None:
            return [x.get(a, 0.0) for a in range(k)], [x.get(k + i, 0.0) for i in zero]
        x[t] = 0.0
        # Move toward the fit as far as the signs allow; what reaches 0 leaves.
        while True:
            steps += 1
            if steps >= _NNLS_STEPS_PER_COLUMN * (k + len(zero)):
                raise RuntimeError("Maximum number of iterations reached.")
            if all(value > 0.0 for value in z.values()):
                break
            alpha, first = min((x[v] / (x[v] - z[v]), v) for v in x if z[v] <= 0.0)
            x = {v: x[v] + alpha * (z[v] - x[v]) for v in x if v != first}
            x = {v: value for v, value in x.items() if value > 0.0}
            z = fit(x)
        x = z


def _kkt_report(
    problem: Problem, point: _Loading,
    lam_dw: float, lam_vol: float, lam_stab: float, nu: np.ndarray,
) -> KktReport:
    p, x = problem.objective, point.x
    dw, vol, stab = point.slacks

    lagrangian_gap = p - lam_dw - lam_vol * problem.volume_coeffs - lam_stab * point.gradient + nu
    stationarity = float(np.abs(lagrangian_gap).max())

    complementarity = max(
        abs(lam_dw * dw),
        abs(lam_vol * vol),
        abs(lam_stab * stab),
        float(np.abs(nu * x).max(initial=0.0)),
    )
    primal = point.violation
    dual = min(lam_dw, lam_vol, lam_stab, float(nu.min(initial=0.0)))

    objective = abs(float(p @ x))
    rate_scale = max(1.0, float(np.abs(p).max(initial=0.0)))
    satisfied = (
        stationarity <= KKT_TOLERANCE * rate_scale
        and complementarity <= KKT_TOLERANCE * max(1.0, objective)
        and primal <= KKT_TOLERANCE
        and dual >= -KKT_TOLERANCE
    )
    return KktReport(stationarity, complementarity, primal, dual, satisfied)


@functools.lru_cache(maxsize=64)
def _bases(n: int) -> tuple[np.ndarray, ...]:
    """The pairs i < j (``np.triu_indices(n, 1)``), then the first and second cargo of every basis.

    The bases are in :func:`solve_lp`'s order; a single cargo's second is
    itself, and the empty vessel's are 0.  Read-only, built once per n.
    """
    i, j = np.triu_indices(n, 1)
    cargo = np.arange(n)
    arrays = (i, j, np.concatenate([[0], cargo, cargo, i]), np.concatenate([[0], cargo, cargo, j]))
    for array in arrays:
        array.flags.writeable = False
    return arrays


def relaxation_vertices(
    p: np.ndarray, v: np.ndarray, densities: np.ndarray, cap: float, room: float
) -> np.ndarray:
    """The revenue of every basis of max p.x subject to sum(x) <= cap, v.x <= room and x >= 0.

    One entry per basis in :func:`_bases` order; an infeasible basis has
    revenue -inf.  ``densities`` is 1 / v: a single cargo's load at the
    volume cap is room * density.
    """
    i, j, _, _ = _bases(p.size)
    with np.errstate(divide="ignore", invalid="ignore"):
        # Equal densities give infinite or NaN loads, which fail the test below.
        pair_i, pair_j = _pair_loads(v[i], v[j], cap, room)
        volume_loads = room * densities
        revenue = np.concatenate(
            [[0.0], p * cap, p * volume_loads, p[i] * pair_i + p[j] * pair_j]
        )
    # A single cargo must fit the other cap; a pair binds both by construction.
    feasible = np.concatenate(
        [[True], v * cap <= room, volume_loads <= cap, np.minimum(pair_i, pair_j) >= 0]
    )
    return np.where(feasible, revenue, -np.inf)


def _pair_loads(v_i, v_j, cap: float, room: float):
    """The loads of cargoes i and j with both caps binding, for arrays and scalars alike."""
    gap = v_i - v_j
    return (room - v_j * cap) / gap, (v_i * cap - room) / gap


def stable_mass_room(quad, lin, const, room, cap: float):
    """The largest mass T in [0, ``room``] with quad T^2 + lin T + const <= 0, widened.

    The stable-mass room of a stack's suffix or of a support: every entry
    of the min-index matrix A, and of any block of it, is one of that
    block's diagonal entries, so loads x >= 0 of mass T keep x'Ax >=
    alpha T^2 with alpha the block's least diagonal entry, and no stable
    completion holds more than this T for quad = s alpha.  With one
    cargo left the inequality is exact, and the lattice search guesses
    its last coordinate's level from T.  Broadcasts over arrays.  Returns
    (T, lost): ``room`` where the quadratic holds there, else its
    up-crossing root, in the form that does not cancel, widened by
    ``MARGIN`` (|root| + ``cap``) and clipped to ``room``; ``lost`` is
    true where no T in [0, ``room``] is left.  ``cap`` scales the
    widening and the clip of an infinite root to +-2 ``cap``.
    """
    # The root is 2 const / (-lin - root_d) where lin >= 0 and
    # (root_d - lin) / (2 quad) elsewhere, with root_d = sqrt(lin^2 -
    # 4 quad const); each expression is evaluated in place, in the order
    # written, so that at most four arrays of the broadcast shape are live.
    work = np.multiply(quad, room)
    work += lin
    work *= room
    work += const
    short = work > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        np.multiply(quad, 4.0, out=work)
        work *= const
        root_d = np.subtract(lin * lin, work, out=work)
        np.sqrt(root_d, out=root_d)
        crossing = np.subtract(-lin, root_d)
        np.divide(2.0 * const, crossing, out=crossing)
        root_d -= lin
        root_d /= 2.0 * quad
        np.copyto(crossing, root_d, where=lin < 0.0)
    # Infinite crossings become finite ones outside [0, cap]; NaN stays.
    np.maximum(crossing, -2.0 * cap, out=crossing)
    np.minimum(crossing, 2.0 * cap, out=crossing)
    widen = np.abs(crossing, out=root_d)
    widen += cap
    widen *= MARGIN
    top = crossing + widen
    bottom = np.subtract(crossing, widen, out=widen)
    # No real root: the quadratic is positive everywhere when it opens
    # upward and never positive when it opens downward.
    outside = (top < 0.0) | (bottom > room)
    lost = short & (outside | (np.isnan(crossing) & (quad > 0)))
    np.fmin(room, top, out=top)
    np.copyto(top, room, where=~short)
    return top, lost


def _lp_optimum(problem: Problem) -> tuple[np.ndarray, float, float]:
    """The relaxation's optimal face by :func:`solve_lp`'s rule, and the duals of its pick.

    Only the bases tied for the best revenue get their loads and duals.
    The face is given by its tied vertices, one row each: the picked one
    first, then every tied vertex that differs from those before it by
    more than 1e-9 of the deadweight cap once the loads of each run of
    equal-density neighbours in the stack are summed.  Such neighbours
    are interchangeable in every constraint, so vertices that differ only
    between them meet each constraint alike.
    """
    p, v, d = problem.objective, problem.volume_coeffs, problem.densities
    cap, room, n = problem.deadweight_cap, problem.volume_cap, problem.n
    _, _, first, second = _bases(n)
    revenue = relaxation_vertices(p, v, d, cap, room)

    tol = _LP_TOLERANCE
    best = revenue.max()  # the empty vessel is always feasible, so best >= 0
    tied = (revenue >= best * (1.0 - tol)).nonzero()[0]
    # (first load, second load, lam_C, lam_V) of each, by solve_lp's formulas.
    bases = []
    for b, i, j in zip(tied.tolist(), first[tied].tolist(), second[tied].tolist()):
        if b == 0:
            bases.append((0.0, 0.0, 0.0, 0.0))
        elif b <= n:
            bases.append((cap, 0.0, p[i], 0.0))
        elif b <= 2 * n:
            bases.append((room * d[i], 0.0, 0.0, p[i] * d[i]))
        else:
            lam_v = (p[j] - p[i]) / (v[j] - v[i])
            bases.append((*_pair_loads(v[i], v[j], cap, room), p[i] - lam_v * v[i], lam_v))
    load_first, load_second, lam_c, lam_v = (np.array(column) for column in zip(*bases))

    points = np.zeros((tied.size, n))
    rows = np.arange(tied.size)
    # A single cargo's second load is 0, at the same index as its first.
    points[rows, second[tied]] = load_second
    points[rows, first[tied]] = load_first
    points = np.maximum(points, 0.0)
    pick = 0
    if tied.size > 1:
        nu = lam_c[:, None] + lam_v[:, None] * v - p
        violation = -np.minimum(nu.min(axis=1), np.minimum(lam_c, lam_v))
        # The first tied basis within tolerance, or else the least violating one.
        pick = int(np.argmin(np.maximum(violation, tol * p.max())))
        face = [pick]
        # Sum each run of equal densities into its first column.
        runs = np.flatnonzero(np.concatenate([[True], d[1:] != d[:-1]]))
        summed = np.add.reduceat(points, runs, axis=1)
        for k in range(tied.size):
            if np.abs(summed[face] - summed[k]).max(axis=1).min() > tol * cap:
                face.append(k)
        points = points[face]
    return points, max(float(lam_c[pick]), 0.0), max(float(lam_v[pick]), 0.0)


def solve_lp(problem: Problem) -> Solution:
    """Globally solve the relaxation without the stability constraint.

    The relaxation, max p.x subject to sum(x) <= C, v.x <= V and x >= 0
    with v_k = 1/d_k, has two constraints, so each basis holds at most two
    loads.  Every basis is enumerated, in this order: the empty vessel;
    each cargo alone at the deadweight cap, x_i = C; each cargo alone at
    the volume cap, x_i = V*d_i; each pair i < j with both caps binding.
    A basis is optimal when its loads and its duals are both feasible.
    Its duals (lam_C, lam_V) are (0, 0) for the empty vessel, (p_i, 0) or
    (0, p_i*d_i) for a single cargo, and lam_V = (p_j - p_i)/(v_j - v_i),
    lam_C = p_i - lam_V*v_i for a pair; they are feasible when lam_C,
    lam_V >= 0 and nu_k = lam_C + lam_V*v_k - p_k >= 0 for every k.  The
    multipliers are those duals, and the KKT report evaluates the full
    problem, flagging whether the vertex also respects the stability
    margin.

    Tie rule: among the feasible bases whose revenue is within 1e-9
    relative of the best, the first in the order above whose duals are
    feasible to 1e-9 of the largest rate wins.  Ties come from equal
    revenues (the lower-indexed vertex wins), from C*v_i = V (one load at
    both caps, where the deadweight basis is tried first) and from all-zero
    rates (the empty vessel wins).  The work is O(n^2) for the revenue of
    every basis, plus O(n) per tied basis for its loads, duals and their
    feasibility.
    """
    face, lam_dw, lam_vol = _lp_optimum(problem)
    point = _Loading(problem, face[0])
    multipliers = _closed_form_multipliers(problem, point, (lam_dw, lam_vol, 0.0))
    report = _kkt_report(problem, point, *multipliers)
    return _solution(problem, point.x, multipliers, report, SolverStatus.OPTIMAL, 1, 0)


def _solution(
    problem: Problem, x: np.ndarray, multipliers: tuple, report: KktReport,
    status: SolverStatus, starts_used: int, best_start_index: int,
) -> Solution:
    """A :class:`Solution` with read-only copies of the loads and of ``nu``."""
    lam_dw, lam_vol, lam_stab, nu = multipliers
    x = np.array(x, dtype=float)
    x.flags.writeable = False
    nu = np.array(nu, dtype=float)
    nu.flags.writeable = False
    return Solution(
        x=x,
        revenue=revenue(problem, x),
        multiplier_deadweight=lam_dw,
        multiplier_volume=lam_vol,
        multiplier_stability=lam_stab,
        multipliers_nonneg=nu,
        kkt=report,
        status=status,
        starts_used=starts_used,
        best_start_index=best_start_index,
    )


def _empty_vessel(problem: Problem, status: SolverStatus) -> Solution:
    """The zero loading with zero multipliers, for when nothing feasible is found."""
    point = _Loading(problem, np.zeros(problem.n))
    multipliers = (0.0, 0.0, 0.0, np.zeros(problem.n))
    report = _kkt_report(problem, point, *multipliers)
    return _solution(problem, point.x, multipliers, report, status, 0, -1)


def _stable_point(problem: Problem, face: np.ndarray) -> _Loading | None:
    """A point of the relaxation's optimal face that meets the stability constraint, or None.

    Each tied vertex is tried, then, when the face is a segment a + theta
    (b - a), the point of it where the constraint's left side is least:
    along the segment that side is a quadratic in theta.  A face of more
    than two vertices is searched only at its vertices.  Such a point is
    a global optimum, with the picked vertex's LP duals and lam_S = 0 as
    its multipliers, since any optimal dual prices every optimal point.
    """
    vertices = []
    for x in face:
        vertices.append(_Loading(problem, x))
        if vertices[-1].violation <= _LP_TOLERANCE:
            return vertices[-1]
    if len(face) == 2:
        a, b = face
        step = b - a
        curvature = problem.quad_scale * float(step @ problem.quad_matrix @ step)
        slope = float(vertices[0].gradient @ step)
        if curvature > 0.0:
            point = _Loading(problem, a + min(max(-slope / (2.0 * curvature), 0.0), 1.0) * step)
            if point.violation <= _LP_TOLERANCE:
                return point
    return None


def _kkt_optimum(
    problem: Problem, face_searched: bool
) -> tuple[float, np.ndarray, bool, tuple[float, float, float] | None]:
    """The best candidate KKT point with stability binding: (revenue, loads, complete, multipliers).

    For when no point of the relaxation's optimal face is stable: a global
    optimum that left stability slack would be an optimum of the
    relaxation too, so stability binds at every global optimum, and
    :func:`~shipload.kkt_enumeration.binding_optimum` enumerates the
    candidates.  ``face_searched`` says that the whole face was searched,
    which :func:`_stable_point` does for a vertex or a segment.
    ``complete`` says that the candidates include a global maximum: the
    face was searched and the enumeration was not truncated.  Either
    shortfall is logged at DEBUG.  The multipliers (lam_C, lam_V, lam_S)
    are the point's own in closed form, or None when it has none with
    finite lam_S.
    """
    # Imported here: a process that never meets an unstable relaxation
    # never compiles or loads it.
    from .kkt_enumeration import binding_optimum

    value, x, multipliers, reason = binding_optimum(problem)
    if reason is None and not face_searched:
        reason = "the relaxation's optimal face has more than two vertices"
    if reason is not None:
        # Imported here: the package's only log call outside the CLI, and a
        # process that never reaches it never loads logging.
        import logging

        logging.getLogger(__name__).debug("KKT enumeration incomplete: %s", reason)
    return value, x, reason is None, multipliers


def _exchange(
    problem: Problem,
    support: list[int],
    start: tuple[_Loading, tuple[float, float, float]] | None = None,
) -> list[tuple[_Loading, _Multipliers]]:
    """The points of a support exchange, each with its multipliers (lam_C, lam_V, lam_S, nu).

    The exchange starts from ``start``, loads on ``support`` with their
    (lam_C, lam_V, lam_S), or, when that is None, from the best valid
    point of ``support``.  Each step solves a support in closed form, each
    pattern of the caps from three sums
    (:func:`~shipload.kkt_enumeration.support_points`), and keeps its best
    valid point: loads at least -``FEASIBILITY_TOLERANCE`` times the
    deadweight cap, lam_C and lam_V at least -``KKT_TOLERANCE`` times
    max(1, max p), and both caps met to ``FEASIBILITY_TOLERANCE``
    relative.  The points are ranked in the scaled units, as floats over
    the support, and only the one kept becomes a vector of loads.  A
    support without one gives way to the best of its subsets that drop
    one cargo.  The cargoes outside the support are then priced,
    nu_j = lam_C + lam_V v_j + lam_S g_j - p_j with g the stability
    gradient; when none is below -``KKT_TOLERANCE`` times max(1, max p)
    the point is a KKT point and the exchange stops.  Else the most
    negative joins the support.  It stops too when no support has a valid
    point, and after 2 n + ``_EXCHANGE_EXTRA_STEPS`` steps.  Under
    convexity its last point is then a global optimum; otherwise a step
    can lose revenue, so every point is returned.  Each point's nu is
    max(nu_j, 0).
    """
    from .kkt_enumeration import scaled_units, support_points

    # Built for the first support solved: a start that prices out needs none.
    units = None
    p, v = problem.objective, problem.volume_coeffs
    tolerance = FEASIBILITY_TOLERANCE
    price_tol = KKT_TOLERANCE * max(1.0, float(p.max()))
    over = 1.0 + tolerance

    def best_point(support):
        # Scaled (revenue, loads, multipliers) or None; solve checks the answer's feasibility.
        nonlocal units
        units = units or scaled_units(problem)
        scaled_v, scaled_p, room = units.columns[0], units.columns[1], units.room
        best = None
        for z, lam_c, lam_v, lam_s in support_points(units, support):
            if min(z) < -tolerance or min(lam_c, lam_v) < -price_tol:
                continue
            z = [a if a > 0.0 else 0.0 for a in z]
            if sum(z) > over or sum([scaled_v[i] * a for i, a in zip(support, z)]) > room * over:
                continue
            value = sum([scaled_p[i] * a for i, a in zip(support, z)])
            if best is None or value > best[0]:
                best = (value, z, (lam_c, lam_v, lam_s))
        return best

    def settle(support):
        """(point, lams, support): the best valid point of ``support`` or of one cargo less."""
        found = [(best_point(support), support)]
        if found[0][0] is None:
            smaller = [support[:k] + support[k + 1:] for k in range(len(support))]
            found = [(q, s) for q, s in ((best_point(s), s) for s in smaller if s) if q is not None]
        if not found:
            return None
        (_, z, lams), support = max(found, key=lambda item: item[0][0])
        x = np.zeros(problem.n)
        x[support] = z
        return _Loading(problem, problem.deadweight_cap * x), lams, support

    if start is None:
        settled = settle(support)
        if settled is None:
            return []
        *start, support = settled
    point, (lam_c, lam_v, lam_s) = start
    points = []
    for _ in range(2 * problem.n + _EXCHANGE_EXTRA_STEPS):
        nu = lam_c + lam_v * v + lam_s * point.gradient - p
        points.append((point, (lam_c, lam_v, lam_s, np.maximum(nu, 0.0))))
        nu[support] = math.inf
        j = int(nu.argmin())
        if nu[j] >= -price_tol:
            break
        settled = settle(sorted(support + [j]))
        if settled is None:
            break
        point, (lam_c, lam_v, lam_s), support = settled
    return points


def _closed_form_multipliers(
    problem: Problem, point: _Loading, lams: tuple[float, float, float]
) -> _Multipliers:
    """(lam_C, lam_V, lam_S, nu) with nu = max(lam_C + lam_V v + lam_S g - p, 0).

    g is the stability gradient at ``point``; with ``lams`` the point's own
    multipliers nu prices the cargoes, and is 0 on the loaded ones.
    """
    lam_dw, lam_vol, lam_stab = lams
    nu = lam_dw + lam_vol * problem.volume_coeffs + lam_stab * point.gradient
    return lam_dw, lam_vol, lam_stab, np.maximum(nu - problem.objective, 0.0)


def _best_verified(problem: Problem, candidates: list):
    """The candidate of highest revenue, the first on a tie, that passes both checks; or None.

    A candidate is (:class:`_Loading`, multipliers), and passes when its
    KKT report is satisfied and it is feasible.  Returns (loads,
    multipliers, report).
    """
    for point, multipliers in sorted(candidates, key=lambda c: -float(problem.objective @ c[0].x)):
        report = _kkt_report(problem, point, *multipliers)
        if report.satisfied and point.violation <= FEASIBILITY_TOLERANCE:
            return point.x, multipliers, report
    return None


def solve(problem: Problem) -> Solution:
    """Maximize revenue over the full constraint set, in closed form.

    A negative right-hand side means the empty vessel already violates the
    stability margin and nothing is feasible: status Infeasible.
    Otherwise the candidates are, in turn:

    * a point of the relaxation's optimal face that meets the stability
      constraint (``_stable_point``), a global optimum;
    * else, on a positive-semidefinite matrix, the support exchange from
      the support of the relaxation's vertex (``_exchange``);
    * else, or when that exchange finds no point that verifies, the
      enumerated optimum (``_kkt_optimum``) and the points of the exchange
      that grows it.  A winner without closed-form multipliers (t <= 0)
      gets (lam_C, lam_V, lam_S) by nonnegative least squares.

    The answer is the candidate of highest revenue that passes the
    feasibility filter and the KKT report.
    Its status is Optimal on a positive-semidefinite matrix, where every
    KKT point is a global optimum, and LocalOnly on any other, however it
    was found; the oracle module can upgrade LocalOnly results with
    brute-force evidence, and the solver never claims more than it can
    prove.  When no candidate verifies, the best feasible one is returned
    with status IterationLimit, and the empty vessel when none is
    feasible.
    """
    if problem.rhs < 0:
        return _empty_vessel(problem, SolverStatus.INFEASIBLE)

    convex = problem.classification.kind is Definiteness.POSITIVE_SEMIDEFINITE
    status = SolverStatus.OPTIMAL if convex else SolverStatus.LOCAL_ONLY
    face, lam_dw, lam_vol = _lp_optimum(problem)
    relaxed = _stable_point(problem, face)
    if relaxed is not None:
        multipliers = _closed_form_multipliers(problem, relaxed, (lam_dw, lam_vol, 0.0))
        candidates = [(relaxed, multipliers)]
    elif convex:
        candidates = _exchange(problem, np.flatnonzero(face[0]).tolist())
    else:
        candidates = []
    best = _best_verified(problem, candidates)
    if best is None and relaxed is None:
        _, seed, _, lams = _kkt_optimum(problem, len(face) <= 2)
        seed = _Loading(problem, seed)
        if lams is None:
            lams = _recover_multipliers(problem, seed)[:3]
        grown = _exchange(problem, np.flatnonzero(seed.x).tolist(), (seed, lams))
        candidates += grown
        best = _best_verified(problem, grown)
    if best is not None:
        return _solution(problem, *best, status, 1, 0)

    feasible = [c for c in candidates if c[0].violation <= FEASIBILITY_TOLERANCE]
    if not feasible:
        return _empty_vessel(problem, SolverStatus.ITERATION_LIMIT)
    point, multipliers = max(feasible, key=lambda c: float(problem.objective @ c[0].x))
    report = _kkt_report(problem, point, *multipliers)
    return _solution(problem, point.x, multipliers, report, SolverStatus.ITERATION_LIMIT, 1, 0)


def kkt_verify(problem: Problem, solution) -> KktReport:
    """Check first-order optimality of a solution or raw loading vector.

    Accepts a :class:`Solution`, whose own multipliers are reused, or any
    loading vector, in which case multipliers are recovered from the
    active set by nonnegative least squares.  Always returns a report; the
    ``satisfied`` flag carries the verdict.
    """
    x = problem.check_vector(solution.x if isinstance(solution, Solution) else solution)
    point = _Loading(problem, x)
    return _kkt_report(problem, point, *_plan_multipliers(problem, solution, point))


def _plan_multipliers(problem: Problem, solution, point: _Loading) -> _Multipliers:
    """(lam_C, lam_V, lam_S, nu) of a plan: a :class:`Solution`'s own, else recovered."""
    if isinstance(solution, Solution):
        return (
            solution.multiplier_deadweight,
            solution.multiplier_volume,
            solution.multiplier_stability,
            solution.multipliers_nonneg,
        )
    return _recover_multipliers(problem, point)


def mu_sensitivity(problem: Problem, solution: Solution) -> float:
    """Predicted revenue loss per meter of extra stability margin.

    Raising the margin by one meter adds the cargo mass to the
    constraint's left side and removes the light mass from its right side,
    together one displacement of tightening, so the first-order revenue
    cost is the stability multiplier times the displacement.
    """
    displacement = float(solution.x.sum()) + problem.vessel.light_mass
    return float(solution.multiplier_stability) * displacement
