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
fixed tolerances: the slacks and their scales, the feasibility test (worst
relative violation at most ``FEASIBILITY_TOLERANCE``), the active set
(|slack| at most ten times that times max(1, scale)), which both
multiplier recovery and the CLI's binding flags read, and the KKT test at
``KKT_TOLERANCE``.

Lagrange multipliers of a raw loading, which comes with none, are
recovered from its active set by nonnegative least squares, whose
minimum is the plain least-squares fit wherever that fit is determined
and nonnegative.  Nothing here imports the ``scipy.optimize`` package,
whose import costs most of a CLI process: the compiled extension that
holds the Lawson-Hanson NNLS routine is loaded straight from SciPy's
package directory on first use, which neither a closed-form answer nor
such a fit reaches, and registered under its own module name, so a later
``import scipy.optimize`` shares it.
"""

from __future__ import annotations

import enum
import functools
import importlib.machinery
import importlib.util
import math
import operator
import os
import sys
from dataclasses import dataclass

import numpy as np

from .hydrostatics import constraint_slack
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

_KERNEL_MODULE = "scipy.optimize._slsqplib"
# Relative slack of solve_lp's revenue and dual tests (see its tie rule),
# of the distinctness of its tied vertices, and of the stability test of
# the relaxation's optimal face in solve.
_LP_TOLERANCE = 1e-9
# Most steps of the support exchange are 2 n plus this many.  The measured
# convex answers took at most 3.
_EXCHANGE_EXTRA_STEPS = 6


def _slsqplib():
    """SciPy's compiled extension that holds the NNLS routine, without importing ``scipy.optimize``.

    The extension file is found through the ``scipy`` package's import
    spec, which does not import SciPy, and loaded on its own.  It is
    registered in ``sys.modules`` under its own name, so a later
    ``import scipy.optimize`` reuses this module object, and a process
    that already imported it gets the same object back.  The package
    imported later has no ``_slsqplib`` attribute, since only an import
    of the submodule itself would set it; ``import
    scipy.optimize._slsqplib`` still finds the module.
    """
    module = sys.modules.get(_KERNEL_MODULE)
    if module is not None:
        return module
    spec = importlib.util.find_spec("scipy")
    folders = spec.submodule_search_locations if spec is not None else None
    for folder in folders or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(folder, "optimize", "_slsqplib" + suffix)
            if os.path.isfile(path):
                loader = importlib.machinery.ExtensionFileLoader(_KERNEL_MODULE, path)
                module = importlib.util.module_from_spec(
                    importlib.util.spec_from_file_location(_KERNEL_MODULE, path, loader=loader)
                )
                sys.modules[_KERNEL_MODULE] = module
                loader.exec_module(module)
                return module
    raise ImportError(
        f"{_KERNEL_MODULE} not found: shipload needs SciPy >= 1.16, whose compiled "
        "NNLS routine it calls"
    )


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
    arr = problem.check_vector(x)
    return 2.0 * problem.quad_scale * (problem.quad_matrix @ arr) + problem.linear_coeff


def _slacks(problem: Problem, x: np.ndarray) -> tuple[float, float, float]:
    dw = problem.deadweight_cap - float(x.sum())
    vol = problem.volume_cap - float(problem.volume_coeffs @ x)
    return dw, vol, constraint_slack(problem, x)


def _constraint_scales(problem: Problem) -> tuple[float, float, float]:
    """Deadweight, volume and stability scales, in the order of ``_slacks``.

    A slack divided by its scale is the relative violation that the
    feasibility test and the KKT report work with.
    """
    return problem.deadweight_cap, problem.volume_cap, max(1.0, abs(problem.rhs))


def _violation(problem: Problem, x: np.ndarray, slacks) -> float:
    """Worst relative violation of the constraints and of x >= 0.

    0 when nothing is violated, NaN when the loads hold a NaN.
    """
    terms = [
        *(-slack / scale for slack, scale in zip(slacks, _constraint_scales(problem))),
        -float(x.min(initial=0.0)) / max(1.0, problem.deadweight_cap),
    ]
    return math.nan if any(map(math.isnan, terms)) else max(0.0, *terms)


def _feasible(problem: Problem, x: np.ndarray) -> bool:
    return _violation(problem, x, _slacks(problem, x)) <= FEASIBILITY_TOLERANCE


def active_set(problem: Problem, x: np.ndarray) -> tuple[bool, bool, bool, np.ndarray]:
    """Which constraints bind at ``x``: deadweight, volume, stability, and the mask x_i ~ 0.

    A constraint binds when its slack, or a load, is within ten times
    ``FEASIBILITY_TOLERANCE`` times max(1, its scale) of zero on either
    side; a constraint violated by more than that does not bind.
    Multiplier recovery takes its columns from these flags, and reports
    show them.
    """
    threshold = 10.0 * FEASIBILITY_TOLERANCE
    mass_scale = max(1.0, problem.deadweight_cap)
    dw, vol, stab = _slacks(problem, x)
    return (
        abs(dw) <= threshold * mass_scale,
        abs(vol) <= threshold * max(1.0, problem.volume_cap),
        abs(stab) <= threshold * max(1.0, abs(problem.rhs)),
        np.abs(x) <= threshold * mass_scale,
    )


def _recover_multipliers(problem: Problem, x: np.ndarray) -> tuple[float, float, float, np.ndarray]:
    """Active-set least-squares estimate of the Lagrange multipliers.

    Stationarity at a KKT point reads p = lam_C*1 + lam_V*(1/d) +
    lam_S*grad_g(x) - nu with every multiplier nonnegative and inactive
    ones zero.  Collecting the active constraint gradients as columns turns
    that into a nonnegative least-squares fit for the objective vector.
    The columns of nu are unit vectors, one per empty cargo, so when the
    plain least-squares fit of the active gradients to the rates of the
    loaded cargoes determines lam, has lam >= 0, and leaves
    nu_i = (G lam - p)_i >= 0 on every empty one, that point zeroes every
    gradient of the nonnegative fit and is its only minimum.  Otherwise the
    compiled routine behind ``scipy.optimize.nnls`` solves it, with that
    function's input checks and its default of 3 * columns iterations.
    """
    n = problem.n
    *binding, at_zero = active_set(problem, x)
    gradients = (np.ones(n), problem.volume_coeffs, stability_gradient(problem, x))
    active = [k for k, on in enumerate(binding) if on]
    zero = np.flatnonzero(at_zero)

    lam = [0.0, 0.0, 0.0]
    nu = np.zeros(n)
    if active or zero.size:
        rates = np.asarray_chkfinite(problem.objective, dtype=np.float64)
        fit = None
        if active:
            dense = np.asarray_chkfinite(np.column_stack([gradients[k] for k in active]))
            fit = _sign_feasible_fit(dense, rates, at_zero)
        if fit is None:
            units = np.zeros((n, zero.size))
            units[zero, np.arange(zero.size)] = -1.0
            columns = np.asarray_chkfinite(
                np.column_stack([*(gradients[k] for k in active), units]),
                dtype=np.float64, order="C",
            )
            coef, _, info = _slsqplib().nnls(columns, rates, 3 * columns.shape[1])
            if info == 3:
                raise RuntimeError("Maximum number of iterations reached.")
            fit = coef[: len(active)], coef[len(active):]
        for k, value in zip(active, fit[0]):
            lam[k] = float(value)
        nu[zero] = fit[1]
    return (*lam, nu)


def _sign_feasible_fit(
    gradients: np.ndarray, rates: np.ndarray, at_zero: np.ndarray
) -> tuple[list[float], np.ndarray] | None:
    """(lam, nu) of the plain least-squares fit on the loaded cargoes, or None.

    None, and the nonnegative fit runs, when no cargo is loaded, when the
    loaded cargoes leave the multipliers undetermined, or when one of them
    comes out negative.  The fit is modified Gram-Schmidt on the active
    gradients of the loaded cargoes with their rates carried along as one
    more column, which is backward stable for least squares (Bjorck, BIT 7,
    1967).  It runs in scalar arithmetic: for at most three columns,
    LAPACK's call overhead, and the 1 MB of its code that a first call
    pages in, outweigh the work.  A gradient left with at most 1e-12 of the
    largest one's norm counts as dependent on those before it.
    """
    loaded = ~at_zero
    if not loaded.any():
        return None
    columns = gradients[loaded].T.tolist()
    b = rates[loaded].tolist()
    k = len(columns)
    floor = 1e-12 * max(math.hypot(*column) for column in columns)
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
    nu = gradients[at_zero] @ lam - rates[at_zero]
    if min(lam) < 0.0 or nu.min(initial=0.0) < 0.0:
        return None
    return lam, nu


def _kkt_report(
    problem: Problem,
    x: np.ndarray,
    lam_dw: float,
    lam_vol: float,
    lam_stab: float,
    nu: np.ndarray,
) -> KktReport:
    p = problem.objective
    dw, vol, stab = _slacks(problem, x)
    grad = stability_gradient(problem, x)

    lagrangian_gap = p - lam_dw - lam_vol * problem.volume_coeffs - lam_stab * grad + nu
    stationarity = float(np.abs(lagrangian_gap).max())

    complementarity = max(
        abs(lam_dw * dw),
        abs(lam_vol * vol),
        abs(lam_stab * stab),
        float(np.abs(nu * x).max(initial=0.0)),
    )
    primal = _violation(problem, x, (dw, vol, stab))
    dual = min(lam_dw, lam_vol, lam_stab, float(nu.min(initial=0.0)))

    objective = abs(float(p @ x))
    rate_scale = max(1.0, float(np.abs(p).max(initial=0.0)))
    satisfied = (
        stationarity <= KKT_TOLERANCE * rate_scale
        and complementarity <= KKT_TOLERANCE * max(1.0, objective)
        and primal <= KKT_TOLERANCE
        and dual >= -KKT_TOLERANCE
    )
    return KktReport(
        stationarity_residual=stationarity,
        complementarity_residual=complementarity,
        primal_feasibility=primal,
        dual_feasibility=dual,
        satisfied=satisfied,
    )


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
) -> tuple[np.ndarray, ...]:
    """Every basis of max p.x subject to sum(x) <= cap, v.x <= room and x >= 0.

    Returns (first load, second load, lam_C, lam_V, revenue), one entry per
    basis in :func:`_bases` order; an infeasible basis has revenue -inf.
    ``densities`` is 1 / v, which may be infinite where v is 0: a single
    cargo's load at the volume cap is room * density.
    """
    n = p.size
    nothing = np.zeros(n)
    i, j, _, _ = _bases(n)
    p_i, p_j, v_i, v_j = p[i], p[j], v[i], v[j]
    with np.errstate(divide="ignore", invalid="ignore"):
        # Equal densities give infinite or NaN loads, which fail the checks below.
        pair_lam_v = (p_j - p_i) / (v_j - v_i)
        pair_i = (room - v_j * cap) / (v_i - v_j)
        pair_j = (v_i * cap - room) / (v_i - v_j)
        # A zero rate times an infinite load is NaN too.
        pair_revenue = p_i * pair_i + p_j * pair_j
        volume_loads = room * densities
        volume_lam_v = p * densities
        volume_revenue = p * volume_loads
    load_first = np.concatenate([[0.0], np.full(n, cap), volume_loads, pair_i])
    load_second = np.concatenate([[0.0], nothing, nothing, pair_j])
    lam_c = np.concatenate([[0.0], p, nothing, p_i - pair_lam_v * v_i])
    lam_v = np.concatenate([[0.0], nothing, volume_lam_v, pair_lam_v])
    # A single cargo must fit the other cap; a pair binds both by construction.
    feasible = np.concatenate(
        [[True], v * cap <= room, volume_loads <= cap, (pair_i >= 0) & (pair_j >= 0)]
    )
    revenue = np.concatenate([[0.0], p * cap, volume_revenue, pair_revenue])
    revenue[~feasible] = -np.inf
    return load_first, load_second, lam_c, lam_v, revenue


def _lp_optimum(problem: Problem) -> tuple[np.ndarray, float, float]:
    """The relaxation's optimal face by :func:`solve_lp`'s rule, and the duals of its pick.

    The face is given by its tied vertices, one row each: the picked one
    first, then every tied vertex that differs from those before it by
    more than 1e-9 of the deadweight cap once the loads of each run of
    equal-density neighbours in the stack are summed.  Such neighbours
    are interchangeable in every constraint, so vertices that differ only
    between them meet each constraint alike.
    """
    p = problem.objective
    v = problem.volume_coeffs
    cap = problem.deadweight_cap
    n = problem.n
    _, _, first, second = _bases(n)
    load_first, load_second, lam_c, lam_v, revenue = relaxation_vertices(
        p, v, problem.densities, cap, problem.volume_cap
    )

    tol = _LP_TOLERANCE
    best = revenue.max()  # the empty vessel is always feasible, so best >= 0
    tied = np.flatnonzero(revenue >= best * (1.0 - tol))
    nu = lam_c[tied, None] + lam_v[tied, None] * v - p
    violation = -np.minimum(nu.min(axis=1), np.minimum(lam_c[tied], lam_v[tied]))
    # The first tied basis within tolerance, or else the least violating one.
    pick = np.argmin(np.maximum(violation, tol * p.max()))
    b = tied[pick]

    points = np.zeros((tied.size, n))
    rows = np.arange(tied.size)
    # A single cargo's second load is 0, at the same index as its first.
    points[rows, second[tied]] = load_second[tied]
    points[rows, first[tied]] = load_first[tied]
    points = np.maximum(points, 0.0)
    lam_dw = max(float(lam_c[b]), 0.0)
    lam_vol = max(float(lam_v[b]), 0.0)
    face = [pick]
    if tied.size > 1:
        # Sum each run of equal densities into its first column.
        d = problem.densities
        runs = np.flatnonzero(np.concatenate([[True], d[1:] != d[:-1]]))
        summed = np.add.reduceat(points, runs, axis=1)
        for k in range(tied.size):
            if np.abs(summed[face] - summed[k]).max(axis=1).min() > tol * cap:
                face.append(k)
    return points[face], lam_dw, lam_vol


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
    rates (the empty vessel wins).  The work is O(n^2), plus O(n) per tied
    basis.
    """
    face, lam_dw, lam_vol = _lp_optimum(problem)
    x = face[0]
    multipliers = _closed_form_multipliers(problem, x, (lam_dw, lam_vol, 0.0))
    report = _kkt_report(problem, x, *multipliers)
    return _solution(problem, x, multipliers, report, SolverStatus.OPTIMAL, 1, 0)


def _solution(
    problem: Problem,
    x: np.ndarray,
    multipliers: tuple,
    report: KktReport,
    status: SolverStatus,
    starts_used: int,
    best_start_index: int,
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
    x = np.zeros(problem.n)
    multipliers = (0.0, 0.0, 0.0, np.zeros(problem.n))
    report = _kkt_report(problem, x, *multipliers)
    return _solution(problem, x, multipliers, report, status, 0, -1)


def _stable_point(problem: Problem, face: np.ndarray) -> np.ndarray | None:
    """A point of the relaxation's optimal face that meets the stability constraint, or None.

    Each tied vertex is tried, then, when the face is a segment a + theta
    (b - a), the point of it where the constraint's left side is least:
    along the segment that side is a quadratic in theta.  A face of more
    than two vertices is searched only at its vertices.  Such a point is
    a global optimum, with the picked vertex's LP duals and lam_S = 0 as
    its multipliers, since any optimal dual prices every optimal point.
    """
    for x in face:
        if _violation(problem, x, _slacks(problem, x)) <= _LP_TOLERANCE:
            return x
    if len(face) == 2:
        a, b = face
        step = b - a
        curvature = problem.quad_scale * float(step @ problem.quad_matrix @ step)
        slope = float(stability_gradient(problem, a) @ step)
        if curvature > 0.0:
            x = a + min(max(-slope / (2.0 * curvature), 0.0), 1.0) * step
            if _violation(problem, x, _slacks(problem, x)) <= _LP_TOLERANCE:
                return x
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
    start: tuple[np.ndarray, tuple[float, float, float]] | None = None,
) -> list[tuple[np.ndarray, tuple[float, float, float, np.ndarray]]]:
    """The points of a support exchange, each with its multipliers (lam_C, lam_V, lam_S, nu).

    The exchange starts from ``start``, loads on ``support`` with their
    (lam_C, lam_V, lam_S), or, when that is None, from the best valid
    point of ``support``.  Each step solves a support in closed form
    (:func:`~shipload.kkt_enumeration.support_points`) and keeps its best
    valid point: loads at least -``FEASIBILITY_TOLERANCE`` times the
    deadweight cap, lam_C and lam_V at least -``KKT_TOLERANCE`` times
    max(1, max p), and both caps met to ``FEASIBILITY_TOLERANCE``
    relative.  A support without one gives way to the best of its subsets
    that drop one cargo.  The cargoes outside the support are then priced,
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
    units = functools.cache(lambda: scaled_units(problem))
    p, v = problem.objective, problem.volume_coeffs
    cap, room = problem.deadweight_cap, problem.volume_cap
    tolerance = FEASIBILITY_TOLERANCE
    price_tol = KKT_TOLERANCE * max(1.0, float(p.max()))
    over = 1.0 + tolerance

    def best_point(support):
        # The points lie on the stability boundary; solve checks the answer's feasibility.
        best = None
        for loads, lam_c, lam_v, lam_s in support_points(units(), support):
            if loads.min() < -tolerance * cap or min(lam_c, lam_v) < -price_tol:
                continue
            loads = np.maximum(loads, 0.0)
            if loads.sum() > cap * over or v @ loads > room * over:
                continue
            if best is None or p @ loads > p @ best[0]:
                best = (loads, (lam_c, lam_v, lam_s))
        return best

    def settle(support):
        """(point, support): the best valid point of ``support`` or of a subset one smaller."""
        point = best_point(support)
        if point is not None:
            return point, support
        smaller = [support[:k] + support[k + 1:] for k in range(len(support))]
        found = [(best_point(s), s) for s in smaller if s]
        found = [(q, s) for q, s in found if q is not None]
        return max(found, key=lambda item: p @ item[0][0]) if found else None

    if start is None:
        settled = settle(support)
        if settled is None:
            return []
        start, support = settled
    x, (lam_c, lam_v, lam_s) = start
    points = []
    for _ in range(2 * problem.n + _EXCHANGE_EXTRA_STEPS):
        nu = lam_c + lam_v * v + lam_s * stability_gradient(problem, x) - p
        points.append((x, (lam_c, lam_v, lam_s, np.maximum(nu, 0.0))))
        nu[support] = math.inf
        j = int(nu.argmin())
        if nu[j] >= -price_tol:
            break
        settled = settle(sorted(support + [j]))
        if settled is None:
            break
        (x, (lam_c, lam_v, lam_s)), support = settled
    return points


def _closed_form_multipliers(
    problem: Problem, x: np.ndarray, lams: tuple[float, float, float]
) -> tuple[float, float, float, np.ndarray]:
    """(lam_C, lam_V, lam_S, nu) with nu = max(lam_C + lam_V v + lam_S g - p, 0).

    g is the stability gradient at ``x``; with ``lams`` the point's own
    multipliers nu prices the cargoes, and is 0 on the loaded ones.
    """
    lam_dw, lam_vol, lam_stab = lams
    nu = lam_dw + lam_vol * problem.volume_coeffs + lam_stab * stability_gradient(problem, x)
    return lam_dw, lam_vol, lam_stab, np.maximum(nu - problem.objective, 0.0)


def _best_verified(problem: Problem, candidates: list):
    """The candidate of highest revenue, the first on a tie, that passes both checks; or None.

    A candidate is (loads, multipliers), and passes when its KKT report is
    satisfied and it is feasible.  Returns (loads, multipliers, report).
    """
    for x, multipliers in sorted(candidates, key=lambda c: -float(problem.objective @ c[0])):
        report = _kkt_report(problem, x, *multipliers)
        # The report's primal feasibility is the violation that _feasible tests.
        if report.satisfied and report.primal_feasibility <= FEASIBILITY_TOLERANCE:
            return x, multipliers, report
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
        if lams is None:
            lams = _recover_multipliers(problem, seed)[:3]
        grown = _exchange(problem, np.flatnonzero(seed).tolist(), (seed, lams))
        candidates += grown
        best = _best_verified(problem, grown)
    if best is not None:
        return _solution(problem, *best, status, 1, 0)

    feasible = [c for c in candidates if _feasible(problem, c[0])]
    if not feasible:
        return _empty_vessel(problem, SolverStatus.ITERATION_LIMIT)
    x, multipliers = max(feasible, key=lambda c: float(problem.objective @ c[0]))
    report = _kkt_report(problem, x, *multipliers)
    return _solution(problem, x, multipliers, report, SolverStatus.ITERATION_LIMIT, 1, 0)


def kkt_verify(problem: Problem, solution) -> KktReport:
    """Check first-order optimality of a solution or raw loading vector.

    Accepts a :class:`Solution`, whose own multipliers are reused, or any
    loading vector, in which case multipliers are recovered from the
    active set by nonnegative least squares.  Always returns a report; the
    ``satisfied`` flag carries the verdict.
    """
    x = problem.check_vector(solution.x if isinstance(solution, Solution) else solution)
    return _kkt_report(problem, x, *_plan_multipliers(problem, solution, x))


def _plan_multipliers(
    problem: Problem, solution, x: np.ndarray
) -> tuple[float, float, float, np.ndarray]:
    """(lam_C, lam_V, lam_S, nu) of a plan: a :class:`Solution`'s own, else recovered at ``x``."""
    if isinstance(solution, Solution):
        return (
            solution.multiplier_deadweight,
            solution.multiplier_volume,
            solution.multiplier_stability,
            solution.multipliers_nonneg,
        )
    return _recover_multipliers(problem, x)


def mu_sensitivity(problem: Problem, solution: Solution) -> float:
    """Predicted revenue loss per meter of extra stability margin.

    Raising the margin by one meter adds the cargo mass to the
    constraint's left side and removes the light mass from its right side,
    together one displacement of tightening, so the first-order revenue
    cost is the stability multiplier times the displacement.
    """
    displacement = float(solution.x.sum()) + problem.vessel.light_mass
    return float(solution.multiplier_stability) * displacement
