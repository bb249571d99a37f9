"""LP baseline and quadratically constrained solver with KKT certification.

The full problem has a linear objective, two linear constraints, and one
quadratic constraint whose matrix may be indefinite, so local methods can
land on stationary points that are not global optima.  The strategy here:

* read the constraint matrix's class, which the problem computed once when
  it was built; a positive-semidefinite matrix makes the feasible region
  convex, and any KKT point is globally optimal.  A support exchange finds
  one in closed form: the relaxation's vertex when it is stable, else the
  points where stationarity on a support meets the stability boundary,
  the support growing by the cargo whose price is most negative,
* otherwise enumerate the candidate KKT points in closed form, support by
  support; the best of them comes with its own multipliers,
* either way that point is start 0.  When it passes the feasibility filter
  and the KKT report with its closed-form multipliers it is returned as it
  is, with no local solve.  Else a local solve runs from it (from an
  interior point on a convex instance); when the enumeration is over
  budget (reverse stacks of 44 or more cargoes) or cannot finish, or
  start 0 does not verify at its revenue, local solves run from seeded
  pseudo-random feasible starts.  The best point that passes KKT
  verification wins.

This module is the one home of the constraint rules: the slacks and their
scales, the feasibility test (worst relative violation at most the
tolerance) and the active set (|slack| at most ten times the tolerance
times max(1, scale)), which both multiplier recovery and the CLI's binding
flags read.

The local method is sequential quadratic programming with analytic
gradients: SciPy's compiled SLSQP kernel (Kraft 1988), driven by a short
loop here that is iterate for iterate the same as
``scipy.optimize.minimize(method="SLSQP")`` without its per-call Python
layers.  It runs in scaled coordinates z = x / deadweight_cap, with the
objective divided by deadweight_cap * max|p| and each constraint divided by
the scale that the feasibility and KKT checks measure it against, so the
method sees O(1) numbers whatever the units of mass and money.  The scaled
data and the kernel's work arrays are built once per solve.  The three
constraints go in as one vector constraint.  A returned point that
overshoots the stability boundary by rounding is pulled back along its
ray onto the boundary in closed form.

The method is otherwise treated as a black box: a returned point counts
only if it is feasible and passes the KKT report.  A start whose
return fails the feasibility filter is logged at DEBUG on the
``shipload.solver`` logger.  Lagrange multipliers of a local solve's
point are recovered from the active set by nonnegative least squares,
since the local method does not expose duals; a start whose revenue is
already below a verified one skips that recovery and the KKT report,
because it can no longer be returned.

The LP relaxation is solved by enumerating the bases of its
two-constraint polytope in NumPy.  Nothing here imports the
``scipy.optimize`` package, whose import costs most of a CLI process: the
compiled extension that holds both the SLSQP kernel and the Lawson-Hanson
NNLS routine is loaded straight from SciPy's package directory on first
use, which a closed-form answer never reaches, and registered under its
own module name, so a later ``import scipy.optimize`` shares it.
"""

from __future__ import annotations

import enum
import functools
import importlib.machinery
import importlib.util
import itertools
import logging
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .hydrostatics import constraint_slack
from .model import Problem, revenue
from .quadratic_analysis import Definiteness

__all__ = [
    "SolverStatus",
    "SolverOptions",
    "KktReport",
    "Solution",
    "solve_lp",
    "solve",
    "kkt_verify",
    "mu_sensitivity",
    "stability_gradient",
    "active_set",
]

_log = logging.getLogger(__name__)

DEFAULT_KKT_TOLERANCE = 1e-6
DEFAULT_FEASIBILITY_TOLERANCE = 1e-8

_KERNEL_MODULE = "scipy.optimize._slsqplib"
# Relative slack of solve_lp's revenue and dual tests (see its tie rule),
# of the stability test of its vertex in _kkt_optimum, and of the revenue
# that ends solve's search.
_LP_TOLERANCE = 1e-9
# Most steps of the convex support exchange are 2 n plus this many; an
# exchange that has not stopped by then hands the instance to the local
# solve.  The measured answers took at most 3.
_EXCHANGE_EXTRA_STEPS = 6


def _slsqplib():
    """SciPy's compiled ``slsqp``/``nnls`` extension, without importing ``scipy.optimize``.

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
        "SLSQP and NNLS routines it calls"
    )


class SolverStatus(enum.Enum):
    OPTIMAL = "Optimal"
    LOCAL_ONLY = "LocalOnly"
    INFEASIBLE = "Infeasible"
    ITERATION_LIMIT = "IterationLimit"


@dataclass
class SolverOptions:
    """Knobs for :func:`solve`; defaults reproduce the reported results.

    ``multistart_count`` and ``rng_seed`` drive the seeded random starts,
    which run only as a fallback: on a convex instance whose closed-form
    point and interior start both fail to verify, or on a nonconvex one
    whose KKT enumeration is over budget, incomplete or not confirmed by
    its own start.  ``max_iterations`` bounds each local solve.
    """

    multistart_count: int = 32
    rng_seed: int = 0
    feasibility_tolerance: float = DEFAULT_FEASIBILITY_TOLERANCE
    kkt_tolerance: float = DEFAULT_KKT_TOLERANCE
    max_iterations: int = 500

    def __post_init__(self) -> None:
        if int(self.multistart_count) < 1:
            raise ValueError("multistart_count must be at least 1")
        self.multistart_count = int(self.multistart_count)
        self.rng_seed = int(self.rng_seed)
        for name in ("feasibility_tolerance", "kkt_tolerance"):
            value = getattr(self, name)
            # An infinite tolerance would accept every point as feasible and KKT.
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite")
        if int(self.max_iterations) < 1:
            raise ValueError("max_iterations must be at least 1")
        self.max_iterations = int(self.max_iterations)


@dataclass(frozen=True)
class KktReport:
    """First-order optimality residuals at a candidate point.

    ``satisfied`` applies the verification tolerance with scaling:
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

    ``starts_used`` counts the starts that ran, and ``best_start_index``
    is the position of the winning one in the order they ran (-1 when
    none returned a feasible point).  Start 0 is the closed-form KKT point:
    the support exchange's on a convex instance, the enumerated optimum on
    a nonconvex one.  When it verifies it is the answer, with
    ``starts_used == 1`` and no local solve; otherwise start 0 is a local
    solve from it (from an interior point on a convex instance), and the
    seeded random starts follow it, or come first when there is no such
    start.
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
    feasibility test, the KKT report and the local solve all work with.
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


def _feasible(problem: Problem, x: np.ndarray, tol: float) -> bool:
    return _violation(problem, x, _slacks(problem, x)) <= tol


def active_set(
    problem: Problem, x: np.ndarray, tolerance: float
) -> tuple[bool, bool, bool, np.ndarray]:
    """Which constraints bind at ``x``: deadweight, volume, stability, and the mask x_i ~ 0.

    A constraint binds when its slack, or a load, is within ten times
    ``tolerance`` times max(1, its scale) of zero on either side; a
    constraint violated by more than that does not bind.  Multiplier
    recovery takes its columns from these flags, and reports show them.
    """
    threshold = 10.0 * tolerance
    mass_scale = max(1.0, problem.deadweight_cap)
    dw, vol, stab = _slacks(problem, x)
    return (
        abs(dw) <= threshold * mass_scale,
        abs(vol) <= threshold * max(1.0, problem.volume_cap),
        abs(stab) <= threshold * max(1.0, abs(problem.rhs)),
        np.abs(x) <= threshold * mass_scale,
    )


def _scale_into_stability(problem: Problem, x: np.ndarray, safety: float = 0.9) -> np.ndarray:
    """Shrink ``x`` toward the origin until the stability constraint holds.

    Along the ray t*x the constraint's left side is qa*t^2 + qb*t, so the
    largest feasible scale t is the up-crossing root of qa*t^2 + qb*t - r,
    written without cancellation for either sign of qb.  The result is
    ``safety * t * x``: starts keep a margin inside the region, a solver
    return pulled back onto the boundary uses ``safety = 1``.  The origin
    is feasible whenever rhs >= 0, which callers have already checked.
    """
    qa = problem.quad_scale * float(x @ problem.quad_matrix @ x)
    qb = problem.linear_coeff * float(x.sum())
    r = problem.rhs
    if qa + qb <= r:
        return x
    # Infeasible at t = 1 with r >= 0: qb < 0 forces qa > -qb > 0, and
    # qa < 0 forces qb > r; either way the root lies in [0, 1).
    root = math.sqrt(max(qb * qb + 4.0 * qa * r, 0.0))
    if qb < 0:
        t = (root - qb) / (2.0 * qa)
    else:
        t = 2.0 * r / (qb + root) if qb + root > 0 else 0.0
    return x * (safety * t)


def _cap_to_volume(problem: Problem, x: np.ndarray) -> np.ndarray:
    used = float(problem.volume_coeffs @ x)
    if used > problem.volume_cap:
        return x * (0.95 * problem.volume_cap / used)
    return x


def _interior_start(problem: Problem) -> np.ndarray:
    x = np.full(problem.n, 0.5 * problem.deadweight_cap / problem.n)
    return _scale_into_stability(problem, _cap_to_volume(problem, x))


def _random_start(problem: Problem, rng: np.random.Generator) -> np.ndarray:
    # Dirichlet weights with concentration below 1 bias the draw toward
    # faces of the simplex, so starts land near distinct active sets and
    # the multistart actually explores different basins.
    weights = rng.dirichlet(np.full(problem.n, 0.4))
    x = weights * (problem.deadweight_cap * rng.uniform())
    return _scale_into_stability(problem, _cap_to_volume(problem, x))


def _random_starts(problem: Problem, options: SolverOptions):
    """The seeded random starts; the generator, and ``numpy.random``, load on the first draw."""
    rng = np.random.default_rng(options.rng_seed)
    for _ in range(options.multistart_count):
        yield _random_start(problem, rng)


class _ScaledProblem:
    """The problem as SLSQP sees it, in z = x / deadweight_cap, and the kernel's work arrays.

    Built once per :func:`solve` and shared by its starts; ``_local_solve``
    resets the work arrays before each one.  The cost is -p / max|p|, and
    the three constraints are divided by their ``_constraint_scales``:
    linear rows sum(x), v.x and b*sum(x) plus the quadratic s*x'Ax.
    """

    def __init__(self, problem: Problem, max_iterations: int) -> None:
        self.kernel = _slsqplib().slsqp
        self.max_iterations = max_iterations
        n = problem.n
        cap = problem.deadweight_cap
        scales = np.array(_constraint_scales(problem))
        rate = float(np.abs(problem.objective).max(initial=0.0)) or 1.0
        self.cap = cap
        self.cost = -problem.objective / rate
        ones = np.ones(n)
        linear = np.vstack([ones, problem.volume_coeffs, problem.linear_coeff * ones])
        linear *= (cap / scales)[:, None]
        self.linear = linear
        self.neg_linear = -linear
        self.quad = problem.quad_matrix * (problem.quad_scale * cap * cap / scales[2])
        self.limits = np.array([cap, problem.volume_cap, problem.rhs]) / scales
        # Work arrays sized as scipy.optimize's SLSQP driver sizes them for
        # m = 3 inequality constraints and no equalities.
        m = 3
        self.lower = np.zeros(n)
        self.upper = np.full(n, np.nan)  # NaN: no upper bound
        self.slack = np.zeros(m)
        self.jacobian = np.zeros((m, n), order="F")
        self.mult = np.zeros(m + 2 * n + 2)
        self.buffer = np.zeros(n * (n + 1) // 2 + 3 * m * n + 9 * m + 8 * n * n + 35 * n + 28)
        self.indices = np.zeros(m + 2 * n + 2, dtype=np.int32)

    def eval_slack(self, z: np.ndarray) -> None:
        np.subtract(self.limits, self.linear @ z, out=self.slack)
        self.slack[2] -= z @ self.quad @ z

    def eval_jacobian(self, z: np.ndarray) -> None:
        self.jacobian[...] = self.neg_linear
        self.jacobian[2] -= 2.0 * (self.quad @ z)


def _local_solve(
    problem: Problem, scaled: _ScaledProblem, x0: np.ndarray
) -> tuple[np.ndarray, int, int]:
    """One SLSQP run from ``x0``; returns the loads, the exit mode and the iteration count.

    Drives the compiled kernel exactly as ``scipy.optimize.minimize``
    does for this problem (ftol 1e-12, lower bounds 0, no upper bounds),
    so the iterates are the same, without its per-call Python layers.
    The kernel asks for the objective and constraint values (mode 1) or
    their gradients (mode -1); any other mode ends the run.
    """
    s = scaled
    z = np.clip(x0 / s.cap, 0.0, np.inf)
    for work in (s.mult, s.buffer, s.indices):
        work.fill(0)
    acc = 1e-12
    state = {
        "acc": acc, "alpha": 0.0, "f0": 0.0, "gs": 0.0,
        "h1": 0.0, "h2": 0.0, "h3": 0.0, "h4": 0.0, "t": 0.0, "t0": 0.0,
        "tol": 10.0 * acc, "exact": 0, "inconsistent": 0, "reset": 0,
        "iter": 0, "itermax": s.max_iterations, "line": 0,
        "m": 3, "meq": 0, "mode": 0, "n": problem.n,
    }
    objective = float(s.cost @ z)
    s.eval_slack(z)
    s.eval_jacobian(z)
    while True:
        s.kernel(
            state, objective, s.cost, s.jacobian, s.slack, z, s.mult, s.lower, s.upper,
            s.buffer, s.indices,
        )
        mode = state["mode"]
        if mode == 1:
            objective = float(s.cost @ z)
            s.eval_slack(z)
        elif mode == -1:
            s.eval_jacobian(z)
        else:
            break
    # The exit mode is not trusted: the method sometimes reports a line
    # search failure while sitting on the optimum.  Feasibility and KKT
    # checks on the returned point decide whether it counts; a point just
    # outside the stability boundary is first pulled back onto it.
    x = _scale_into_stability(problem, np.maximum(z, 0.0) * s.cap, safety=1.0)
    return x, mode, state["iter"]


def _recover_multipliers(
    problem: Problem, x: np.ndarray, feasibility_tolerance: float
) -> tuple[float, float, float, np.ndarray]:
    """Active-set least-squares estimate of the Lagrange multipliers.

    Stationarity at a KKT point reads p = lam_C*1 + lam_V*(1/d) +
    lam_S*grad_g(x) - nu with every multiplier nonnegative and inactive
    ones zero.  Collecting the active constraint gradients as columns turns
    that into a nonnegative least-squares fit for the objective vector,
    solved by the compiled routine behind ``scipy.optimize.nnls`` with that
    function's input checks and its default of 3 * columns iterations.
    """
    n = problem.n
    *binding, at_zero = active_set(problem, x, feasibility_tolerance)
    gradients = (np.ones(n), problem.volume_coeffs, stability_gradient(problem, x))
    active = [k for k, on in enumerate(binding) if on]
    zero = np.flatnonzero(at_zero)
    units = np.zeros((n, zero.size))
    units[zero, np.arange(zero.size)] = -1.0

    lam = [0.0, 0.0, 0.0]
    nu = np.zeros(n)
    if active or zero.size:
        columns = np.asarray_chkfinite(
            np.column_stack([*(gradients[k] for k in active), units]),
            dtype=np.float64, order="C",
        )
        rates = np.asarray_chkfinite(problem.objective, dtype=np.float64)
        coef, _, info = _slsqplib().nnls(columns, rates, 3 * columns.shape[1])
        if info == 3:
            raise RuntimeError("Maximum number of iterations reached.")
        for k, value in zip(active, coef):
            lam[k] = float(value)
        nu[zero] = coef[len(active):]
    return (*lam, nu)


def _kkt_report(
    problem: Problem,
    x: np.ndarray,
    lam_dw: float,
    lam_vol: float,
    lam_stab: float,
    nu: np.ndarray,
    tolerance: float,
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
        stationarity <= tolerance * rate_scale
        and complementarity <= tolerance * max(1.0, objective)
        and primal <= tolerance
        and dual >= -tolerance
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


def _lp_optimum(problem: Problem) -> tuple[np.ndarray, float, float, bool]:
    """The relaxation's optimal vertex by :func:`solve_lp`'s rule, its duals, and uniqueness.

    The flag is true when every tied basis sits at the same loads (to 1e-9
    of the deadweight cap) once the loads of each run of equal-density
    neighbours in the stack are summed.  Such neighbours are
    interchangeable in every constraint, so the relaxation's optimal face
    then meets each constraint as that one vertex does.
    """
    p = problem.objective
    v = problem.volume_coeffs
    cap, room = problem.deadweight_cap, problem.volume_cap
    n = problem.n
    nothing = np.zeros(n)
    i, j, first, second = _bases(n)
    p_i, p_j, v_i, v_j = p[i], p[j], v[i], v[j]
    volume_loads = room * problem.densities
    with np.errstate(divide="ignore", invalid="ignore"):
        # Equal densities give infinite or NaN loads, which fail the checks below.
        pair_lam_v = (p_j - p_i) / (v_j - v_i)
        pair_i = (room - v_j * cap) / (v_i - v_j)
        pair_j = (v_i * cap - room) / (v_i - v_j)
        # A zero rate times an infinite load is NaN too.
        pair_revenue = p_i * pair_i + p_j * pair_j
    load_first = np.concatenate([[0.0], np.full(n, cap), volume_loads, pair_i])
    load_second = np.concatenate([[0.0], nothing, nothing, pair_j])
    lam_c = np.concatenate([[0.0], p, nothing, p_i - pair_lam_v * v_i])
    lam_v = np.concatenate([[0.0], nothing, p * problem.densities, pair_lam_v])
    # A single cargo must fit the other cap; a pair binds both by construction.
    feasible = np.concatenate(
        [[True], v * cap <= room, volume_loads <= cap, (pair_i >= 0) & (pair_j >= 0)]
    )
    revenue = np.concatenate([[0.0], p * cap, p * volume_loads, pair_revenue])
    revenue[~feasible] = -np.inf

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
    x = points[pick]
    lam_dw = max(float(lam_c[b]), 0.0)
    lam_vol = max(float(lam_v[b]), 0.0)
    if tied.size > 1:
        # Sum each run of equal densities into its first column.
        d = problem.densities
        runs = np.flatnonzero(np.concatenate([[True], d[1:] != d[:-1]]))
        points = np.add.reduceat(points, runs, axis=1)
    unique = float(np.abs(points - points[pick]).max()) <= tol * cap
    return x, lam_dw, lam_vol, unique


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
    x, lam_dw, lam_vol, _ = _lp_optimum(problem)
    multipliers = _closed_form_multipliers(problem, x, (lam_dw, lam_vol, 0.0))
    report = _kkt_report(problem, x, *multipliers, DEFAULT_KKT_TOLERANCE)
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


def _empty_vessel(
    problem: Problem, tolerance: float, status: SolverStatus, starts_used: int
) -> Solution:
    """The zero loading with zero multipliers, for when no start gives a feasible point."""
    x = np.zeros(problem.n)
    multipliers = (0.0, 0.0, 0.0, np.zeros(problem.n))
    report = _kkt_report(problem, x, *multipliers, tolerance)
    return _solution(problem, x, multipliers, report, status, starts_used, -1)


def _kkt_optimum(
    problem: Problem,
) -> tuple[float, np.ndarray | None, bool, tuple[float, float, float] | None]:
    """The best candidate KKT point of the full problem: (revenue, loads, complete, multipliers).

    ``complete`` says that the candidates include a global maximum under
    a constraint qualification (the active constraint gradients
    independent, so that the second-order necessary conditions hold).
    They need not include every local maximum: the enumeration skips
    supports that an edge argument shows no global optimum needs.  When
    it is false the revenue is -inf, the loads and multipliers are None,
    and the reason is logged at DEBUG.  The multipliers (lam_C, lam_V,
    lam_S) are the point's own in closed form, or None when it has none
    with finite lam_S.

    The relaxation's vertex, when it meets the stability constraint, is
    globally optimal, with its LP duals and lam_S = 0.  Otherwise a global
    optimum that left stability slack would be an optimum of the
    relaxation too, so when that vertex is the relaxation's only optimal
    point (up to moving mass between equal-density neighbours), stability
    binds at the global optimum and
    :func:`~shipload.kkt_enumeration.binding_optimum` enumerates the
    candidates.  An optimal face of more than one point is not enumerated.
    """
    x_lp, lam_dw, lam_vol, unique = _lp_optimum(problem)
    if _violation(problem, x_lp, _slacks(problem, x_lp)) <= _LP_TOLERANCE:
        return float(problem.objective @ x_lp), x_lp, True, (lam_dw, lam_vol, 0.0)
    if unique:
        # Imported here: a process that never meets an unstable
        # relaxation never compiles or loads it.
        from .kkt_enumeration import binding_optimum

        value, x, multipliers, reason = binding_optimum(problem)
    else:
        reason = "the relaxation's optimum is not one point"
    if reason is not None:
        _log.debug("KKT enumeration incomplete: %s", reason)
        return -math.inf, None, False, None
    return value, x, True, multipliers


def _convex_exchange(
    problem: Problem, feasibility_tolerance: float, kkt_tolerance: float
) -> tuple[np.ndarray, tuple[float, float, float]] | None:
    """A KKT point of a convex instance with its multipliers (lam_C, lam_V, lam_S), or None.

    The relaxation's vertex answers with its LP duals when it is stable.
    Otherwise stability binds, and a support exchange starts from the
    vertex's support of at most two cargoes.  Each step solves the
    support in closed form (:func:`~shipload.kkt_enumeration.support_points`)
    and keeps its best valid point: loads at least -``feasibility_tolerance``
    times the deadweight cap, lam_C and lam_V at least -``kkt_tolerance``
    times max(1, max p), and both caps met to ``feasibility_tolerance``
    relative.  A support without one gives way to the
    best of its subsets that drop one cargo.  The cargoes outside the
    support are then priced, nu_j = lam_C + lam_V v_j + lam_S g_j - p_j
    with g the stability gradient; when none is below -``kkt_tolerance``
    times max(1, max p) the point is a KKT point, and under convexity a
    global optimum.  Else the most negative joins the support.  None when
    no support has a valid point or after 2 n + ``_EXCHANGE_EXTRA_STEPS``
    steps.
    """
    x, lam_dw, lam_vol, _ = _lp_optimum(problem)
    if _violation(problem, x, _slacks(problem, x)) <= _LP_TOLERANCE:
        return x, (lam_dw, lam_vol, 0.0)
    from .kkt_enumeration import scaled_units, support_points

    units = scaled_units(problem)
    p, v = problem.objective, problem.volume_coeffs
    cap, room = problem.deadweight_cap, problem.volume_cap
    price_tol = kkt_tolerance * max(1.0, float(p.max()))
    over = 1.0 + feasibility_tolerance

    def best_point(support):
        # The points lie on the stability boundary; solve checks the answer's feasibility.
        best = None
        for loads, lam_c, lam_v, lam_s in support_points(units, support):
            if loads.min() < -feasibility_tolerance * cap or min(lam_c, lam_v) < -price_tol:
                continue
            loads = np.maximum(loads, 0.0)
            if loads.sum() > cap * over or v @ loads > room * over:
                continue
            if best is None or p @ loads > p @ best[0]:
                best = (loads, (lam_c, lam_v, lam_s))
        return best

    support = np.flatnonzero(x).tolist()
    for _ in range(2 * problem.n + _EXCHANGE_EXTRA_STEPS):
        point = best_point(support)
        if point is None:
            smaller = [support[:k] + support[k + 1:] for k in range(len(support))]
            found = [(best_point(s), s) for s in smaller if s]
            found = [(q, s) for q, s in found if q is not None]
            if not found:
                return None
            point, support = max(found, key=lambda item: p @ item[0][0])
        x, (lam_c, lam_v, lam_s) = point
        nu = lam_c + lam_v * v + lam_s * stability_gradient(problem, x) - p
        nu[support] = math.inf
        j = int(nu.argmin())
        if nu[j] >= -price_tol:
            return point
        support = sorted(support + [j])
    return None


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


def _preferred(problem: Problem, challenger: np.ndarray, incumbent: np.ndarray) -> bool:
    a = float(problem.objective @ challenger)
    b = float(problem.objective @ incumbent)
    if a != b:
        return a > b
    return tuple(challenger) < tuple(incumbent)


def solve(problem: Problem, options: SolverOptions | None = None) -> Solution:
    """Maximize revenue over the full constraint set.

    A negative right-hand side means the empty vessel already violates the
    stability margin and nothing is feasible.  Otherwise the problem's
    ``classification`` decides how start 0 is found in closed form.
    Positive semidefinite gives a convex region, where the support
    exchange (``_convex_exchange``) finds a KKT point, which is a global
    optimum (status Optimal).  Any other class enumerates the candidate
    KKT points (``_kkt_optimum``) and takes the best.  Start 0 comes with
    closed-form multipliers, and when it passes the feasibility filter and
    the KKT report at the options' tolerances it is returned as it is:
    one start, no local solve.

    Otherwise the local search runs.  On a convex instance one local solve
    from a deterministic interior start; the seeded random starts run,
    until one verifies, only if that start stalls.  On any other, a local
    solve from the enumerated point, and the search ends at the first
    KKT-verified start that earns its revenue to 1e-9 relative; the
    random starts follow only if none does.  An enumeration over budget
    (reverse stacks of 44 or more cargoes) or incomplete (equal densities
    apart in the stack, a relaxation tied at distinct points) leaves the
    seeded multistart as the only search.  A nonconvex answer is
    LocalOnly however it was found: the enumeration rests on a constraint
    qualification, so it is no certificate.  The oracle module can upgrade
    LocalOnly results with brute-force evidence; the solver itself never
    claims more than it can prove.
    """
    opts = options if options is not None else SolverOptions()
    if problem.rhs < 0:
        return _empty_vessel(problem, opts.kkt_tolerance, SolverStatus.INFEASIBLE, 0)

    convex = problem.classification.kind is Definiteness.POSITIVE_SEMIDEFINITE
    status = SolverStatus.OPTIMAL if convex else SolverStatus.LOCAL_ONLY

    # Start 0 in closed form: the support exchange's KKT point of a convex
    # instance, or the enumerated optimum of any other.  It needs no local
    # solve when it passes the checks that every start's return passes.
    if convex:
        closed = _convex_exchange(problem, opts.feasibility_tolerance, opts.kkt_tolerance)
    else:
        value, seed, complete, lams = _kkt_optimum(problem)
        closed = None if lams is None else (seed, lams)
    if closed is not None:
        x, lams = closed
        multipliers = _closed_form_multipliers(problem, x, lams)
        report = _kkt_report(problem, x, *multipliers, opts.kkt_tolerance)
        # The report's primal feasibility is the violation that _feasible tests.
        if report.satisfied and report.primal_feasibility <= opts.feasibility_tolerance:
            return _solution(problem, x, multipliers, report, status, 1, 0)

    scaled = _ScaledProblem(problem, opts.max_iterations)
    best_verified = -math.inf
    candidates = []

    def evaluate(x0: np.ndarray, index: int) -> bool:
        """One start's local solve; whether it is KKT-verified and earns the ceiling."""
        nonlocal best_verified
        x, mode, iterations = _local_solve(problem, scaled, x0)
        if not _feasible(problem, x, opts.feasibility_tolerance):
            _log.debug(
                "start %d rejected: exit mode %d after %d iterations, "
                "worst relative violation %.3g",
                index, mode, iterations, _violation(problem, x, _slacks(problem, x)),
            )
            return False
        value = float(problem.objective @ x)
        if value < best_verified:
            # Once a start is verified only verified starts can be
            # returned, and this one would lose to it on revenue.
            return False
        multipliers = _recover_multipliers(problem, x, opts.feasibility_tolerance)
        report = _kkt_report(problem, x, *multipliers, opts.kkt_tolerance)
        candidates.append((x, multipliers, report, index))
        if not report.satisfied:
            return False
        best_verified = max(best_verified, value)
        return value >= ceiling

    # The local search: a local solve from start 0 (from an interior point
    # on a convex instance), if there is one, then the seeded random
    # starts; a verified start earning the ceiling ends it.  Under
    # convexity any KKT point is globally optimal, so there the first
    # verified start does.
    if convex:
        seed, ceiling = _interior_start(problem), -math.inf
    else:
        ceiling = value - _LP_TOLERANCE * max(1.0, abs(value)) if complete else math.inf
    starts = itertools.chain([] if seed is None else [seed], _random_starts(problem, opts))
    starts_used = 0
    for index, x0 in enumerate(starts):
        starts_used += 1
        if evaluate(x0, index):
            break

    verified = [c for c in candidates if c[2].satisfied]
    pool = verified if verified else candidates
    if not pool:
        # Every start failed even the feasibility filter; fall back to the
        # origin, which is feasible here because rhs >= 0.
        return _empty_vessel(
            problem, opts.kkt_tolerance, SolverStatus.ITERATION_LIMIT, starts_used
        )
    best = pool[0]
    for candidate in pool[1:]:
        if _preferred(problem, candidate[0], best[0]):
            best = candidate
    if not verified:
        status = SolverStatus.ITERATION_LIMIT
    x, multipliers, report, index = best
    return _solution(problem, x, multipliers, report, status, starts_used, index)


def kkt_verify(problem: Problem, solution, tolerance: float = DEFAULT_KKT_TOLERANCE) -> KktReport:
    """Check first-order optimality of a solution or raw loading vector.

    Accepts a :class:`Solution`, whose own multipliers are reused, or any
    loading vector, in which case multipliers are recovered from the
    active set by nonnegative least squares.  Always returns a report; the
    ``satisfied`` flag carries the verdict.
    """
    x = problem.check_vector(solution.x if isinstance(solution, Solution) else solution)
    return _kkt_report(problem, x, *_plan_multipliers(problem, solution, x), tolerance)


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
    return _recover_multipliers(problem, x, DEFAULT_FEASIBILITY_TOLERANCE)


def mu_sensitivity(problem: Problem, solution: Solution) -> float:
    """Predicted revenue loss per meter of extra stability margin.

    Raising the margin by one meter adds the cargo mass to the
    constraint's left side and removes the light mass from its right side,
    together one displacement of tightening, so the first-order revenue
    cost is the stability multiplier times the displacement.
    """
    displacement = float(solution.x.sum()) + problem.vessel.light_mass
    return float(solution.multiplier_stability) * displacement
