"""Lattice search for global-optimality evidence.

On an indefinite quadratic constraint a KKT point need not be a global
optimum, and a truncated enumeration need not find one.  This module finds the best loading on
a regular lattice inside the feasible set.  Any continuous optimum beats
the lattice optimum by at most the objective's Lipschitz constant times the
lattice resolution, so a solver result that matches or exceeds the lattice
best is certified global to that resolution.  The lattice is a subset of
the feasible set, which also makes the search an independent feasibility
witness.

The search enumerates the first n - 1 coordinates as NumPy arrays of
lattice prefixes and solves the last coordinate in closed form for every
prefix.  Each closed-form level is re-checked with the exact lattice
predicate.

The search is branch and bound (Land and Doig, 1960).  A row of fixed
leading coordinates is skipped with its whole subtree when its revenue so
far plus an upper bound on what the remaining cargoes can add is at most
the incumbent: the best point found so far, or a caller's threshold
``above`` when that is larger, as in :func:`certify`, which asks only
whether some lattice point earns more than the plan.  The bound is the
two-constraint LP over the remaining cargoes, read off precomputed dual
vertices, with the deadweight room tightened by a lower bound on the
stability quadratic that the stacking structure gives; a row with no
stable completion is skipped outright.  Every quantity in it is widened
by a relative margin, so it dominates each lattice point the float
predicate accepts and no skipped subtree holds a point that would change
the answer.  The work is bounded by a count of the lattice rows the
search builds, not by the size of the lattice.

:func:`certify` first asks the root of that tree: a weak-duality bound
from the plan's multipliers (Geoffrion, 1974), with tangents and secants on
the stability terms (McCormick, 1976), proves a convex plan in O(n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import Problem, revenue
from .solver import Solution, _Loading, _plan_multipliers, stable_mass_room

__all__ = ["LatticeSpec", "grid_search", "certify"]

# Relative slack of the certification rule, and the worst relative
# constraint violation of a plan that can be certified.  Read when called,
# never bound as a default argument, so that a patch takes effect.
CERTIFY_TOLERANCE = 1e-6

# Most lattice rows held at once per coordinate; wider prefix sets are
# enumerated in consecutive chunks of their leading coordinates.
_ROW_BUDGET = 1 << 12


@dataclass(frozen=True)
class LatticeSpec:
    """Lattice resolution in tons plus a cap on the lattice rows a search builds."""

    step: float
    max_points: int = 100_000_000

    def __post_init__(self) -> None:
        if not (0 < self.step < math.inf):
            raise ValueError(f"step must be positive and finite, got {self.step}")
        if not (1 <= self.max_points < math.inf):
            raise ValueError(f"max_points must be finite and at least 1, got {self.max_points}")
        object.__setattr__(self, "max_points", int(self.max_points))


class _Prefixes(NamedTuple):
    """Lattice prefixes in lexicographic order with their running sums."""

    levels: np.ndarray  # (rows, depth) lattice level of each fixed coordinate
    mass: np.ndarray
    volume: np.ndarray
    quad: np.ndarray  # x'Ax over the fixed coordinates
    gain: np.ndarray
    y: np.ndarray  # (rows, free) column sums A x of the free coordinates


def _guess(limit: np.ndarray, unit: float, top) -> np.ndarray:
    """Closed-form level floor(limit / unit), clipped to [-1, top + 1]."""
    # fmax and fmin also send a NaN limit to -1.
    guess = np.fmin(np.fmax(np.floor(limit / unit), -1.0), np.asarray(top) + 1.0)
    return guess.astype(np.int64)


def _settle(level: np.ndarray, top, fits) -> np.ndarray:
    """Move each row's guessed level to the last fitting level of its run.

    ``fits(rows, k)`` applies the exact lattice predicate to level ``k`` of
    each listed row.  A row starts at its guess capped at ``top``, climbs
    while the next level up to ``top`` fits, and drops while its own level
    does not, down to -1 for none.  On a predicate monotone in the level
    this is the last fitting level; the closed-form guesses are within a
    level of it, so rows rarely move more than once.
    """
    top = np.broadcast_to(top, level.shape)
    level = np.minimum(level, top)
    rows = slice(None)
    while True:
        k, below = level[rows], top[rows]
        climb = (k < below) & fits(rows, np.minimum(k + 1, below))
        drop = ~climb & (k >= 0) & ~fits(rows, np.maximum(k, 0))
        level[rows] = k + climb - drop
        moved = np.flatnonzero(climb | drop)
        if not moved.size:
            return level
        rows = moved if isinstance(rows, slice) else rows[moved]


def _chunks(counts: np.ndarray):
    """Consecutive row slices whose child counts sum to at most the budget."""
    ends = np.cumsum(counts)
    start = 0
    while start < counts.size:
        before = ends[start - 1] if start else 0
        stop = int(np.searchsorted(ends, before + _ROW_BUDGET, side="right"))
        stop = max(stop, start + 1)
        yield slice(start, stop)
        start = stop


def _expand(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Parent row and level of every child, children in level order."""
    parent = np.repeat(np.arange(counts.size), counts)
    level = np.arange(parent.size) - np.repeat(np.cumsum(counts) - counts, counts)
    return parent, level


# Relative widening of every quantity the branch-and-bound bound is built
# from, far above the rounding of the float lattice predicate (a few ulp)
# and of the stability root (about sqrt(ulp) at a double root).
_MARGIN = 1e-6


def _dual_vertices(p: np.ndarray, vol: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vertices (lambda_C, lambda_V) of the dual of the suffix LP.

    The LP is max p.x subject to sum(x) <= R_m, vol.x <= R_v, x >= 0; its
    dual region is lambda_C >= h(lambda_V) = max(0, max_k p_k - vol_k *
    lambda_V) with lambda_V >= 0.  The envelope h is walked from lambda_V =
    0 to the right: each vertex hands the envelope to a strictly flatter
    line or to zero, so there are at most one vertex per paying cargo plus
    one.  Cargoes without a rate add no dual constraint and are skipped;
    so is the zero volume coefficient of the cargo that pads n = 1.
    Each lambda_C is re-evaluated as h(lambda_V) and widened by the margin,
    so every returned pair is dual feasible whatever the rounding.
    """
    paying = p > 0.0
    p, vol = p[paying], vol[paying]
    if not p.size:
        return np.zeros(1), np.zeros(1)
    lam = [0.0]
    top = p.max()
    ties = np.flatnonzero(p == top)
    line = int(ties[np.argmin(vol[ties])])
    while True:
        flatter = np.flatnonzero(vol < vol[line])
        zero = p[line] / vol[line]
        if flatter.size:
            meet = (p[line] - p[flatter]) / (vol[line] - vol[flatter])
            first = np.lexsort((vol[flatter], meet))[0]
            if meet[first] < zero:
                lam.append(max(float(meet[first]), 0.0))
                line = int(flatter[first])
                continue
        lam.append(zero)
        break
    lam_v = np.array(lam)
    envelope = np.maximum((p[:, None] - vol[:, None] * lam_v).max(axis=0), 0.0)
    lam_c = envelope + _MARGIN * (top + vol.max() * lam_v)
    return lam_c, lam_v


def _revenue_bound(problem: Problem, p: np.ndarray, vol: np.ndarray, a: np.ndarray):
    """Revenue bound on every completion of a row whose coordinates below j are fixed.

    ``p``, ``vol`` and ``a`` are the search's rates, volume coefficients and
    matrix, padded for n = 1.  The returned ``bound(j, mass, volume, quad,
    w, gain)`` takes a row's running sums, with ``w`` = sum_{i<j} A_ij x_i,
    and gives gain + UB, or -inf when no completion can be stable.

    UB is the value of the two-constraint LP over the cargoes j..m-1 with
    mass room R_m and volume room R_v = V - volume, taken as the least of
    lambda_C * R_m + lambda_V * R_v over the dual vertices of
    :func:`_dual_vertices`, which are computed once per depth.

    R_m is tightened by stability.  The matrix is c_min(i,k) in stack order,
    as ``assemble_problem`` builds it, so with the suffix masses S_k =
    x_k + ... + x_{m-1} <= T = S_j its suffix block is sum_k D_k S_k^2 with
    D_j = A_jj and D_k = A_kk - A_{k-1,k-1}, which is at least alpha_j * T^2
    with alpha_j = A_jj + sum_{k>j} min(D_k, 0).  The cross term with the
    prefix is 2 w T, the same for every k >= j.  A stable completion of
    suffix mass T therefore keeps s(Q + 2wT + alpha_j T^2) + b(mass + T) <=
    r, and R_m is the largest such T in [0, C - mass], the stable-mass room
    of :func:`~shipload.solver.stable_mass_room`: C - mass when the
    quadratic holds there, else its up-crossing root in the non-cancelling
    form the last coordinate uses, and no T (the row is dropped) when that
    root lies outside.  The KKT enumeration bounds its supports with the
    same room.

    Margins: the rooms are widened by _MARGIN times the caps, the stability
    right side by _MARGIN times |r| + s max|A| C^2 + |b| C, the root by the
    helper's ``ROOM_MARGIN``, also 1e-6, times its size plus C, each
    lambda_C by _MARGIN times the largest rate plus max(vol) lambda_V, and
    the bound by the relative _MARGIN.  These dominate the rounding of the float predicate and of
    the root, so every lattice point the search would accept lies under
    the bound.
    """
    cap, vol_cap = problem.deadweight_cap, problem.volume_cap
    s, b, r = problem.quad_scale, problem.linear_coeff, problem.rhs
    duals = [_dual_vertices(p[j:], vol[j:]) for j in range(p.size)]
    diag = np.diag(a)
    drops = np.minimum(np.diff(diag), 0.0)
    alpha = diag + np.r_[np.cumsum(drops[::-1])[::-1], 0.0]
    relax = _MARGIN * (abs(r) + s * np.abs(a).max() * cap * cap + abs(b) * cap)

    def bound(j, mass, volume, quad, w, gain):
        room = np.maximum(cap - mass, 0.0) + _MARGIN * cap
        vol_room = np.maximum(vol_cap - volume, 0.0) + _MARGIN * vol_cap
        beta = 2.0 * s * w + b
        gamma = s * quad + b * mass - r - relax
        room, lost = stable_mass_room(s * alpha[j], beta, gamma, room, cap)
        lam_c, lam_v = duals[j]
        lp = (room[:, None] * lam_c + vol_room[:, None] * lam_v).min(axis=1)
        return np.where(lost, -math.inf, (gain + lp) * (1.0 + _MARGIN))

    return bound


def grid_search(
    problem: Problem, spec: LatticeSpec, *, above: float = -math.inf
) -> tuple[np.ndarray | None, float, int]:
    """Best feasible point of the step-lattice, when it earns more than ``above``.

    Returns ``(best_x, best_revenue, points_evaluated)``.  The search is
    lexicographic over coordinates and keeps the first point found among
    revenue ties, so the result is deterministic.  ``points_evaluated``
    counts the mass-feasible lattice points covered; skipped subtrees are
    not counted.

    The first n - 1 coordinates are enumerated as arrays of prefixes, grown
    one coordinate at a time and cut to at most a fixed number of rows per
    chunk, which bounds memory whatever the lattice size.  For each prefix
    the last coordinate is not enumerated: freight rates are nonnegative,
    so revenue cannot fall as it grows and its best level is the highest
    feasible one, or the first level tying it.  The mass and volume
    caps give an upper level in closed form.  If the stability quadratic
    alpha*v^2 + beta*v + gamma <= 0 fails there, the answer is the floor of
    the root where the quadratic turns positive, 2*gamma/(-beta - sqrt(D)),
    which covers alpha > 0, alpha < 0 and alpha = 0.  Every level found in
    closed form is re-checked with the exact lattice predicate and moved
    to the last fitting level, so no infeasible point is returned.

    The search is branch and bound (Land and Doig, 1960).  The incumbent is
    the best revenue found so far, or ``above`` while that is larger, and a
    row whose revenue bound is at most the incumbent is dropped with its
    whole subtree: after each growth of the prefixes, before the
    second-to-last coordinate u is expanded, and for each (prefix, u) row
    before its last coordinate is solved.  A prefix over the volume cap is
    dropped too, since the volume coefficients are positive.  No dropped
    subtree holds a point that would change the answer, so the result is
    the lattice's first best point and its revenue when that earns more
    than ``above``, and ``(None, -inf, points_evaluated)`` otherwise.
    :func:`_revenue_bound` states the bound.  With the default ``above =
    -inf`` the answer is the lattice best; a finite ``above`` asks "does any
    lattice point earn more than ``above``?" and lets the search skip more.

    If no lattice point is feasible (possible when the empty vessel fails
    the stability margin) the best point is ``None`` with revenue -inf.
    Raises ``ValueError`` when ``above`` is NaN, before anything is built
    when a coordinate has ``spec.max_points`` levels or more, and during
    the search when the lattice rows it has built, prefixes and (prefix,
    u) rows alike, exceed ``spec.max_points``.
    """
    above = float(above)
    if math.isnan(above):
        raise ValueError("above must be a number or -inf, got NaN")
    n = problem.n
    cap = problem.deadweight_cap
    step = spec.step
    # For n > 1 the root's children alone are levels + 1 rows.
    if not cap / step < spec.max_points:
        raise ValueError(
            f"a step of {step} t gives more than {spec.max_points} lattice levels "
            "per cargo; raise max_points or coarsen the step"
        )
    levels = int(math.floor(cap / step + 1e-9))
    values = step * np.arange(levels + 1)
    p = problem.objective
    vol = problem.volume_coeffs
    vol_cap = problem.volume_cap
    a = problem.quad_matrix
    s = problem.quad_scale
    b = problem.linear_coeff
    r = problem.rhs
    # The last two coordinates are searched as a pair (u, v).  A single
    # cargo is the v of a pair whose u is held at level zero.
    u_top = levels
    if n == 1:
        p, vol, a = np.r_[0.0, p], np.r_[0.0, vol], np.pad(a, ((1, 0), (1, 0)))
        u_top = 0
    m = p.size
    iu, iv = m - 2, m - 1
    auu, auv, avv = a[iu, iu], a[iu, iv], a[iv, iv]
    bound = _revenue_bound(problem, p, vol, a)
    # The incumbent: a point is only kept when it earns more than this.
    best_revenue = above
    built = 0

    def expand(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # _expand, after charging the children to the row cap.
        nonlocal built
        built += int(counts.sum())
        if built > spec.max_points:
            raise ValueError(
                f"the search built more than {spec.max_points} lattice rows; "
                "raise max_points or coarsen the step"
            )
        return _expand(counts)

    def grow(rows: _Prefixes, parent: np.ndarray, level: np.ndarray, j: int) -> _Prefixes:
        # Children of the listed rows at coordinate j, minus the pruned ones.
        t = values[level]
        mass = rows.mass[parent] + t
        volume = rows.volume[parent] + vol[j] * t
        quad = rows.quad[parent] + 2.0 * t * rows.y[parent, 0] + a[j, j] * t * t
        keep = volume <= vol_cap
        parent, level, t = parent[keep], level[keep], t[keep]
        return _Prefixes(
            np.column_stack([rows.levels[parent], level]),
            mass[keep],
            volume[keep],
            quad[keep],
            rows.gain[parent] + p[j] * t,
            rows.y[parent, 1:] + t[:, None] * a[j + 1 :, j],
        )

    def prefixes(rows: _Prefixes, j: int):
        # Depth-first over chunks keeps the yield order lexicographic.
        ub = bound(j, rows.mass, rows.volume, rows.quad, rows.y[:, 0], rows.gain)
        rows = rows._make(field[ub > best_revenue] for field in rows)
        if not rows.mass.size:
            return
        if j == iu:
            yield rows
            return
        count = 1 + _settle(
            _guess(cap - rows.mass, step, levels),
            levels,
            lambda i, k: rows.mass[i] + values[k] <= cap,
        )
        for part in _chunks(count):
            parent, level = expand(count[part])
            yield from prefixes(grow(rows, parent + part.start, level, j), j + 1)

    def pairs(rows: _Prefixes, room: np.ndarray, parent: np.ndarray, u_level: np.ndarray, floor):
        # Covered points of one chunk of (prefix, u) rows, and its first best
        # point when that earns more than floor.
        u = values[u_level]
        y = rows.y[parent]
        keep = bound(
            iv,
            rows.mass[parent] + u,
            rows.volume[parent] + vol[iu] * u,
            rows.quad[parent] + 2.0 * u * y[:, 0] + auu * u * u,
            y[:, 1] + auv * u,
            rows.gain[parent] + p[iu] * u,
        ) > floor
        parent, u_level, u = parent[keep], u_level[keep], u[keep]
        c = room[parent]
        v_mass = _settle(
            _guess(c - u, step, levels), levels, lambda i, k: u[i] + values[k] <= c[i]
        )
        covered = int(v_mass.sum()) + u.size
        w = rows.volume[parent] + vol[iu] * u
        v_top = _settle(
            _guess((vol_cap - w) / vol[iv], step, v_mass),
            v_mass,
            lambda i, k: w[i] + vol[iv] * values[k] <= vol_cap,
        )
        live = v_top >= 0
        if not live.any():
            return covered, -math.inf, None
        parent, u_level, u, v_top = parent[live], u_level[live], u[live], v_top[live]
        quad_u = rows.quad[parent] + 2.0 * rows.y[parent, 0] * u
        lin_v = 2.0 * rows.y[parent, 1]
        sq_u = auu * u * u
        cross_v = 2.0 * auv * u
        mass_u = rows.mass[parent] + u

        def stable(i, k):
            v = values[k]
            quad = quad_u[i] + lin_v[i] * v + sq_u[i] + cross_v[i] * v + avv * v * v
            return s * quad + b * (mass_u[i] + v) <= r

        v_best = v_top.copy()
        short = np.flatnonzero(~stable(slice(None), v_top))
        if short.size:
            alpha = s * avv
            beta = s * (lin_v[short] + cross_v[short]) + b
            gamma = s * (quad_u[short] + sq_u[short]) + b * mass_u[short] - r
            with np.errstate(divide="ignore", invalid="ignore"):
                root_d = np.sqrt(beta * beta - 4.0 * alpha * gamma)
                # The root where the quadratic turns positive, in the form
                # without cancellation for the sign of beta.
                crossing = np.where(
                    beta >= 0.0,
                    2.0 * gamma / (-beta - root_d),
                    (root_d - beta) / (2.0 * alpha),
                )
            under = v_top[short]
            guess = _guess(crossing, step, under)
            # A crossing at the failing upper level leaves the level below
            # it; one further up leaves no level at all.
            guess = np.where(guess == under, under - 1, np.where(guess > under, -1, guess))
            v_best[short] = _settle(guess, under, lambda i, k: stable(short[i], k))
        gain_u = rows.gain[parent] + p[iu] * u
        gains = np.where(v_best >= 0, gain_u + p[iv] * values[np.maximum(v_best, 0)], -math.inf)
        row = int(np.argmax(gains))
        if not gains[row] > floor:
            return covered, -math.inf, None
        # The first of the row's fitting levels that ties its best.
        k = np.arange(v_best[row] + 1)
        row_gains = np.where(
            stable(np.full(k.size, row), k), gain_u[row] + p[iv] * values[k], -math.inf
        )
        v_level = int(np.argmax(row_gains))
        point = values[np.r_[rows.levels[parent[row]], u_level[row], v_level]]
        return covered, float(row_gains[v_level]), point[-n:]

    best_x: np.ndarray | None = None
    examined = 0
    root = _Prefixes(
        np.zeros((1, 0), dtype=np.int64),
        np.zeros(1),
        np.zeros(1),
        np.zeros(1),
        np.zeros(1),
        np.zeros((1, m)),
    )
    for rows in prefixes(root, 0):
        room = cap - rows.mass
        count = 1 + _settle(
            _guess(room, step, u_top), u_top, lambda i, k: values[k] <= room[i]
        )
        for part in _chunks(count):
            parent, u_level = expand(count[part])
            covered, value, point = pairs(rows, room, parent + part.start, u_level, best_revenue)
            examined += covered
            if value > best_revenue:
                best_revenue, best_x = value, point
    if best_x is None:
        return None, -math.inf, examined
    return best_x, best_revenue, examined


def _certifies(value: float, best_revenue: float) -> bool:
    """The certification rule: ``value`` is no worse than the lattice best.

    The comparison allows a relative slack of ``CERTIFY_TOLERANCE`` on
    ``best_revenue``.  A lattice without a feasible point (best revenue
    -inf) certifies trivially.
    """
    if best_revenue == -math.inf:
        return True
    return bool(value >= best_revenue - CERTIFY_TOLERANCE * max(1.0, abs(best_revenue)))


def _lagrangian_bound(problem: Problem, x: np.ndarray, multipliers) -> float:
    """Weak-duality bound on the revenue of every feasible point.

    For lam = the first three ``multipliers`` clipped at 0, a feasible y has
    p.y <= p.y + lam_C (C - 1.y) + lam_V (V - v.y) + lam_S (r - s y'Ay -
    b 1.y), where y'Ay = sum_k D_k S_k^2 with S_k = y_k + ... + y_{n-1} and
    D the classification's congruent diagonal.  With D+ = max(D, 0) and D-
    = max(-D, 0), the concave terms lie under tangents at the plan x,
    -D+_k S_k^2 <= -D+_k (2 X_k S_k - X_k^2) with X_k = S_k(x), and the
    convex ones under secants over 0 <= S_k <= C, D-_k S_k^2 <= D-_k C S_k.
    So p.y <= K + c.y, and y >= 0, 1.y <= C give UB = K + C max(0, max c):

        c_i = p_i - lam_C - lam_V v_i - lam_S b - lam_S s sum_{k<=i} (2 D+_k X_k - D-_k C)
        K   = lam_C C + lam_V V + lam_S r + lam_S s sum_k D+_k X_k^2.

    Rounding: each term takes O(n) float operations; the search's float
    predicate passes a point over a limit by rounding of the same order,
    charged at lam times the overshoot; D_k = g_k - g_{k-1} is exact by
    Sterbenz for neighbours within a factor of 2, else one rounding off.
    UB is widened by 1e-9 times the sum of the absolute values of the
    terms: far above that rounding for n below 10^6, far below
    ``CERTIFY_TOLERANCE``.
    """
    lam_c, lam_v, lam_s = (max(float(m), 0.0) for m in multipliers[:3])
    cap, vol_cap = problem.deadweight_cap, problem.volume_cap
    s, b, r = problem.quad_scale, problem.linear_coeff, problem.rhs
    p, vol = problem.objective, problem.volume_coeffs
    d = problem.classification.evidence.diagonal
    up = np.maximum(d, 0.0)
    suffix = np.cumsum(x[::-1])[::-1]
    slope = np.cumsum(2.0 * up * suffix - np.maximum(-d, 0.0) * cap)
    c = p - lam_c - lam_v * vol - lam_s * (b + s * slope)
    k = lam_c * cap + lam_v * vol_cap + lam_s * (r + s * float(up @ suffix**2))
    size = (
        cap * (p.max() + 2.0 * lam_c + lam_v * vol.max()) + lam_v * vol_cap
        + lam_s * (abs(r) + abs(b) * cap + s * float(np.abs(d) @ (np.abs(suffix) + cap) ** 2))
    )
    return k + cap * max(0.0, float(c.max())) + 1e-9 * size


def certify(problem: Problem, solution, spec: LatticeSpec) -> bool:
    """True when the plan is feasible and no lattice point earns more than it.

    ``solution`` may be a :class:`Solution` or a raw loading vector.  A plan
    whose worst relative constraint violation exceeds ``CERTIFY_TOLERANCE``
    is never certified.  Otherwise the verdict is :func:`_certifies` on the
    plan's revenue and the lattice best.  The rule is monotone in the best
    revenue, so it is first applied to :func:`_lagrangian_bound` with the
    plan's multipliers (a Solution's own, else recovered as
    :func:`kkt_verify` does), which settles a convex plan in O(n).
    Otherwise ``grid_search(problem, spec, above=value)`` asks only whether
    a point beats the plan.  ``shipload oracle`` reports this decision
    through :func:`_certify`.
    """
    return _certify(problem, solution, spec)[0]


def _certify(problem: Problem, solution, spec: LatticeSpec) -> tuple[bool, float | None, int]:
    """:func:`certify`'s verdict, the lattice best if the search found one that beats
    the plan (else None), and the points the search covered (0 if it did not run)."""
    x = problem.check_vector(solution.x if isinstance(solution, Solution) else solution)
    point = _Loading(problem, x)
    if not point.violation <= CERTIFY_TOLERANCE:
        return False, None, 0
    value = solution.revenue if isinstance(solution, Solution) else revenue(problem, x)
    try:
        multipliers = _plan_multipliers(problem, solution, point)
    except (RuntimeError, ValueError):
        pass  # the search needs no multipliers
    else:
        if _certifies(value, _lagrangian_bound(problem, x, multipliers)):
            return True, None, 0
    best_x, best_revenue, points = grid_search(problem, spec, above=value)
    return _certifies(value, best_revenue), None if best_x is None else best_revenue, points
