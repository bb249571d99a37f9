"""Brute-force lattice search for global-optimality evidence.

Local solves on an indefinite quadratic constraint can stop at stationary
points that are not global optima.  This module finds the best loading on
a regular lattice inside the feasible set.  Any continuous optimum beats
the lattice optimum by at most the objective's Lipschitz constant times the
lattice resolution, so a solver result that matches or exceeds the lattice
best is certified global to that resolution.  The lattice is a subset of
the feasible set, which also makes the search an independent feasibility
witness.

The search enumerates the first n - 1 coordinates as NumPy arrays of
lattice prefixes and solves the last coordinate in closed form for every
prefix, so its cost is O(L^(n-1)) evaluations for L levels per coordinate.
Each closed-form level is re-checked with the exact lattice predicate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import Problem, revenue
from .solver import Solution

__all__ = ["LatticeSpec", "lattice_levels", "grid_search", "certifies", "certify"]

# Most lattice rows held at once per coordinate; wider prefix sets are
# enumerated in consecutive chunks of their leading coordinates.
_ROW_BUDGET = 1 << 12


@dataclass(frozen=True)
class LatticeSpec:
    """Lattice resolution in tons plus a safety cap on enumeration size."""

    step: float
    max_points: int = 100_000_000

    def __post_init__(self) -> None:
        if not (self.step > 0):
            raise ValueError(f"step must be positive, got {self.step}")
        if int(self.max_points) < 1:
            raise ValueError("max_points must be at least 1")
        object.__setattr__(self, "max_points", int(self.max_points))


def lattice_levels(problem: Problem, spec: LatticeSpec) -> int:
    """Highest lattice level per coordinate, after the lattice size check.

    Raises ``ValueError`` when the lattice would exceed ``spec.max_points``.
    The size is the number of points of {0..levels}^n with coordinate sum
    <= levels, the weak compositions binomial(levels + n, n).
    """
    n = problem.n
    levels = int(math.floor(problem.deadweight_cap / spec.step + 1e-9))
    estimated = math.comb(levels + n, n)
    if estimated > spec.max_points:
        raise ValueError(
            f"lattice holds about {estimated} points, above the cap of "
            f"{spec.max_points}; raise max_points or coarsen the step"
        )
    return levels


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


def grid_search(problem: Problem, spec: LatticeSpec) -> tuple[np.ndarray | None, float, int]:
    """Best feasible point of the step-lattice, by exhaustive enumeration.

    Returns ``(best_x, best_revenue, points_evaluated)``.  The search is
    lexicographic over coordinates and keeps the first point found among
    revenue ties, so the result is deterministic.  ``points_evaluated``
    counts the mass-feasible lattice points covered; subtrees removed by
    monotone pruning are skipped without being counted.

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
    to the last fitting level, so no infeasible point is returned.  The
    cost is O(L^(n-1)) evaluations for L lattice levels per coordinate.

    Pruning never drops feasible points: the volume column sums are
    positive, so a prefix over the volume cap can only get worse, and the
    stability prefix bound is applied only when every quadratic matrix
    entry and the linear coefficient are nonnegative, which makes the
    constraint's left side monotone in every coordinate.

    If no lattice point is feasible (possible when the empty vessel fails
    the stability margin) the best point is ``None`` with revenue -inf.
    Raises ``ValueError`` when the lattice would exceed ``max_points``.
    """
    n = problem.n
    cap = problem.deadweight_cap
    levels = lattice_levels(problem, spec)
    step = spec.step
    values = step * np.arange(levels + 1)
    p = problem.objective
    vol = problem.volume_coeffs
    vol_cap = problem.volume_cap
    a = problem.quad_matrix
    s = problem.quad_scale
    b = problem.linear_coeff
    r = problem.rhs
    # Monotone stability pruning is only sound when loading more of any
    # cargo can never loosen the constraint.
    stab_prunable = bool(a.min() >= 0.0 and b >= 0.0)
    # The last two coordinates are searched as a pair (u, v).  A single
    # cargo is the v of a pair whose u is held at level zero.
    u_top = levels
    if n == 1:
        p, vol, a = np.r_[0.0, p], np.r_[0.0, vol], np.pad(a, ((1, 0), (1, 0)))
        u_top = 0
    m = p.size
    iu, iv = m - 2, m - 1
    auu, auv, avv = a[iu, iu], a[iu, iv], a[iv, iv]

    def grow(rows: _Prefixes, parent: np.ndarray, level: np.ndarray, j: int) -> _Prefixes:
        # Children of the listed rows at coordinate j, minus the pruned ones.
        t = values[level]
        mass = rows.mass[parent] + t
        volume = rows.volume[parent] + vol[j] * t
        quad = rows.quad[parent] + 2.0 * t * rows.y[parent, 0] + a[j, j] * t * t
        keep = volume <= vol_cap
        if stab_prunable:
            keep &= s * quad + b * mass <= r
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
        if j == iu:
            yield rows
            return
        count = 1 + _settle(
            _guess(cap - rows.mass, step, levels),
            levels,
            lambda i, k: rows.mass[i] + values[k] <= cap,
        )
        for part in _chunks(count):
            parent, level = _expand(count[part])
            yield from prefixes(grow(rows, parent + part.start, level, j), j + 1)

    def pairs(rows: _Prefixes, room: np.ndarray, parent: np.ndarray, u_level: np.ndarray, floor):
        # Covered points of one chunk of (prefix, u) rows, and its first best
        # point when that earns more than floor.
        u = values[u_level]
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

    best_revenue = -math.inf
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
            parent, u_level = _expand(count[part])
            covered, value, point = pairs(rows, room, parent + part.start, u_level, best_revenue)
            examined += covered
            if value > best_revenue:
                best_revenue, best_x = value, point
    return best_x, best_revenue, examined


def certifies(value: float, best_revenue: float, tolerance: float = 1e-6) -> bool:
    """The certification rule: ``value`` is no worse than the lattice best.

    The comparison allows a relative slack of ``tolerance`` on
    ``best_revenue``.  A lattice without a feasible point (best revenue
    -inf) certifies trivially.
    """
    if best_revenue == -math.inf:
        return True
    return bool(value >= best_revenue - tolerance * max(1.0, abs(best_revenue)))


def certify(
    problem: Problem,
    solution,
    spec: LatticeSpec,
    tolerance: float = 1e-6,
) -> bool:
    """True when no lattice point earns more than the solution.

    ``solution`` may be a :class:`Solution` or a raw loading vector.  The
    comparison allows a relative slack of ``tolerance`` on the lattice
    best.  Used to upgrade a LocalOnly verdict to optimal-within-resolution
    in reports; a vacuously empty lattice certifies trivially.
    """
    if isinstance(solution, Solution):
        value = solution.revenue
    else:
        value = revenue(problem, solution)
    _, best_revenue, _ = grid_search(problem, spec)
    return certifies(value, best_revenue, tolerance)
