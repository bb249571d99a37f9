"""Closed-form enumeration of the KKT points at which stability binds.

With the stability constraint s x'Ax + b sum(x) <= r binding, Fritz-John
stationarity on the support S of x reads

    A_SS x_S + c 1 + w v_S = t p_S,    t >= 0,

where t = 0 keeps the abnormal points.  The deadweight row is c = b/(2s)
when that cap is slack and 1.x_S = C when it binds; the volume row is
w = 0 or v_S.x_S = V.  For each support and each of these four patterns
the solutions in (x_S, c, w, t) form a line, and the binding stability
constraint is a quadratic along it with at most two roots.  Each root
gives a candidate, and so does the point at t = 0 of a line along which
t moves; the empty vessel is one too.  A single cargo binding both caps
is not solved: the deadweight row alone pins that load, so the
deadweight pattern yields the same point.

No elimination is needed.  A_SS is min-index like A, A_SS = L diag(D) L'
with L the lower triangular matrix of ones and D the steps of the
generator along S, so in the suffix sums y = L'x_S stationarity reads

    D y + c e_1 + w dv = t dp,

with dv and dp the steps of v and p along S.  Row i gives y_i, except
that when the deadweight cap binds row 1 only gives c, and y_1 = sum(x)
= C.  The volume row dv.y = V then gives w.  In y the stability constraint
is s y'Dy + b y_1 <= r, and x_i = y_i - y_(i+1).  On most systems t moves
along the line; on two kinds a row fixes t and another unknown moves:

* D_1 = 0, the bottom cargo at water density, with both caps slack:
  row 1 reads b/(2s) = t p_1, so t = b/(2 s p_1), the other rows give
  y_2, ..., and y_1 moves; stability is linear in it.  With the volume
  cap binding instead, row 1 gives w and the volume row gives y_1.
* A volume row whose coefficient of w vanishes fixes t, and w moves.

Three kinds of system are skipped, and none holds a candidate that no
other system holds.  D_i = 0 for i > 1 means two cargoes of equal density
adjacent in the support: moving mass between them changes no constraint
and changes revenue linearly, so the better end of that segment, a
smaller support, is as good.  A zero-rate bottom cargo at water density
with both caps slack leaves no t, or leaves t and y_1 both free with
revenue blind to y_1, whose ends have a smaller support or one more
binding cap.  A volume row with neither w nor t solves nothing or
leaves a plane, an exact coincidence of the data.

Two cargoes that are neighbours in the stack and have equal density have
identical rows in A and equal v, so moving mass from the one with the
lower rate to the other changes no constraint and loses no revenue: some
optimum leaves it empty.  Each run of such neighbours therefore keeps
only its best rate (the lowest in the stack on a tie), and everything
below works on the merged stack, whose congruent diagonal D is the
problem's without the zero steps inside the runs.

No constraint qualification is assumed.  Fritz-John multipliers exist
at every local maximum, and the stability multiplier can be taken
positive: were it 0 with the objective's multiplier positive, the point
would be an optimum of the relaxation, which the caller has ruled out by
finding no stable point on the relaxation's optimal face; were both 0,
the rows 1 and v, both positive, would force the point to be the empty
vessel.  Dividing by that multiplier gives the rows above.

The largest support is K = 3 + #{k >= 2 : D_k >= 0}, from an edge
argument (Hillestad & Jacobsen, "Linear programs with an additional
reverse convex constraint", Appl. Math. Optim. 6, 1980: such a program
attains its optimum on an edge of the polytope).  Fix y_1, the total
mass, and every y_k with k >= 2 and D_k >= 0 at their values at a global
optimum; call the number of fixed coordinates m.  Each stability term
left free has D_k < 0 and is concave, so on that slice the feasible set
is the polytope {x >= 0, sum(x) = y_1, the fixed suffix sums, v.x <= V}
less an open convex set, and the linear revenue attains its maximum over
the slice on an edge of that polytope.  A point of an edge meets n - 1
independent constraints with equality: the m equalities, the volume cap
if it binds, and x_i = 0 for the rest, so it loads at most m + 1
cargoes, or m + 2 = K with the volume cap binding.  Whatever the sign
of D_1, some global optimum therefore loads at most K cargoes, and
exactly K only with the volume cap binding, so supports of exactly K
cargoes are solved only in the two patterns that bind it.  When K
exceeds the number of cargoes, every support is solved in every
pattern.

So the candidates hold a global optimum, except where one of these
steps loses it:

* truncation: when the supports of up to K cargoes need more than
  ``SYSTEM_BUDGET`` systems, only the supports of up to the largest size
  that fits are solved, in all four patterns;
* the tangent-root clamp: a discriminant below -1e-12 relative counts as
  no root, so a tangent root that rounding pushes further below is lost;
* the candidate tolerance: a point that rounding leaves more than
  ``TOLERANCE`` relative outside a constraint, or below zero, is dropped;
* flat systems: where stability does not depend on the moving unknown
  (a2 and a1 at most ``ZERO_TOLERANCE`` max(1, |r|) in the units below)
  the roots that rounding gives are far along a direction that solves
  nothing, and are dropped; in exact arithmetic such a line is stable
  throughout or nowhere, and a stable one ends where a load reaches 0 or
  a cap binds, at a smaller support or one more binding cap.

One step drops supports and loses nothing: the incumbent prune.  After
the first batch, a support is solved only when its bound reaches the
incumbent, the best scaled revenue of the batches before.  Its bound is
the relaxation's LP over the support alone, attained at a basis of one or
two of its cargoes, with both caps widened by ``MARGIN``.  A candidate
that passes the checks, with loads down to -``TOLERANCE`` and each cap
met to ``TOLERANCE``, is feasible for that LP, since ``MARGIN`` is far
above the (K + 1) ``TOLERANCE`` it can need, so a support whose bound is
strictly below the incumbent holds no candidate that wins or ties.

The supports go in batches of ``CHUNK``, in the scaled units x / C,
c / (C a), w max(v) / (C a) and t max(p) / (C a) with a = max|A|, so that
the tests against zero read O(1) numbers.  Supports of every size share
one batch, in order of size and then lexicographically: a support of
k < K cargoes fills its other slots with a dummy cargo whose steps are
zero, so that its y stays 0.  A batch is solved as (slot, system)
arrays: a sum over a support is K - 1 vector adds in slot order, and the
systems where D_1 = 0 or a row fixes t take their own steps only in a
batch that holds one, so each system's rows are the same in any batch.
Only the supports that pass the prune are packed, so every batch but
the last is full.  Candidates are compared in their scaled revenue
alone, and on a tie the earliest support wins, then the lower pattern,
then the lower root, so neither ``CHUNK`` nor the prune can change the
winner.

A root t > 0 carries the multipliers of its point: lam_S = 1 / (2 s t),
lam_C = (c - b / (2 s)) / t and lam_V = w / t, which
:func:`binding_optimum` returns for its winner.  :func:`support_points`
solves the lines along which t moves for one support in scalar
arithmetic; the solver's support exchange calls it.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from .model import Problem
from .quadratic_analysis import SIGN_TOLERANCE
from .solver import relaxation_vertices

# Most linear systems that one enumeration may solve, counted before the
# incumbent prune: four constraint patterns per support, two for a support
# of exactly K cargoes.  Reverse stacks of up to 43 cargoes fit; 41 cargoes
# count 24 768 systems, of which the prune leaves a third to a half on
# the benchmark's market stacks, at about 0.5 us each.  A larger
# enumeration is truncated to smaller supports.
SYSTEM_BUDGET = 30_000
# Supports per batch.  On the market n = 41 stack 512 beat 256, 1024 and 2048.
CHUNK = 512
# Scaled steps of the generator, and coefficients of w in the volume row,
# at most this large count as zero.
ZERO_TOLERANCE = 1e-10
# Relative slack of the candidates' constraints and consistency tests.
TOLERANCE = 1e-9
# Relative widening of the caps of a support's LP bound: a candidate that
# passes at TOLERANCE exceeds them by at most (K + 1) TOLERANCE.
MARGIN = 1e-6

# (deadweight binds, volume binds) of the four patterns.
_DEADWEIGHT_ON = np.array([False, True, False, True])
_VOLUME_ON = np.array([False, False, True, True])


class Units(NamedTuple):
    """A problem in the enumeration's scaled units.

    Loads are x / C, so that y_1 = 1 is the deadweight cap; ``slack_dw``
    is c with that cap slack, b / (2 s C a), and ``room`` the volume cap
    V / (C max(v)).  In y the stability constraint reads
    qa y'Dy + qb y_1 <= r.  ``v``, ``p`` and ``generator`` are divided by
    their largest entries, and each has one more entry, 0, for the dummy
    cargo n that pads a batch.
    """

    n: int
    cap: float
    a: float
    rate: float
    volume: float
    quad_scale: float
    slack_dw: float
    room: float
    qa: float
    qb: float
    r: float
    v: np.ndarray
    p: np.ndarray
    generator: np.ndarray


def scaled_units(problem: Problem) -> Units:
    """The enumeration's scaled units of ``problem``; a = max|A| scales A and its diagonal."""
    generator = problem.classification.evidence.generator
    a = float(np.abs(generator).max()) or 1.0
    cap = problem.deadweight_cap
    rate = float(problem.objective.max()) or 1.0
    volume = float(problem.volume_coeffs.max())
    slack_dw = problem.linear_coeff / (2.0 * problem.quad_scale * cap * a)
    room = problem.volume_cap / (cap * volume)
    padded = np.zeros((3, problem.n + 1))
    padded[0, :-1] = problem.volume_coeffs / volume
    padded[1, :-1] = problem.objective / rate
    padded[2, :-1] = generator / a
    return Units(
        n=problem.n,
        cap=cap,
        a=a,
        rate=rate,
        volume=volume,
        quad_scale=problem.quad_scale,
        slack_dw=slack_dw,
        room=room,
        qa=problem.quad_scale * cap * cap * a,
        qb=problem.linear_coeff * cap,
        r=problem.rhs,
        v=padded[0],
        p=padded[1],
        generator=padded[2],
    )


def _multipliers(units: Units, t: float, c: float, w: float) -> tuple[float, float, float]:
    """(lam_C, lam_V, lam_S) of a scaled root t > 0 with its c and w.

    Unscaled, lam_S = 1 / (2 s t), lam_C = (c - b / (2 s)) / t and
    lam_V = w / t.
    """
    return (
        (c - units.slack_dw) * units.rate / t,
        w * units.rate / (units.volume * t),
        units.rate / (2.0 * units.quad_scale * t * units.cap * units.a),
    )


def binding_optimum(
    problem: Problem,
) -> tuple[float, np.ndarray, tuple[float, float, float] | None, str | None]:
    """The best feasible candidate with stability binding, or the empty vessel.

    Returns (revenue, loads, multipliers, reason), where ``reason`` is
    None when the enumeration was complete and says how it was truncated
    otherwise.  A candidate counts when x >= 0 meets every constraint to
    ``TOLERANCE`` relative.  The empty vessel is feasible because the
    caller has checked r >= 0.  The multipliers are (lam_C, lam_V, lam_S)
    of the winning root t > 0, (0, 0, 0) for the empty vessel, and None
    when the winner has t <= 0, where no finite stability multiplier
    exists.
    """
    n = problem.n
    units = scaled_units(problem)
    steps = problem.classification.evidence.diagonal / units.a
    kept, diagonal = _merge_twins(steps, problem.objective)
    largest, full_needs_volume = _support_rule(diagonal)
    systems = _systems(len(kept), largest, full_needs_volume)
    reason = None
    if systems > SYSTEM_BUDGET:
        fit = 1
        while fit + 1 < largest and _systems(len(kept), fit + 1, False) <= SYSTEM_BUDGET:
            fit += 1
        reason = (
            f"over budget, {systems} systems for supports of up to {largest} of {len(kept)} "
            f"cargoes; supports of up to {fit} solved"
        )
        largest, full_needs_volume = fit, False

    best_value, best_x, best_multipliers = 0.0, np.zeros(n + 1), (0.0, 0.0, 0.0)
    # The winner's scaled revenue: candidates are compared in it alone, so
    # that how the supports fall into batches cannot change the winner.
    incumbent = 0.0
    table = None

    def promising(chunk: np.ndarray) -> np.ndarray:
        """Whether each support's LP bound reaches the incumbent."""
        nonlocal table
        if table is None:
            table = _bound_table(units)
        return _support_bounds(table, chunk) >= incumbent

    for chunk, real in _batches(kept, largest, n, promising):
        rows = _batch_rows(units, chunk, real, largest, full_needs_volume)
        # Systems run support by support, then pattern by pattern: on a tie
        # the earliest support wins, then the lower pattern, then the lower root.
        k, root = divmod(int(rows.value.T.argmax()), rows.value.shape[0])
        if rows.value[root, k] > incumbent:
            incumbent = float(rows.value[root, k])
            best_x = np.zeros(n + 1)
            best_x[rows.support[k]] = units.cap * np.maximum(rows.z[root, k], 0.0)
            best_value = float(problem.objective @ best_x[:n])
            t = float(rows.t[root, k])
            best_multipliers = None
            if t > 0.0:
                w = float(rows.w0[k] + rows.s[root, k] * rows.w1[k])
                c = units.slack_dw
                if _DEADWEIGHT_ON[rows.pattern[k]]:
                    # Row 1 with y_1 = 1 gives c.
                    c = float(t * rows.dp[k, 0] - rows.d[k, 0] - w * rows.dv[k, 0])
                best_multipliers = _multipliers(units, t, c, w)
    return best_value, best_x[:n], best_multipliers, reason


def _systems(cargoes: int, largest: int, full_needs_volume: bool) -> int:
    """Systems of the supports of up to ``largest`` of ``cargoes``, the empty one included."""
    systems = 4 * sum(math.comb(cargoes, k) for k in range(largest + 1))
    return systems - 2 * math.comb(cargoes, largest) if full_needs_volume else systems


class _Rows(NamedTuple):
    """The systems of one batch and their candidates.

    Per system: its support, its pattern, whether its two roots solve it
    (``rooted``), whether a row fixes t (``fixed``), its steps and
    w = w0 + s w1 along its line.  Per candidate, indexed (the line's base
    point and its two roots, system): s, t, z = x / C and the scaled
    revenue, -inf where the candidate fails a check.  The slot is last.
    """

    support: np.ndarray
    pattern: np.ndarray
    rooted: np.ndarray
    fixed: np.ndarray
    d: np.ndarray
    dv: np.ndarray
    dp: np.ndarray
    w0: np.ndarray
    w1: np.ndarray
    s: np.ndarray
    t: np.ndarray
    z: np.ndarray
    value: np.ndarray


def _batch_rows(
    units: Units, chunk: np.ndarray, real: np.ndarray, largest: int, full_needs_volume: bool
) -> _Rows:
    """Every allowed system of one batch, solved.

    Every support allows pattern 2, the volume cap alone binding, so no
    batch is empty.
    """
    slack_dw, room, qa, qb, r = units.slack_dw, units.room, units.qa, units.qb, units.r
    slots, mask = chunk.T, real.T
    # Per (slot, support): the steps of v, p and the generator along it,
    # then f = dv / D and u = dp / D where row i of D y + c e_1 + w dv =
    # t dp gives y_i, D_i != 0 with the deadweight cap slack, and 0 elsewhere.
    per_slot = np.empty((5,) + slots.shape)
    per_slot[:3] = np.take(np.array((units.v, units.p, units.generator)), slots, axis=1)
    per_slot[:3, 1:] -= per_slot[:3, :-1]
    per_slot[:3] *= mask
    flat = np.abs(per_slot[2]) <= ZERO_TOLERANCE
    gives = (mask > 0.0) & ~flat
    safe = np.where(gives, per_slot[2], 1.0)
    per_slot[3:] = np.where(gives, per_slot[:2] / safe, 0.0)
    allowed = np.ones((4, slots.shape[1]), dtype=bool)
    allowed[3] &= (mask[1] > 0.0) if largest > 1 else False
    if full_needs_volume:
        # Patterns 0 and 1 leave the volume cap slack.
        allowed[:2] &= mask[-1] == 0.0
    item, pattern = np.nonzero(allowed.T)
    dw, vol = _DEADWEIGHT_ON[pattern], _VOLUME_ON[pattern]
    per_slot = np.take(per_slot, item, axis=2)
    # With the deadweight cap binding, y_1 = 1 and row 1 only gives c.
    per_slot[3:, 0, dw] = 0.0
    dv, dp, d, f, u = per_slot
    # D_i = 0 for i > 1, equal densities adjacent in the support: skipped.
    keep = ~(flat[1:] & (mask[1:] > 0.0)).any(axis=0)[item]
    # D_1 = 0 (water density at the bottom) with the deadweight cap slack:
    # row 1 reads slack_dw + w v_1 = t p_1; rare, so solved only if present.
    bottom = flat[0, item] & ~dw
    rare_bottom = np.count_nonzero(bottom)
    # y = base + t u - w f, with w = w0 + t w1; base is 0 beyond slot 1.
    base = np.zeros_like(d)
    base[0] = np.where(dw, 1.0, np.where(bottom, 0.0, (-slack_dw / safe[0])[item]))
    with np.errstate(divide="ignore", invalid="ignore"):
        # The volume row: dv . y = room.
        den = (dv * f).sum(axis=0)
        num0 = dv[0] * base[0] - room
        num1 = (dv * u).sum(axis=0)
        normal = vol & ~bottom
        # A volume row without w fixes t, num0 + t num1 = 0, and w moves.
        free_w = normal & (np.abs(den) <= ZERO_TOLERANCE)
        gives_w = normal & ~free_w
        w0 = np.where(gives_w, num0 / den, 0.0)
        w1 = np.where(gives_w, num1 / den, 0.0)
        if rare_bottom:
            # With D_1 = 0 and the volume cap binding row 1 gives w, and
            # the volume row gives y_1.
            pinned = bottom & vol
            w0 = np.where(pinned, -slack_dw / dv[0], w0)
            w1 = np.where(pinned, dp[0] / dv[0], w1)
        y0 = base - w0 * f
        y1 = u - w1 * f
        if rare_bottom:
            v_1 = np.where(pinned, dv[0], 1.0)
            y0[0] = np.where(pinned, (room - (dv * y0).sum(axis=0)) / v_1, y0[0])
            y1[0] = np.where(pinned, -(dv * y1).sum(axis=0) / v_1, y1[0])
        # Every system is a line (y, w, t) = (y0, w0, 0) + s (y1, w1, 1),
        # along which t = s moves, except where a row fixes t: there the
        # line passes through the fixed t and moves y_1 or w alone.  With
        # both caps slack over water density row 1 fixes t, and y_1 moves.
        free_y = bottom & ~vol
        fixed = free_w | free_y
        t_fixed = None
        if np.count_nonzero(fixed):
            keep &= ~free_w | (np.abs(num1) > TOLERANCE)
            keep &= ~free_y | (dp[0] > TOLERANCE)
            t_fixed = np.where(free_y, slack_dw / dp[0], np.where(free_w, -num0 / num1, 0.0))
            y0 = y0 + t_fixed * y1
            y1 = np.where(free_w, -f, y1)
            y1[:, free_y] = 0.0
            y1[0, free_y] = 1.0
            w1 = np.where(free_w, 1.0, w1)
        # The stability constraint along the line, minus r: a2 s^2 + a1 s + a0.
        dy0 = d * y0
        a2 = qa * (d * y1 * y1).sum(axis=0)
        a1 = 2.0 * qa * (dy0 * y1).sum(axis=0) + qb * y1[0]
        a0 = qa * (dy0 * y0).sum(axis=0) + qb * y0[0] - r
        disc = a1 * a1 - 4.0 * a2 * a0
        # A tangent root may come out a rounding error below zero.
        disc[(disc < 0.0) & (disc >= -1e-12 * (a1 * a1 + np.abs(4.0 * a2 * a0)))] = 0.0
        half = -0.5 * (a1 + np.where(a1 < 0.0, -1.0, 1.0) * np.sqrt(disc))
        s = np.zeros((3, half.size))
        s[1] = half / a2
        s[2] = a0 / half
        y = y0 + s[:, None] * y1  # (the base point and the two roots, slot, system)
        t = s if t_fixed is None else np.where(fixed, t_fixed, s)
        z = y.copy()
        z[:, :-1] -= y[:, 1:]
        excess = (a2 * s + a1) * s + a0
        ok = (
            (z.min(axis=1) >= -TOLERANCE)
            & (y[:, 0] <= 1.0 + TOLERANCE)
            & ((y * dv).sum(axis=1) <= room * (1.0 + TOLERANCE))
            & (excess <= TOLERANCE * max(1.0, abs(r)))
        )
        # Where stability does not depend on s its roots are rounding
        # errors: far along a direction that solves nothing.
        rooted = keep & (np.maximum(np.abs(a2), np.abs(a1)) > ZERO_TOLERANCE * max(1.0, abs(r)))
        # The base point is the abnormal one, t = 0, only where t moves.
        ok[0] &= keep & ~fixed
        ok[1:] &= rooted
        value = np.where(ok, (y * dp).sum(axis=1), -np.inf)
    return _Rows(
        chunk[item], pattern, rooted, fixed, d.T, dv.T, dp.T, w0, w1, s, t, z.swapaxes(1, 2), value
    )


def support_points(
    units: Units, support: list[int]
) -> list[tuple[np.ndarray, float, float, float]]:
    """The points of one support where stationarity meets the stability boundary with t > 0.

    ``support`` lists cargo indices in stacking order.  Solves the rows
    that :func:`binding_optimum` solves, D y + c e_1 + w dv = t dp, for
    each of the four patterns of the caps, one support at a time and in
    scalar arithmetic: neighbours of equal density in the support are
    merged first (:func:`_merge_twins`), and a pattern is skipped where
    a row fixes t (D_1 = 0 with both caps slack, a volume row without w),
    which only the batch rows solve, and where the stability quadratic
    does not depend on t.  Returns (loads, lam_C, lam_V, lam_S) for every
    root t > 0, whether or not the loads are feasible.
    """
    g = units.generator[support]
    steps = g.copy()
    steps[1:] -= g[:-1]
    positions, merged = _merge_twins(steps, units.p[support])
    cargoes = [support[i] for i in positions]
    d = merged.tolist()
    v = units.v[cargoes].tolist()
    p = units.p[cargoes].tolist()
    k = len(cargoes)
    dv = [v[0]] + [v[i] - v[i - 1] for i in range(1, k)]
    dp = [p[0]] + [p[i] - p[i - 1] for i in range(1, k)]
    slack_dw, room, qa, qb, r = units.slack_dw, units.room, units.qa, units.qb, units.r
    flat_tol = ZERO_TOLERANCE * max(1.0, abs(r))

    points = []
    for dw, vol in zip(_DEADWEIGHT_ON.tolist(), _VOLUME_ON.tolist()):
        bottom = not dw and abs(d[0]) <= ZERO_TOLERANCE
        if bottom and not vol:
            continue
        # y = base + t u - w f on the rows that give y_i.
        base, u, f = [0.0] * k, [0.0] * k, [0.0] * k
        for i in range(1, k):
            u[i], f[i] = dp[i] / d[i], dv[i] / d[i]
        if dw:
            base[0] = 1.0
        elif not bottom:
            base[0], u[0], f[0] = -slack_dw / d[0], dp[0] / d[0], dv[0] / d[0]
        # w = w0 + t w1.
        if bottom:
            # Row 1 gives w, and the volume row gives y_1 below.
            w0, w1 = -slack_dw / dv[0], dp[0] / dv[0]
        elif vol:
            den = sum(a * b for a, b in zip(dv, f))
            if abs(den) <= ZERO_TOLERANCE:
                continue
            w0 = (sum(a * b for a, b in zip(dv, base)) - room) / den
            w1 = sum(a * b for a, b in zip(dv, u)) / den
        else:
            w0 = w1 = 0.0
        y0 = [b - w0 * c for b, c in zip(base, f)]
        y1 = [b - w1 * c for b, c in zip(u, f)]
        if bottom:
            y0[0] = (room - sum(a * b for a, b in zip(dv[1:], y0[1:]))) / dv[0]
            y1[0] = -sum(a * b for a, b in zip(dv[1:], y1[1:])) / dv[0]
        a2 = qa * sum(di * b * b for di, b in zip(d, y1))
        a1 = 2.0 * qa * sum(di * b * c for di, b, c in zip(d, y0, y1)) + qb * y1[0]
        a0 = qa * sum(di * b * b for di, b in zip(d, y0)) + qb * y0[0] - r
        if max(abs(a2), abs(a1)) <= flat_tol:
            # Stability does not depend on t: no root, or all of them.
            continue
        disc = a1 * a1 - 4.0 * a2 * a0
        if disc < 0.0:
            if disc < -1e-12 * (a1 * a1 + abs(4.0 * a2 * a0)):
                continue
            disc = 0.0
        half = -0.5 * (a1 + math.copysign(math.sqrt(disc), a1))
        roots = {half / a2} if a2 != 0.0 else set()
        if half != 0.0:
            roots.add(a0 / half)
        for t in sorted(roots):
            if not (t > 0.0 and math.isfinite(t)):
                continue
            y = [b + t * c for b, c in zip(y0, y1)] + [0.0]
            w = w0 + t * w1
            c = t * dp[0] - d[0] - w * dv[0] if dw else slack_dw
            x = np.zeros(units.n)
            x[cargoes] = [units.cap * (y[i] - y[i + 1]) for i in range(k)]
            points.append((x, *_multipliers(units, t, c, w)))
    return points


def _merge_twins(steps: np.ndarray, rates: np.ndarray) -> tuple[list[int], np.ndarray]:
    """The cargoes left when each run of equal-density neighbours keeps its best rate.

    ``steps`` is the scaled congruent diagonal; a step of at most
    ``ZERO_TOLERANCE`` joins a cargo to the run below it.  Of the cargoes
    that tie for the best rate, the lowest stays.  Returns them with the
    congruent diagonal of the merged stack: ``steps`` without the joins.
    """
    kept, starts = [0], [0]
    for i in range(1, rates.size):
        if abs(steps[i]) > ZERO_TOLERANCE:
            kept.append(i)
            starts.append(i)
        elif rates[i] > rates[kept[-1]]:
            kept[-1] = i
    return kept, steps[starts]


def _support_rule(diagonal: np.ndarray) -> tuple[int, bool]:
    """(K, whether a support of exactly K cargoes needs the volume cap binding).

    ``diagonal`` is the scaled congruent diagonal of the stack that is
    enumerated, and K = 3 + #{k >= 2 : D_k >= 0}.  When that exceeds the
    number of cargoes, K is that number and every pattern stays.
    """
    largest = 3 + int(np.count_nonzero(diagonal[1:] >= -SIGN_TOLERANCE))
    if largest > diagonal.size:
        return diagonal.size, False
    return largest, True


def _bound_table(units: Units) -> np.ndarray:
    """The LP bound of every pair of cargoes i <= j, the dummy cargo n included.

    Entry (i, j) is the best revenue, in the scaled units of the batch
    rows, of a basis of the relaxation that loads only cargoes i and j:
    either alone at a cap, or both at both caps
    (:func:`~shipload.solver.relaxation_vertices`).  The deadweight cap 1
    is widened to 1 + ``MARGIN`` and the volume cap to
    room (1 + ``MARGIN``) + ``MARGIN``, since a negative load of a
    candidate frees up to ``TOLERANCE`` of either cap.  Below the
    diagonal, entry (j, i) holds only the singles of i and j.
    """
    m = units.n + 1
    widened = 1.0 + MARGIN
    with np.errstate(divide="ignore"):
        # The dummy cargo has v = 0 and p = 0: no load at the volume cap.
        densities = 1.0 / units.v
    revenue = relaxation_vertices(
        units.p, units.v, densities, widened, units.room * widened + MARGIN
    )[-1]
    single = np.maximum(np.maximum(revenue[1 : m + 1], revenue[m + 1 : 2 * m + 1]), 0.0)
    table = np.maximum(single[:, None], single)
    i, j = np.triu_indices(m, 1)
    table[i, j] = np.maximum(table[i, j], revenue[2 * m + 1 :])
    return table


def _support_bounds(table: np.ndarray, chunk: np.ndarray) -> np.ndarray:
    """The LP bound of each support of ``chunk``: the best basis on two of its slots.

    Its slots hold cargo indices in increasing order, so every pair reads
    the filled half of ``table``.
    """
    pairs = list(itertools.combinations(range(chunk.shape[1]), 2)) or [(0, 0)]
    return np.maximum.reduce([table[chunk[:, a], chunk[:, b]] for a, b in pairs])


def _batches(kept: list[int], largest: int, n: int, promising):
    """The supports of 1 to ``largest`` of the ``kept`` cargoes, ``CHUNK`` to a batch.

    Yields (cargo indices, 0/1 mask of the real slots), each of shape
    (supports, largest), in order of size and then lexicographically; the
    free slots hold the dummy cargo n.  Supports are read ``CHUNK`` at a
    time; once the first batch has gone out, only the supports for which
    ``promising`` is true are kept, and batches are packed from these
    alone, so that each is full but the last, which has no more rows than
    are left.  An enumeration of at most ``CHUNK`` supports never calls
    ``promising``.
    """
    pending, held, started = [], 0, False
    for size in range(1, largest + 1):
        supports = itertools.combinations(kept, size)
        while True:
            flat = np.fromiter(
                itertools.chain.from_iterable(itertools.islice(supports, CHUNK)), np.intp
            )
            count = flat.size // size
            if not count:
                break
            chunk = np.full((count, largest), n, dtype=np.intp)
            chunk[:, :size] = flat.reshape(count, size)
            # A 0/1 float mask: integer and boolean arithmetic would page in
            # NumPy loops that nothing else on the solve path uses.
            real = np.zeros((count, largest))
            real[:, :size] = 1.0
            if started:
                keep = promising(chunk)
                chunk, real = chunk[keep], real[keep]
            pending.append((chunk, real))
            held += chunk.shape[0]
            if held >= CHUNK:
                chunk, real = (np.concatenate(part) for part in zip(*pending))
                yield chunk[:CHUNK], real[:CHUNK]
                started = True
                pending, held = [(chunk[CHUNK:], real[CHUNK:])], held - CHUNK
    if held:
        yield tuple(np.concatenate(part) for part in zip(*pending))
