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

Only chains need solving.  On a support s_1, ..., s_k, in the scaled
units below, v and g are both affine in 1/d, so f_i = dv_i / D_i is one
constant kappa on every slot i >= 2, and rows i >= 2 give y_i = t u_i -
kappa w in every pattern, with u_i = dp_i / D_i the slope (p_b - p_a) /
(g_b - g_a) from a = s_(i-1) to b = s_i.  So:

* f is constant on slots i >= 2, and w drops out of the middle loads:
  z_i = y_i - y_(i+1) = t (u_i - u_(i+1)), 1 < i < k.  A candidate with
  t > 0 and z >= 0 therefore has u_2 >= ... >= u_k: read bottom up, the
  slopes between consecutive cargoes never rise.  Call such a support a
  chain; a support of one or two cargoes always is one, and a support is
  a chain only if its prefixes are.
* t = 0 points are the candidates of {s_1, s_k}: every middle load is
  0, and the volume row and y'Dy telescope, since D_2 + ... + D_k =
  g_(s_k) - g_(s_1) is the one step of {s_1, s_k} above its bottom.
* Equal slopes give a zero middle load, and the support without that
  cargo, still a chain, holds the same point; so a tie is never lost.

A global optimum of at most K cargoes with no two of equal density
adjacent in its support (the skips above keep one) loads a positive
amount of each cargo of its support and is a candidate of it: with t >
0 that support is a chain, and with t = 0 it holds at most two cargoes.
A candidate of a support that is not a chain passes the checks only
through the candidate tolerance: in exact arithmetic one of its middle
loads, t (u_i - u_(i+1)), is negative.  It is no point of the problem,
and the guarantee below does not rest on it.  Where that load is only a
rounding error the candidate is found on a chain to rounding: either t
is a rounding error, and the point is the t = 0 point of {s_1, s_k}, or
the two slopes are equal in exact arithmetic, and the point is that of
the chain without s_i.

So the candidates of the chains hold a global optimum, except where one
of these steps loses it:

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
incumbent, the best scaled revenue of the batches before.  Its bound,
the stable-mass cut T_S max_{i in S} p_i, is at least every candidate of
the support that passes the checks, with loads down to -``TOLERANCE``
and each cap and the stability constraint met to ``TOLERANCE``.  Every
entry of the scaled block G of A along S is one of its diagonal
entries, so 0 <= G_ij - alpha_S <= 2 with alpha_S the least of them.
The loads z of such a candidate are at least -``TOLERANCE`` = -tau and
sum to its mass y_1 <= 1 + tau, so in z'Gz - alpha_S y_1^2 = sum (G_ij -
alpha_S) z_i z_j the negative products sum to at least -4 K tau (1 +
3 K tau), and z'Gz >= alpha_S y_1^2 - 6 K^2 tau.  Its mass therefore
keeps qa alpha_S y_1^2 + qb y_1 <= r + tau (max(1, |r|) + 6 qa K^2).
T_S is the largest mass up to 1 + ``MARGIN`` (the solver's, 1e-6) that
keeps this with the right side r + ``MARGIN`` (max(1, |r|) + qa K^2 +
|qb|), far above, and widened by ``MARGIN`` (|T_S| + 1)
(:func:`~shipload.solver.stable_mass_room`), so T_S >= y_1 + K tau,
while the candidate's revenue, sum p_i z_i, is at most max p (y_1 +
K tau).  So a support whose bound is strictly below the incumbent holds
no candidate that wins or ties.

The supports are built in NumPy, size by size by prefix expansion, as
one slot-major array of cargo indices in the smallest unsigned type that
holds n.  All that a batch holds before it reads a value depends on the
stack's shape alone (the cargoes kept, K, n and whether a support of K
cargoes needs the volume cap): its supports, the mask of their real
slots, and their expansion into (support, pattern) systems with each
system's caps and support.  An enumeration of at most ``CHUNK``
supports, one batch, reads all of it from a cache of read-only arrays
built once per shape (:func:`_layout`), so a solve of a shape seen
before only does the algebra; it solves every support, since which of
them are chains depends on the values.  A larger enumeration grows only
chains, on every call: a support whose last two cargoes are i and k
takes a child j only when slope(k, j) <= slope(i, k).  Beside them it
builds one float bound per chain when they fill more than one batch,
and each batch's systems when the batch is packed; it keeps nothing
between calls.  The supports go in batches of ``CHUNK``, in the
scaled units x / C, c / (C a), w max(v) / (C a) and t max(p) / (C a)
with a = max|A|, so that the tests against zero read O(1) numbers.
Supports of every size share one batch, in order of size and then
lexicographically: a support of k < K cargoes fills its other slots with
a dummy cargo whose steps are zero, so that its y stays 0.  A batch is
solved as (slot, system) arrays: a sum over a support is K - 1 vector
adds in slot order, and the systems where D_1 = 0 or a row fixes t take
their own steps only in a batch that holds one, so each system's rows
are the same in any batch.  With more than ``CHUNK`` chains, the first
batch holds the ``CHUNK`` with the highest bounds, so that the incumbent
starts high, and the rest follow in their order, each batch packed from
the chains whose bounds reach the incumbent when it is packed, so every
batch but the last is full.  Candidates are compared in their scaled
revenue alone, and on a tie the earliest support in that order wins,
then the lower pattern, then the lower root, so neither the prune nor
the order of the batches can change the winner.

A root t > 0 carries the multipliers of its point: lam_S = 1 / (2 s t),
lam_C = (c - b / (2 s)) / t and lam_V = w / t, which
:func:`binding_optimum` returns for its winner.  :func:`support_points`
solves the lines along which t moves for one support in Python floats,
each of its four patterns from three sums over the support's steps; the
solver's support exchange calls it.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import NamedTuple

import numpy as np

from .model import Problem
from .quadratic_analysis import SIGN_TOLERANCE
from .solver import MARGIN, stable_mass_room

# Most linear systems that one enumeration may solve, counted over every
# support, before the chain rule and the incumbent prune: four constraint
# patterns per support, two for a support of exactly K cargoes.  Reverse
# stacks of up to 43 cargoes fit; 41 cargoes count 24 768 systems, of which
# chains and the prune leave 5 044 on the benchmark's seed-1 market stack
# and 2 047 on a reverse stack whose rates fall with density, at about
# 0.25 us each in the batch kernel (Xeon, NumPy 2.4).  A larger
# enumeration is truncated to smaller supports.
SYSTEM_BUDGET = 30_000
# Supports per batch.  On the market n = 41 stack 512 beat 256, 1024 and 2048.
CHUNK = 512
# Scaled steps of the generator, and coefficients of w in the volume row,
# at most this large count as zero.
ZERO_TOLERANCE = 1e-10
# Relative slack of the candidates' constraints and consistency tests.
# The stable-mass bound widens the deadweight cap and the stability right
# side by the solver's MARGIN, far above what a candidate that passes can
# exceed them by.
TOLERANCE = 1e-9

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
    cargo n that pads a batch; ``columns`` holds the three as lists.
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
    columns: list[list[float]]


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
        columns=padded.tolist(),
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
    # The winner's scaled revenue and the place of its support in the order
    # of the supports: candidates are compared in that revenue, and on a tie
    # the earlier support wins, so that how the supports fall into batches
    # cannot change the winner.  The empty vessel comes before every support.
    incumbent, place = 0.0, (0, [])

    # One batch reads the layout of its stack's shape, built once, with
    # every support.  More supports grow as chains only, which are bounded
    # when they fill more than one batch, and each batch is laid out when
    # it is packed.
    count = sum(math.comb(len(kept), size) for size in range(1, largest + 1))
    if count <= CHUNK:
        batches = [_layout(tuple(kept), largest, n, full_needs_volume)[1]]
    else:
        slots, starts = _supports(kept, largest, n, _slopes(units, kept))
        count = slots.shape[1]
        bounds = _mass_bounds(units, slots, starts) if count > CHUNK else None
        batches = (
            _batch(slots[:, picks], n, full_needs_volume)
            for picks in _batches(count, bounds, lambda: incumbent)
        )

    for batch in batches:
        rows = _batch_rows(units, batch)
        # Systems run support by support, then pattern by pattern: within a
        # batch, the earliest support wins a tie, then the lower pattern,
        # then the lower root.
        k, root = divmod(int(rows.value.T.argmax()), rows.value.shape[0])
        value = float(rows.value[root, k])
        cargoes = rows.support[k].tolist()
        # Supports go in order of size, then lexicographically.
        order = (sum(i < n for i in cargoes), cargoes)
        if value > incumbent or (value == incumbent and order < place):
            incumbent, place = value, order
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
        # This batch's rows go before the next batch's are built.
        del rows
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


class _Batch(NamedTuple):
    """What one batch solves, before any value is read.

    ``slots`` holds the batch's supports slot-major, (slot, support), as
    :func:`_supports` does, and ``mask`` is 1.0 in a slot of a real cargo
    and 0.0 in one of the dummy.  Then per system, support by support and
    pattern by pattern: the position of its support in the batch
    (``item``), its pattern, whether it binds the deadweight cap (``dw``)
    and the volume cap (``vol``), and its support, (system, slot).
    """

    slots: np.ndarray
    mask: np.ndarray
    item: np.ndarray
    pattern: np.ndarray
    dw: np.ndarray
    vol: np.ndarray
    support: np.ndarray


def _batch(slots: np.ndarray, n: int, full_needs_volume: bool) -> _Batch:
    """The systems of the supports in ``slots``, with the dummy cargo n in their free slots.

    Every support allows pattern 2, the volume cap alone binding, so no
    batch is empty.  A support of one cargo does not allow pattern 3, and
    with ``full_needs_volume`` a support that fills every slot allows only
    patterns 2 and 3.  Depends on the supports alone: an enumeration of at
    most ``CHUNK`` supports reads it from :func:`_layout`.
    """
    real = slots < n
    allowed = np.ones((4, slots.shape[1]), dtype=bool)
    allowed[3] &= real[1] if slots.shape[0] > 1 else False
    if full_needs_volume:
        # Patterns 0 and 1 leave the volume cap slack.
        allowed[:2] &= ~real[-1]
    item, pattern = np.nonzero(allowed.T)
    return _Batch(
        slots,
        real.astype(float),
        item,
        pattern,
        _DEADWEIGHT_ON[pattern],
        _VOLUME_ON[pattern],
        np.take(slots, item, axis=1).T,
    )


@functools.lru_cache(maxsize=16)
def _layout(
    kept: tuple[int, ...], largest: int, n: int, full_needs_volume: bool
) -> tuple[tuple[int, ...], _Batch]:
    """The ``starts`` of :func:`_supports` and the one :func:`_batch` of all its supports.

    Built once per stack shape: the cargoes that the twin merge keeps, K,
    n and whether a full support needs the volume cap.  Every array is
    read-only, and positions and patterns are held, as cargoes are, in
    the smallest unsigned types that hold them.  Only enumerations of at
    most ``CHUNK`` supports come here, so the arrays of an entry
    hold at most 69 881 bytes for n < 256 and 92 795 for n < 65 536, both
    at 9 of 9 kept cargoes (511 supports, 2 035 systems), and the 16
    entries at most 1.5 MB.
    """
    slots, starts = _supports(list(kept), largest, n)
    batch = _batch(slots, n, full_needs_volume)
    batch = batch._replace(
        item=batch.item.astype(np.min_scalar_type(slots.shape[1] - 1)),
        pattern=batch.pattern.astype(np.uint8),
    )
    for array in batch:
        array.flags.writeable = False
    return tuple(starts), batch


def _batch_rows(units: Units, batch: _Batch) -> _Rows:
    """Every system of one :class:`_Batch`, solved.

    The batch comes laid out: which systems it holds, their patterns and
    their supports (:func:`_batch`, built once per stack shape by
    :func:`_layout` for a one-batch enumeration).  This reads the values
    along the supports and does the algebra alone.
    """
    slots, mask, item, pattern, dw, vol, support = batch
    slack_dw, room, qa, qb, r = units.slack_dw, units.room, units.qa, units.qb, units.r
    # Per (slot, support): the steps of v, p and the generator along it,
    # then f = dv / D and u = dp / D where row i of D y + c e_1 + w dv =
    # t dp gives y_i, D_i != 0 with the deadweight cap slack, and 0
    # elsewhere, and the divisor: D where row i gives y_i, else 1.
    per_slot = np.empty((6,) + slots.shape)
    per_slot[:3] = np.take(np.array((units.v, units.p, units.generator)), slots, axis=1)
    per_slot[:3, 1:] -= per_slot[:3, :-1]
    per_slot[:3] *= mask
    flat = np.abs(per_slot[2]) <= ZERO_TOLERANCE
    gives = (mask > 0.0) & ~flat
    per_slot[5] = np.where(gives, per_slot[2], 1.0)
    per_slot[3:5] = np.where(gives, per_slot[:2] / per_slot[5], 0.0)
    per_slot = np.take(per_slot, item, axis=2)
    # With the deadweight cap binding, y_1 = 1 and row 1 only gives c.
    per_slot[3:5, 0, dw] = 0.0
    dv, dp, d, f, u, divisor = per_slot
    # D_i = 0 for i > 1, equal densities adjacent in the support: skipped.
    keep = ~(flat[1:] & (mask[1:] > 0.0)).any(axis=0)[item]
    # D_1 = 0 (water density at the bottom) with the deadweight cap slack:
    # row 1 reads slack_dw + w v_1 = t p_1; rare, so solved only if present.
    bottom = flat[0, item] & ~dw
    rare_bottom = np.count_nonzero(bottom)
    # y = base + t u - w f, with w = w0 + t w1; base is 0 beyond slot 1.
    base = np.zeros_like(d)
    base[0] = np.where(dw, 1.0, np.where(bottom, 0.0, -slack_dw / divisor[0]))
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
        # Both caps bind: w1 = Svp / Svv, so the term in s vanishes, and the
        # leading term, which would cancel, is summed as (dp - w1 dv)^2 / D,
        # as support_points sums it.
        both = gives_w & dw
        lead = dp[1:] - w1 * dv[1:]
        a2 = np.where(both, qa * (lead * lead / divisor[1:]).sum(axis=0), a2)
        a1 = np.where(both, 0.0, a1)
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
        support, pattern, rooted, fixed, d.T, dv.T, dp.T, w0, w1, s, t, z.swapaxes(1, 2), value
    )


def support_points(
    units: Units, support: list[int]
) -> list[tuple[list[float], float, float, float]]:
    """The points of one support where stationarity meets the stability boundary with t > 0.

    ``support`` lists cargo indices in stacking order.  Solves the rows
    that :func:`binding_optimum` solves, D y + c e_1 + w dv = t dp, for
    the four patterns of the caps in Python floats, once neighbours of
    equal density are merged (:func:`_merge_twins`).  In every pattern the
    slots i >= 2 give y_i = t u_i - w f_i with f = dv / D and u = dp / D,
    which the volume row and the stability quadratic read through three
    sums over them, Svv = dv.f, Svp = dv.u and Spp = dp.u; the bottom slot
    adds its own terms.  So a support costs O(k) once and O(1) a pattern,
    except where both caps bind: there w = Svp / Svv, and the leading
    term Spp - Svp^2 / Svv, which would cancel, is summed as
    (dp - w dv)^2 / D.  A pattern is skipped where a row fixes t (D_1 = 0
    with both caps slack, a volume row without w), which only the batch
    rows solve, and where stability does not depend on t.  Returns
    (z, lam_C, lam_V, lam_S) for every root t > 0, feasible or not, with
    z the loads over C in the order of ``support``.
    """
    v, p, g = units.columns
    steps = [g[support[0]]] + [g[j] - g[i] for i, j in zip(support, support[1:])]
    positions, (d0, *d) = _merge_twins(steps, [p[i] for i in support])
    cargoes = [support[i] for i in positions]
    v0, p0 = v[cargoes[0]], p[cargoes[0]]
    dv = [v[j] - v[i] for i, j in zip(cargoes, cargoes[1:])]
    dp = [p[j] - p[i] for i, j in zip(cargoes, cargoes[1:])]
    f = [a / b for a, b in zip(dv, d)]
    u = [a / b for a, b in zip(dp, d)]
    svv, svp = sum(map(operator.mul, dv, f)), sum(map(operator.mul, dv, u))
    spp = sum(map(operator.mul, dp, u))
    slack_dw, room, qa, qb, r = units.slack_dw, units.room, units.qa, units.qb, units.r
    flat_tol = ZERO_TOLERANCE * max(1.0, abs(r))

    points = []
    for dw, vol in ((False, False), (True, False), (False, True), (True, True)):
        bottom = not dw and abs(d0) <= ZERO_TOLERANCE
        # Row 1 gives y_1 = base + t u1 - w f1, and w = w0 + t w1.
        base, u1, f1 = (1.0, 0.0, 0.0) if dw or bottom else (-slack_dw / d0, p0 / d0, v0 / d0)
        if bottom:
            if not vol:
                continue
            # Row 1 gives w instead, and the volume row y_1 = base + t u1.
            w0, w1 = -slack_dw / v0, p0 / v0
            base, u1 = (room + w0 * svv) / v0, (w1 * svv - svp) / v0
        elif vol:
            den = svv + v0 * f1
            if abs(den) <= ZERO_TOLERANCE:
                continue
            w0, w1 = (v0 * base - room) / den, (svp + v0 * u1) / den
        else:
            w0 = w1 = 0.0
        # y_1 = y0 + t y1, and the stability constraint, minus r, a2 t^2 + a1 t + a0.
        y0, y1 = base - w0 * f1, u1 - w1 * f1
        if dw and vol:
            # w1 = Svp / Svv: the term in t vanishes, and Spp - w1 Svp is summed afresh.
            a2, slope = sum((b - w1 * a) ** 2 / c for a, b, c in zip(dv, dp, d)), 0.0
        else:
            a2, slope = (w1 * svv - 2.0 * svp) * w1 + spp, w1 * svv - svp
        a2 = qa * (a2 + d0 * y1 * y1)
        a1 = 2.0 * qa * (w0 * slope + d0 * y0 * y1) + qb * y1
        a0 = qa * (w0 * w0 * svv + d0 * y0 * y0) + qb * y0 - r
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
            w = w0 + t * w1
            y = [y0 + t * y1] + [t * b - w * a for a, b in zip(f, u)] + [0.0]
            c = t * p0 - d0 - w * v0 if dw else slack_dw
            z = [0.0] * len(support)
            for i, a, b in zip(positions, y, y[1:]):
                z[i] = a - b
            points.append((z, *_multipliers(units, t, c, w)))
    return points


def _merge_twins(steps: np.ndarray | list, rates) -> tuple[list[int], np.ndarray | list]:
    """The cargoes left when each run of equal-density neighbours keeps its best rate.

    ``steps``, an array or a list, is the scaled congruent diagonal; a step
    of at most ``ZERO_TOLERANCE`` joins a cargo to the run below it.  Of
    the cargoes that tie for the best rate, the lowest stays.  Returns them
    with the merged stack's diagonal: ``steps`` without the joins, alike.
    """
    kept, starts = [0], [0]
    for i in range(1, len(rates)):
        if abs(steps[i]) > ZERO_TOLERANCE:
            kept.append(i)
            starts.append(i)
        elif rates[i] > rates[kept[-1]]:
            kept[-1] = i
    return kept, steps[starts] if isinstance(steps, np.ndarray) else [steps[i] for i in starts]


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


def _supports(
    kept: list[int], largest: int, n: int, slopes: np.ndarray | None = None
) -> tuple[np.ndarray, list[int]]:
    """The supports of 1 to ``largest`` of the ``kept`` cargoes, slot-major.

    Returns (slots, starts).  ``slots``, of shape (largest, supports), holds
    cargo indices in the smallest unsigned type that holds n, the supports
    in order of size and then lexicographically, and the dummy cargo n in
    their free slots; slot j holds a real cargo from support ``starts[j]``
    on.  Each size grows from the one below by prefix expansion: a support
    whose last cargo is the e-th of the m kept has m - 1 - e children.
    With ``slopes``, the :func:`_slopes` of the kept cargoes, only chains
    grow: a support whose last two cargoes are the d-th and e-th kept takes
    the f-th only when slopes[e, f] <= slopes[d, e], which a NaN fails.
    Each size is held in the type of ``slots`` and only the last two
    slots' positions as intp.  Built once per stack shape, every support,
    when they fit ``CHUNK`` (:func:`_layout`), and as chains on every call
    otherwise.
    """
    m = len(kept)
    cargo = np.array(kept, dtype=np.min_scalar_type(n))
    sizes, before, last = [cargo[None]], None, np.arange(m)
    for size in range(1, largest):
        children = m - 1 - last
        first = children.cumsum() - children
        parent = np.arange(last.size).repeat(children)
        child = np.arange(parent.size) + (last + 1 - first).repeat(children)
        if slopes is not None and size > 1:
            with np.errstate(invalid="ignore"):
                chain = slopes[last[parent], child] <= slopes[before[parent], last[parent]]
            parent, child = parent[chain], child[chain]
        sizes.append(np.concatenate([sizes[-1][:, parent], cargo[child][None]]))
        before, last = last[parent], child
    starts = np.cumsum([0] + [block.shape[1] for block in sizes]).tolist()
    slots = np.full((largest, starts.pop()), n, dtype=cargo.dtype)
    for size, (start, block) in enumerate(zip(starts, sizes), 1):
        slots[:size, start : start + block.shape[1]] = block
    return slots, starts


def _slopes(units: Units, kept: list[int]) -> np.ndarray:
    """slope(a, b) = (p_b - p_a) / (g_b - g_a) of every pair of the ``kept`` cargoes, by position.

    Read on the scaled rates and generator, as the batch rows read u.  NaN
    where it is not finite: equal generator entries, whose supports the
    batch rows skip.
    """
    p, g = units.p[kept], units.generator[kept]
    with np.errstate(divide="ignore", invalid="ignore"):
        slopes = np.subtract.outer(p, p) / np.subtract.outer(g, g)
    slopes[~np.isfinite(slopes)] = np.nan
    return slopes


def _mass_bounds(units: Units, slots: np.ndarray, starts: list[int]) -> np.ndarray:
    """The stable-mass bound of each support of :func:`_supports`: T_S max p.

    Every entry of A_SS is one of its diagonal entries, so on a support S
    y'Dy >= alpha_S y_1^2 with alpha_S the least generator entry along S,
    and a stable candidate of S loads at most T_S, the stable-mass room
    (:func:`~shipload.solver.stable_mass_room`) of qa alpha_S T^2 + qb T
    <= r within the widened cap 1 + ``MARGIN``; the right side is widened
    by ``MARGIN`` (max(1, |r|) + qa K^2 + |qb|).  Since r >= 0, T = 0 is
    stable and T_S is never lost.  Generator entries and rates are read
    slot by slot.
    """
    g, p = units.generator, units.p
    cargo = slots[0].astype(np.intp)
    alpha, top = np.take(g, cargo), np.take(p, cargo)
    for j in range(1, slots.shape[0]):
        part = slice(starts[j], None)
        cargo = slots[j, part].astype(np.intp)
        np.minimum(alpha[part], np.take(g, cargo), out=alpha[part])
        np.maximum(top[part], np.take(p, cargo), out=top[part])
    largest = slots.shape[0]
    relax = MARGIN * (max(1.0, abs(units.r)) + units.qa * largest * largest + abs(units.qb))
    alpha *= units.qa
    mass, _ = stable_mass_room(alpha, units.qb, -units.r - relax, 1.0 + MARGIN, 1.0)
    return np.multiply(mass, top, out=mass)


def _batches(count: int, bounds: np.ndarray | None, floor):
    """The supports of each batch, as indices into the ``count`` supports in their order.

    Without ``bounds``, when there are at most ``CHUNK`` supports, all of
    them form one batch, given as a slice.  Otherwise the first batch
    holds the ``CHUNK`` supports with the highest bounds, ties going to
    the earlier, in their order, and the rest follow in their order, each
    read against ``floor()``, the live incumbent, when its batch is
    packed: a support whose bound is below it is dropped.  Every batch but
    the last is full.  ``bounds`` is consumed.
    """
    if bounds is None:
        yield slice(None)
        return
    # Eight halvings leave a floor that at least CHUNK bounds reach, and
    # only those few are sorted: np.argpartition or np.sort over all of
    # them would page in 0.25-0.45 MB of NumPy code that no other step uses.
    low, high = bounds.min(), bounds.max()
    for _ in range(8):
        middle = 0.5 * (low + high)
        if np.count_nonzero(bounds >= middle) >= CHUNK:
            low = middle
        else:
            high = middle
    above = np.flatnonzero(bounds >= low)
    best = np.zeros(count, dtype=bool)
    best[above[np.argsort(-bounds[above], kind="stable")[:CHUNK]]] = True
    yield np.flatnonzero(best)
    bounds[best] = -np.inf
    start = 0
    while True:
        picks = np.flatnonzero(bounds[start:] >= floor())[:CHUNK] + start
        if not picks.size:
            return
        yield picks
        start = int(picks[-1]) + 1
