"""Closed-form enumeration of the KKT points at which stability binds.

With the stability constraint s x'Ax + b sum(x) <= r binding, Fritz-John
stationarity on the support S of x reads

    A_SS x_S + c 1 + w v_S = t p_S,    t >= 0,

where t = 0 keeps the abnormal points.  The deadweight row is c = b/(2s)
when that cap is slack and 1.x_S = C when it binds; the volume row is
w = 0 or v_S.x_S = V.  For each support and each of these four patterns
the system in (x_S, c, w) is affine in t, and the binding stability
constraint turns it into a quadratic in t with at most two roots.  Each
root and t = 0 give a candidate; the empty vessel is one too.  A single
cargo binding both caps is not solved: the deadweight row alone pins that
load, so the deadweight pattern yields the same point.

No elimination is needed.  A_SS is min-index like A, A_SS = L diag(D) L'
with L the lower triangular matrix of ones and D the steps of the
generator along S, so in the suffix sums y = L'x_S stationarity reads

    D y + c e_1 + w dv = t dp,

with dv and dp the steps of v and p along S.  Row i gives y_i, except
that when the deadweight cap binds row 1 only gives c, and y_1 = sum(x)
= C.  The volume row dv.y = V then gives w.  In y the stability constraint
is s y'Dy + b y_1 <= r, and x_i = y_i - y_(i+1).  Degenerate rows:

* D_i = 0 for i > 1 means two cargoes of equal density: y_i is free and
  t = 0 solves row i, a continuum, so the enumeration gives up.
* D_1 = 0, the bottom cargo at water density, with the deadweight cap
  slack turns row 1 into b/(2s) + w v_1 = t p_1.  With the volume cap
  slack as well no t solves it when p_1 = 0 (ballast), and the system is
  skipped; otherwise y_1 is free and the enumeration gives up.  With the
  volume cap binding, row 1 gives w and the volume row gives y_1.
* A volume row whose coefficient of w vanishes is skipped when no t
  solves it, and the enumeration gives up otherwise.

Second-order necessity, under a constraint qualification, makes A_SS
positive semidefinite on a subspace whose codimension is the number of
binding constraints, so A_SS has at most that many negative eigenvalues.
By Sylvester's law of inertia the signs of D count them, which rules out
patterns support by support.  With at most three binding constraints and
Cauchy interlacing, |S| <= K = 3 + #{k : D_k >= 0} for the problem's own
congruent diagonal.  An instance with more than ``SYSTEM_BUDGET`` systems,
four per support of at most K loads, is not enumerated.

The supports go in batches of ``CHUNK``, in the scaled units x / C,
c / (C a), w max(v) / (C a) and t max(p) / (C a) with a = max|A|, so that
the tests against zero read O(1) numbers.  Supports of every size share
one batch layout: a support of k < K cargoes fills its other slots with a
dummy cargo whose steps are zero, so that its y stays 0.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .model import Problem
from .quadratic_analysis import SIGN_TOLERANCE

# Most linear systems, four constraint patterns per support, that one
# enumeration solves.
SYSTEM_BUDGET = 20_000
# Supports per batch, which keeps every temporary of a batch to a few KB.
CHUNK = 16
# Scaled steps of the generator, and coefficients of w in the volume row,
# at most this large count as zero.
ZERO_TOLERANCE = 1e-10
# Relative slack of the candidates' constraints and consistency tests.
TOLERANCE = 1e-9

# (deadweight binds, volume binds) of the four patterns, and the number of
# binding constraints of each, stability included.
_DEADWEIGHT_ON = np.array([False, True, False, True])
_VOLUME_ON = np.array([False, False, True, True])
_BINDING = np.array([1.0, 2.0, 2.0, 3.0])


def binding_optimum(problem: Problem) -> tuple[float, np.ndarray | None, str | None]:
    """The best feasible candidate with stability binding, or the empty vessel.

    Returns (revenue, loads, None) when the enumeration finished, and
    (-inf, None, reason) when it gave up.  A candidate counts when x >= 0
    meets every constraint to ``TOLERANCE`` relative.  The empty vessel is
    feasible because the caller has checked r >= 0.
    """
    n = problem.n
    evidence = problem.classification.evidence
    # A = generator[min(i, j)], so a = max|A| scales it and its diagonal.
    a = float(np.abs(evidence.generator).max()) or 1.0
    largest = min(n, 3 + int(np.count_nonzero(evidence.diagonal >= -SIGN_TOLERANCE * a)))
    systems = 4 * sum(math.comb(n, k) for k in range(largest + 1))
    if systems > SYSTEM_BUDGET:
        return -math.inf, None, (
            f"over budget, {systems} systems for supports of up to {largest} of {n} cargoes"
        )

    cap, r = problem.deadweight_cap, problem.rhs
    rate = float(problem.objective.max()) or 1.0
    slack_dw = problem.linear_coeff / (2.0 * problem.quad_scale * cap * a)
    room = problem.volume_cap / (cap * problem.volume_coeffs.max())
    # The stability constraint in y: qa y'Dy + qb y_1 <= r.
    qa = problem.quad_scale * cap * cap * a
    qb = problem.linear_coeff * cap
    consistency_tol = TOLERANCE * max(1.0, abs(slack_dw), room)
    # Index n is the dummy cargo.
    v, p, generator = (
        np.append(data, 0.0)
        for data in (
            problem.volume_coeffs / problem.volume_coeffs.max(),
            problem.objective / rate,
            evidence.generator / a,
        )
    )
    supports = itertools.chain.from_iterable(
        itertools.combinations(range(n), k) for k in range(1, largest + 1)
    )
    best_value, best_x = 0.0, np.zeros(n + 1)
    while batch := list(itertools.islice(supports, CHUNK)):
        # Masks are 0/1 floats: integer and boolean arithmetic would page in
        # NumPy loops that nothing else on the solve path uses.
        chunk = np.full((len(batch), largest), n)
        real = np.zeros((len(batch), largest))
        for row, mask, support in zip(chunk, real, batch):
            row[: len(support)] = support
            mask[: len(support)] = 1.0
        steps = generator[chunk]
        steps[:, 1:] -= generator[chunk[:, :-1]]
        steps *= real
        # More negative steps than binding constraints rule a pattern out.
        negative = np.where(steps < -SIGN_TOLERANCE, 1.0, 0.0).sum(axis=1)
        allowed = negative <= _BINDING[:, None]
        allowed[3] &= (real[:, 1] > 0.0) if largest > 1 else False
        pattern, item = np.nonzero(allowed)
        if not item.size:
            continue
        support, real, d = chunk[item], real[item], steps[item]
        dw, vol = _DEADWEIGHT_ON[pattern], _VOLUME_ON[pattern]
        dv, dp = v[support], p[support]
        dv[:, 1:] -= v[support[:, :-1]]
        dp[:, 1:] -= p[support[:, :-1]]
        dv *= real
        dp *= real

        # Row i of D y + c e_1 + w dv = t dp gives y_i, except the first
        # row when the deadweight cap binds (y_1 = 1 there, and the row only
        # gives c) and rows with D_i = 0.
        solved = real.copy()
        solved[dw, 0] = 0.0
        flat = np.where(np.abs(d) <= ZERO_TOLERANCE, solved, 0.0)
        if flat[:, 1:].max(initial=0.0) > 0.0:
            # Equal densities: y_i is free, and t = 0 solves row i.
            k = int(flat[:, 1:].max(axis=1).argmax())
            return -math.inf, None, _continuum(support[k], n)
        # D_1 = 0 (water density at the bottom) with the deadweight cap
        # slack: row 1 reads slack_dw + w v_1 = t p_1.  With the volume cap
        # slack too, w = 0, and only a zero rate leaves no t.
        bottom = flat[:, 0] > 0.0
        stuck = bottom & ~vol
        if np.any(stuck & ((np.abs(dp[:, 0]) > TOLERANCE) | (abs(slack_dw) <= consistency_tol))):
            k = int(np.where(stuck, 1.0, 0.0).argmax())
            return -math.inf, None, _continuum(support[k], n)
        keep = ~stuck
        solved -= flat
        safe = np.where(solved > 0.0, d, 1.0)
        u = np.where(solved > 0.0, dp / safe, 0.0)
        f = np.where(solved > 0.0, dv / safe, 0.0)
        # y = base + t u - w f, with w = w0 + t w1.
        base = np.zeros_like(d)
        base[:, 0] = np.where(dw, 1.0, np.where(bottom, 0.0, -slack_dw / safe[:, 0]))
        with np.errstate(divide="ignore", invalid="ignore"):
            # The volume row: dv . y = room.
            den = (dv * f).sum(axis=1)
            num0 = (dv * base).sum(axis=1) - room
            num1 = (dv * u).sum(axis=1)
            normal = vol & ~bottom
            degenerate = normal & (np.abs(den) <= ZERO_TOLERANCE)
            solvable = (np.abs(num1) > TOLERANCE) | (np.abs(num0) <= consistency_tol)
            if np.any(degenerate & solvable):
                k = int(np.where(degenerate, 1.0, 0.0).argmax())
                return -math.inf, None, _continuum(support[k], n)
            keep &= ~degenerate
            w0 = np.where(normal, num0 / den, 0.0)
            w1 = np.where(normal, num1 / den, 0.0)
            # With D_1 = 0 row 1 gives w, and the volume row gives y_1.
            w0 = np.where(bottom, -slack_dw / dv[:, 0], w0)
            w1 = np.where(bottom, dp[:, 0] / dv[:, 0], w1)
            y0 = base - w0[:, None] * f
            y1 = u - w1[:, None] * f
            v_1 = np.where(bottom, dv[:, 0], 1.0)
            y0[:, 0] = np.where(bottom, (room - (dv * y0).sum(axis=1)) / v_1, y0[:, 0])
            y1[:, 0] = np.where(bottom, -(dv * y1).sum(axis=1) / v_1, y1[:, 0])

            # The stability constraint along the line, minus r: a2 t^2 + a1 t + a0.
            a2 = qa * (d * y1 * y1).sum(axis=1)
            a1 = 2.0 * qa * (d * y0 * y1).sum(axis=1) + qb * y1[:, 0]
            a0 = qa * (d * y0 * y0).sum(axis=1) + qb * y0[:, 0] - r
            disc = a1 * a1 - 4.0 * a2 * a0
            # A tangent root may come out a rounding error below zero.
            disc[(disc < 0.0) & (disc >= -1e-12 * (a1 * a1 + np.abs(4.0 * a2 * a0)))] = 0.0
            half = -0.5 * (a1 + np.where(a1 < 0.0, -1.0, 1.0) * np.sqrt(disc))
            t = np.zeros((3, half.size))
            t[1] = half / a2
            t[2] = a0 / half
            y = y0 + t[:, :, None] * y1  # (t = 0 and the two roots, systems, slots)
            z = y.copy()
            z[:, :, :-1] -= y[:, :, 1:]
            excess = (a2 * t + a1) * t + a0
            ok = (
                keep
                & (z.min(axis=2) >= -TOLERANCE)
                & (y[:, :, 0] <= 1.0 + TOLERANCE)
                & ((y * dv).sum(axis=2) <= room * (1.0 + TOLERANCE))
                & (excess <= TOLERANCE * max(1.0, abs(r)))
            )
            value = np.where(ok, (y * dp).sum(axis=2), -np.inf)
        root, k = divmod(int(value.argmax()), value.shape[1])
        if value[root, k] * rate * cap > best_value:
            best_x = np.zeros(n + 1)
            best_x[support[k]] = cap * np.maximum(z[root, k], 0.0)
            best_value = float(problem.objective @ best_x[:n])
    return best_value, best_x[:n], None


def _continuum(support: np.ndarray, n: int) -> str:
    cargoes = [int(i) for i in support if i < n]
    return f"a singular system on cargoes {cargoes} has a continuum of solutions"
