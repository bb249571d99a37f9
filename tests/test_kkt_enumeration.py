"""The closed-form KKT enumeration: its support rule against the inertia bound it replaced,
its scalar per-support solve against its batch rows, its batch rows against the same supports
solved one per batch, its cached batch layout against one built from itertools, its
incumbent prune against the enumeration without it, and its chain rule against every
support."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from shipload import (
    CargoType,
    Definiteness,
    Environment,
    LoadingOrder,
    StabilityPolicy,
    Vessel,
    assemble_problem,
)
from shipload import kkt_enumeration, solver
from shipload.model import BALLAST_LABEL
from shipload.quadratic_analysis import SIGN_TOLERANCE

from conftest import (
    closed_form_optimum, draw_random_problem, large_reverse_stack, pinned_stacks, support_loads,
)


def _inertia_rule(diagonal):
    """The bound before the edge argument: 3 + #{k : D_k >= 0} cargoes, every pattern."""
    return min(diagonal.size, 3 + int(np.count_nonzero(diagonal >= -SIGN_TOLERANCE))), False


def _enumerates(problem):
    """Whether ``solve`` enumerates ``problem``: its relaxation has one, unstable, vertex."""
    if problem.classification.kind is Definiteness.POSITIVE_SEMIDEFINITE:
        return False
    face, _, _ = solver._lp_optimum(problem)
    return len(face) == 1 and solver._stable_point(problem, face) is None


def _both_rules(problem):
    """``binding_optimum``'s revenue under the edge rule, then under the inertia rule."""
    value, _, _, reason = kkt_enumeration.binding_optimum(problem)
    assert reason is None
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kkt_enumeration, "_support_rule", _inertia_rule)
        patch.setattr(kkt_enumeration, "SYSTEM_BUDGET", math.inf)
        reference, _, _, reason = kkt_enumeration.binding_optimum(problem)
    assert reason is None
    return value, reference


class TestSupportRule:
    def test_reverse_order_drops_one_size(self):
        # Distinct densities rising up the stack: only D_1 is positive.
        diagonal = np.array([0.5, -0.1, -0.2, -0.3, -0.1])
        assert kkt_enumeration._support_rule(diagonal) == (3, True)
        assert kkt_enumeration._support_rule(-diagonal) == (5, False)
        assert kkt_enumeration._support_rule(diagonal[:3]) == (3, True)
        assert kkt_enumeration._support_rule(diagonal[:2]) == (2, False)
        assert kkt_enumeration._support_rule(diagonal[:1]) == (1, False)

    def test_merged_twins_keep_the_best_rate(self):
        steps = np.array([0.3, -0.2, 0.0, 0.0, 0.1, 0.0])
        rates = np.array([1.0, 2.0, 3.0, 3.0, 1.0, 1.0])
        # Cargoes 1-3 share a density, as do 4 and 5; ties keep the lower.
        kept, diagonal = kkt_enumeration._merge_twins(steps, rates)
        assert kept == [0, 2, 4]
        assert diagonal.tolist() == [0.3, -0.2, 0.1]

    def test_edge_rule_matches_the_inertia_rule(self):
        rng = np.random.default_rng(83)
        orders = {"normal": LoadingOrder.normal(), "reverse": LoadingOrder.reverse()}
        orders["explicit"] = "explicit"
        checked = {kind: 0 for kind in orders}
        water_bottom, clamped = 0, set()
        draws = 0
        while sum(checked.values()) < 300 or len(clamped) < 2:
            draws += 1
            kind = ("normal", "reverse", "explicit")[draws % 3]
            if draws % 10 == 0:
                # One or two cargoes in reverse order: K is clamped to n.
                kind, sizes = "reverse", (1, 3)
            else:
                # 2 to 11 cargoes, and the ballast on half of the draws.
                sizes = (2, 12)
            # Every fourth draw has a hold small enough for volume to bind.
            room = (0.3, 0.8) if draws % 4 == 1 else (0.5, 2.0)
            problem = draw_random_problem(rng, sizes=sizes, orders=(orders[kind],), room=room)
            if not _enumerates(problem):
                continue
            value, reference = _both_rules(problem)
            assert value == pytest.approx(reference, rel=1e-9, abs=1e-9)
            checked[kind] += 1
            # Ballast at water density at the bottom: D_1 = 0.
            water_bottom += bool(problem.classification.evidence.diagonal[0] == 0.0)
            if sizes == (1, 3) and problem.n <= 2:
                clamped.add(problem.n)
        assert checked["reverse"] >= 100 and checked["explicit"] >= 50, checked
        assert water_bottom >= 10
        assert clamped == {1, 2}

    def test_edge_rule_matches_on_a_reverse_stack_of_21(self):
        value, reference = _both_rules(large_reverse_stack(21))
        assert value == pytest.approx(reference, rel=1e-9)


def _batch_roots(problem, support):
    """The batch rows of one support: (pattern, loads, scaled t) of its roots t > 0.

    Every root of a system along which t moves, feasible or not, as
    :func:`~shipload.kkt_enumeration.support_points` solves them.
    """
    units = kkt_enumeration.scaled_units(problem)
    diagonal = problem.classification.evidence.diagonal / units.a
    _, merged = kkt_enumeration._merge_twins(diagonal, problem.objective)
    largest, full_needs_volume = kkt_enumeration._support_rule(merged)
    chunk = np.full((largest, 1), problem.n, dtype=np.intp)
    chunk[: len(support), 0] = support
    batch = kkt_enumeration._batch(chunk, problem.n, full_needs_volume)
    rows = kkt_enumeration._batch_rows(units, batch)
    roots = []
    for root in (1, 2):
        moving = rows.rooted & ~rows.fixed
        for k in np.flatnonzero(moving & (rows.t[root] > 0.0) & np.isfinite(rows.t[root])):
            x = np.zeros(problem.n + 1)
            x[rows.support[k]] = units.cap * rows.z[root, k]
            roots.append((int(rows.pattern[k]), x[: problem.n], float(rows.t[root, k])))
    return roots


def _check_support(problem, support):
    """The scalar solve against the batch rows on one support of distinct-density neighbours.

    Every root of the batch rows is a scalar point, with the same loads and
    t; where the batch rows solve every pattern, on supports of fewer than
    K cargoes or when K is the number of cargoes, the converse holds too.  Every scalar point meets stationarity on its loaded
    cargoes with its multipliers.  Returns the patterns of the batch roots
    and the scalar points that are feasible.
    """
    units = kkt_enumeration.scaled_units(problem)
    points = support_loads(units, support)
    roots = _batch_roots(problem, support)
    cap, rate = problem.deadweight_cap, float(problem.objective.max()) or 1.0
    # lam_S = 1 / (2 s t) unscaled, so t * lam_S is this constant in scaled t.
    product = units.rate / (2.0 * units.quad_scale * units.cap * units.a)

    def same(x, t, other_x, other_t):
        scale = max(1.0, np.abs(x).max())
        return np.abs(other_x - x).max() <= 1e-7 * scale and other_t == pytest.approx(t, rel=1e-7)

    for _, x, t in roots:
        assert any(same(x, t, point[0], product / point[3]) for point in points), (support, x, t)
    diagonal = problem.classification.evidence.diagonal / units.a
    largest, full_needs_volume = kkt_enumeration._support_rule(
        kkt_enumeration._merge_twins(diagonal, problem.objective)[1]
    )
    if len(support) < largest or not full_needs_volume:
        for point in points:
            t = product / point[3]
            assert any(same(point[0], t, x, root_t) for _, x, root_t in roots), (support, point)
    feasible = []
    on = list(support)
    for point in points:
        x, lam_c, lam_v, lam_s = point
        gradient = solver.stability_gradient(problem, x)
        residual = (
            problem.objective[on] - lam_c - lam_v * problem.volume_coeffs[on] - lam_s * gradient[on]
        )
        # The size of the terms, the gradient's before it cancels.
        size = np.abs(problem.quad_matrix) @ np.abs(x) * 2.0 * problem.quad_scale
        scale = np.maximum.reduce([
            problem.objective[on],
            np.full(len(on), abs(lam_c)),
            abs(lam_v) * problem.volume_coeffs[on],
            abs(lam_s) * (size[on] + abs(problem.linear_coeff)),
        ])
        # A twin merged away carries no load, and its row need not hold.
        loaded = x[on] != 0.0
        assert (np.abs(residual) <= 1e-9 * scale)[loaded].all(), (support, point)
        loads = np.maximum(x, 0.0)
        violation = solver._Loading(problem, loads).violation
        if x.min() >= -1e-10 * cap and violation <= 1e-10:
            feasible.append(point)
    return [pattern for pattern, _, _ in roots], feasible


class TestSupportPoints:
    """``support_points``, the scalar solve of one support, against the batch rows."""

    def test_matches_the_batch_rows_on_random_supports(self):
        rng = np.random.default_rng(97)
        orders = (LoadingOrder.normal(), LoadingOrder.reverse(), "explicit")
        convex = water_bottom = 0
        patterns = np.zeros(4, dtype=int)
        for draw in range(300):
            room = (0.3, 0.8) if draw % 3 == 0 else (0.5, 2.0)
            problem = draw_random_problem(rng, sizes=(1, 9), orders=orders, room=room)
            convex += problem.classification.kind is Definiteness.POSITIVE_SEMIDEFINITE
            units = kkt_enumeration.scaled_units(problem)
            diagonal = problem.classification.evidence.diagonal / units.a
            kept, merged = kkt_enumeration._merge_twins(diagonal, problem.objective)
            largest, _ = kkt_enumeration._support_rule(merged)
            for _ in range(3):
                size = int(rng.integers(1, min(largest, 4) + 1))
                support = sorted(rng.choice(kept, size=size, replace=False).tolist())
                # Ballast at water density at the bottom of the support: D_1 = 0.
                water_bottom += bool(units.generator[support[0]] == 0.0)
                rooted, _ = _check_support(problem, support)
                patterns += np.bincount(rooted, minlength=4)
        # Pattern 3 binds both caps, pattern 1 only the deadweight.
        assert convex >= 60 and water_bottom >= 50, (convex, water_bottom)
        assert patterns.min() >= 100, patterns

    def test_keeps_the_deadweight_root_of_a_large_hull(self):
        # A reverse stack on a 303 m hull whose optimum binds deadweight and
        # stability, at a scaled t of 9.6 and an unscaled t of 7e5: a test
        # for a flat stability quadratic must read the scaled numbers.
        cargoes = (
            ("c1", 0.48463844316024324, 5.933527047871038),
            ("c2", 0.6147304434427722, 6.824330592281782),
            ("c3", 0.4094628088426699, 4.343555431924531),
            ("c4", 0.3840520140242057, 3.704760414633863),
            ("c5", 0.8632379262342758, 6.628569660825745),
            ("c6", 0.424916456327257, 3.0884585288557855),
        )
        problem = assemble_problem(
            Vessel(
                303.01119254938925, 52.64018590475631, 310254.26727112464,
                382425.05598741694, 148237.24869017873, 15.252877521271179,
            ),
            Environment(1.0046587928323274), StabilityPolicy(9.467928771117942),
            tuple(CargoType(*c) for c in cargoes), LoadingOrder.reverse(), True,
        )
        value, x, complete, multipliers = closed_form_optimum(problem)
        assert complete and multipliers is not None
        support = np.flatnonzero(x).tolist()
        assert [problem.labels[i] for i in support] == ["c2", "c5"]
        _, feasible = _check_support(problem, support)
        best = max(feasible, key=lambda point: problem.objective @ point[0])
        assert problem.objective @ best[0] == pytest.approx(value, rel=1e-12)
        assert best[1:] == pytest.approx(multipliers, rel=1e-9)
        assert best[1] > 0.0 and best[2] == 0.0  # deadweight binds, volume does not


class TestPinnedPair:
    """Two cargoes at both caps have their loads pinned, however close their densities."""

    def test_no_root_binds_both_caps_on_a_pair(self):
        # With both caps binding, the line through two cargoes moves t and w
        # alone, so stability is flat along it.  Its coefficients come from
        # Svv, Svp and Spp, which grow as 1 / D where the densities nearly
        # coincide; summed from dv / D and dp / D slot by slot, their
        # rounding left roots with t near 1e12 on about one pair in twenty,
        # in the scalar solve and in the batch rows alike.
        rng = np.random.default_rng(31)
        points = 0
        for _ in range(400):
            drawn = draw_random_problem(rng, sizes=(2, 6), room=(0.3, 2.0))
            cargoes = [c for c in drawn.cargoes if c.label != BALLAST_LABEL]
            twin = cargoes[int(rng.integers(len(cargoes)))]
            gap = 10.0 ** rng.uniform(-9.0, -5.0)
            cargoes.append(CargoType("near", twin.density * (1.0 + gap), rng.uniform(0.0, 10.0)))
            problem = assemble_problem(
                drawn.vessel, drawn.environment, drawn.policy, tuple(cargoes),
                LoadingOrder.normal(), False,
            )
            support = sorted([problem.labels.index("near"), problem.labels.index(twin.label)])
            found = kkt_enumeration.support_points(kkt_enumeration.scaled_units(problem), support)
            # Only a point that binds both caps has lam_C and lam_V both nonzero.
            assert not [p for p in found if p[1] != 0.0 and p[2] != 0.0], (gap, support, found)
            points += len(found)
            # The batch rows: pattern 3 binds both caps.
            both_caps = [t for pattern, _, t in _batch_roots(problem, support) if pattern == 3]
            assert not [t for t in both_caps if t > 1e6], (gap, support, both_caps)
        assert points >= 400, points


class TestBatchComposition:
    """A system's rows do not depend on the other systems of its batch."""

    # Per system, indexed first; the rest are per candidate, indexed (root, system).
    PER_SYSTEM = ("support", "pattern", "rooted", "fixed", "d", "dv", "dp", "w0", "w1")

    def test_rows_do_not_depend_on_the_batch(self):
        # c0, paying and at water density, is the bottom cargo: its supports
        # hold D_1 = 0 with both caps slack, where row 1 fixes t, and with
        # the volume cap binding, where row 1 gives w.  c5's volume
        # coefficient is moved so that the volume row of {c1, c5} has no w.
        problem = pinned_stacks()["paying-water-density"][0]
        units = kkt_enumeration.scaled_units(problem)
        g, v = units.generator, units.v.copy()
        v[2] = v[1] * (1.0 + math.sqrt((g[1] - g[2]) / g[1]))
        units = units._replace(v=v)
        diagonal = problem.classification.evidence.diagonal / units.a
        kept, merged = kkt_enumeration._merge_twins(diagonal, problem.objective)
        largest, full_needs_volume = kkt_enumeration._support_rule(merged)
        slots, _ = kkt_enumeration._supports(kept, largest, problem.n)
        # The whole enumeration is one batch.
        assert slots.shape[1] <= kkt_enumeration.CHUNK

        def solve(rows):
            batch = kkt_enumeration._batch(slots[:, rows], problem.n, full_needs_volume)
            return kkt_enumeration._batch_rows(units, batch)

        batch, backward = solve(slice(None)), solve(slice(None, None, -1))
        bottom = batch.support[:, 0] == 0
        ordinary = ~batch.fixed & ~bottom
        kinds = {
            "row 1 fixes t": batch.fixed & (batch.pattern == 0),
            "row 1 gives w": bottom & (batch.pattern == 2),
            "the volume row fixes t": batch.fixed & (batch.pattern >= 2),
            "ordinary, with a candidate": ordinary & np.isfinite(batch.value).any(axis=0),
        }
        assert all(kind.any() for kind in kinds.values()), kinds

        # Each support alone, then within the batch and within the batch
        # with its supports in reverse order.
        alone = [solve(slice(i, i + 1)) for i in range(slots.shape[1])]
        sizes = [rows.pattern.size for rows in alone]
        ends = np.cumsum(sizes), np.cumsum(sizes[::-1])[::-1]
        assert ends[0][-1] == batch.pattern.size == backward.pattern.size
        for i, rows in enumerate(alone):
            for whole, end in zip((batch, backward), ends):
                systems = slice(end[i] - sizes[i], end[i])
                for field in rows._fields:
                    part = getattr(whole, field)
                    part = part[systems] if field in self.PER_SYSTEM else part[:, systems]
                    np.testing.assert_array_equal(part, getattr(rows, field), err_msg=field)


def _reference_layout(kept, largest, n, full_needs_volume):
    """(starts, batch) of ``_layout`` from itertools and the pattern rule, one support at a time.

    Supports go by size, then lexicographically; a support of one cargo
    does not bind both caps, and with ``full_needs_volume`` one of
    ``largest`` cargoes binds the volume cap.
    """
    supports = [c for size in range(1, largest + 1) for c in itertools.combinations(kept, size)]
    starts = tuple(sum(len(c) <= j for c in supports) for j in range(largest))
    padded = [list(c) + [n] * (largest - len(c)) for c in supports]
    systems = [
        (k, pattern)
        for k, c in enumerate(supports)
        for pattern in range(4)
        if not (pattern == 3 and len(c) == 1)
        and not (full_needs_volume and len(c) == largest and pattern < 2)
    ]
    item = [k for k, _ in systems]
    pattern = [p for _, p in systems]
    batch = kkt_enumeration._Batch(
        slots=np.array(padded, dtype=np.min_scalar_type(n)).T,
        mask=np.array([[float(j < len(c)) for c in supports] for j in range(largest)]),
        item=np.array(item),
        pattern=np.array(pattern),
        dw=np.array([p in (1, 3) for p in pattern]),
        vol=np.array([p >= 2 for p in pattern]),
        support=np.array([padded[k] for k in item], dtype=np.min_scalar_type(n)),
    )
    return starts, batch


class TestLayout:
    """The batch layout of a one-batch enumeration is built once per stack shape."""

    @pytest.mark.parametrize("full_needs_volume", [False, True])
    def test_matches_itertools(self, full_needs_volume):
        shapes = [(tuple(range(m)), largest, m) for m in range(1, 10) for largest in range(1, m + 1)]
        # Merged twins leave gaps in the kept cargoes; n = 300 holds cargoes in uint16.
        shapes += [((0, 2, 3, 6, 7), largest, 9) for largest in range(1, 6)]
        shapes += [((1, 5, 40, 299), largest, 300) for largest in range(1, 5)]
        for kept, largest, n in shapes:
            starts, batch = kkt_enumeration._layout(kept, largest, n, full_needs_volume)
            assert batch.slots.shape[1] <= kkt_enumeration.CHUNK
            reference_starts, reference = _reference_layout(kept, largest, n, full_needs_volume)
            assert starts == reference_starts, (kept, largest)
            for field, array in zip(batch._fields, batch):
                expected = getattr(reference, field)
                np.testing.assert_array_equal(array, expected, err_msg=f"{field} {kept} {largest}")
            assert batch.slots.dtype == batch.support.dtype == np.min_scalar_type(n)
            assert batch.item.dtype == np.min_scalar_type(batch.slots.shape[1] - 1)
            assert batch.pattern.dtype == np.uint8

    def test_cached_arrays_are_read_only(self):
        _, batch = kkt_enumeration._layout((0, 1, 2, 3), 3, 4, True)
        for array in batch:
            with pytest.raises(ValueError):
                array[(0,) * array.ndim] = array[(0,) * array.ndim]

    def test_answers_do_not_depend_on_the_cache(self):
        rng = np.random.default_rng(31)
        orders = (LoadingOrder.normal(), LoadingOrder.reverse(), "explicit")
        draws = checked = hits = 0
        while checked < 300:
            draws += 1
            problem = draw_random_problem(
                rng, sizes=(2, 14), orders=(orders[draws % 3],), degenerate=draws % 3 == 1
            )
            if problem.classification.kind is Definiteness.POSITIVE_SEMIDEFINITE:
                continue
            kkt_enumeration.binding_optimum(problem)
            before = kkt_enumeration._layout.cache_info().hits
            value, x, multipliers, reason = kkt_enumeration.binding_optimum(problem)
            hits += kkt_enumeration._layout.cache_info().hits > before
            kkt_enumeration._layout.cache_clear()
            cold = kkt_enumeration.binding_optimum(problem)
            assert (value, multipliers, reason) == (cold[0], cold[2], cold[3])
            assert x.tobytes() == cold[1].tobytes()
            checked += 1
        # Most draws fit one batch, and their second call reads the cache.
        assert hits >= 200, hits

    def test_unpruned_stack_of_41_is_not_cached(self):
        kkt_enumeration._layout.cache_clear()
        _unpruned(large_reverse_stack(41))
        info = kkt_enumeration._layout.cache_info()
        assert info.currsize == 0 and info.misses == 0


def _one_batch(count, bounds, floor):
    """``_batches`` without the prune: every support in one batch, in their order."""
    yield slice(None)


def _unpruned(problem):
    """``binding_optimum`` with all its supports in one batch, in their order: none is pruned."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kkt_enumeration, "_batches", _one_batch)
        return kkt_enumeration.binding_optimum(problem)


def _counted(run, problem):
    """(systems solved, what ``run(problem)`` returned, stable-mass bounds built)."""
    systems, bounds = [0], [0]
    batch_rows, mass_bounds = kkt_enumeration._batch_rows, kkt_enumeration._mass_bounds

    def counted_rows(*args):
        rows = batch_rows(*args)
        systems[0] += rows.support.shape[0]
        return rows

    def counted_bounds(*args):
        bounds[0] += 1
        return mass_bounds(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kkt_enumeration, "_batch_rows", counted_rows)
        patch.setattr(kkt_enumeration, "_mass_bounds", counted_bounds)
        answer = run(problem)
    return systems[0], answer, bounds[0]


def _assert_unchanged_by_the_prune(problem):
    """Pruned and unpruned enumerations agree bit for bit.

    Returns (whether the pruned run bounded its supports, the truncation reason).
    """
    (value, x, multipliers, reason), bounds = _counted(kkt_enumeration.binding_optimum, problem)[1:]
    reference = _unpruned(problem)
    assert (value, multipliers, reason) == (reference[0], reference[2], reference[3])
    assert x.tobytes() == reference[1].tobytes()
    return bounds > 0, reason


class TestIncumbentPrune:
    """Chains whose stable-mass bound cannot reach the incumbent are not solved."""

    def test_same_answers_without_the_prune(self):
        rng = np.random.default_rng(2026)
        orders = {"normal": LoadingOrder.normal(), "reverse": LoadingOrder.reverse()}
        orders["explicit"] = "explicit"
        checked = {kind: 0 for kind in orders}
        sizes, pruned, truncated, ballast, twins = set(), 0, 0, 0, 0
        draws = 0
        while sum(checked.values()) < 600:
            draws += 1
            kind = ("normal", "reverse", "explicit")[draws % 3]
            # Every fourth draw gives one cargo the density of another, or of water.
            degenerate = draws % 4 == 0
            problem = draw_random_problem(
                rng, sizes=(2, 44), orders=(orders[kind],), room=(0.3, 2.0), degenerate=degenerate
            )
            if problem.classification.kind is Definiteness.POSITIVE_SEMIDEFINITE:
                continue
            bounded, reason = _assert_unchanged_by_the_prune(problem)
            pruned += bounded
            truncated += reason is not None
            checked[kind] += 1
            sizes.add(problem.n)
            ballast += BALLAST_LABEL in problem.labels
            steps = problem.classification.evidence.diagonal
            twins += bool(np.any(steps[1:] == 0.0))
        assert min(checked.values()) >= 150, checked
        assert min(sizes) == 2 and max(sizes) >= 43, sorted(sizes)
        assert pruned >= 200 and truncated >= 100, (pruned, truncated)
        assert ballast >= 200 and twins >= 50, (ballast, twins)

    @pytest.mark.parametrize("n", [21, 41, 44, 60, 80])
    def test_same_answers_on_large_reverse_stacks(self, n):
        bounded, _ = _assert_unchanged_by_the_prune(large_reverse_stack(n))
        # The chains of 21 cargoes fit one batch, and are not bounded.
        assert bounded == (n > 21)

    def test_halves_the_systems_of_a_reverse_stack_of_41(self):
        # Rates drawn apart from the densities, as in a market.
        problem = draw_random_problem(
            np.random.default_rng(1), sizes=(41, 42), orders=(LoadingOrder.reverse(),)
        )
        assert problem.n == 41
        systems, _, bounds = _counted(kkt_enumeration.binding_optimum, problem)
        reference = _counted(_unpruned, problem)[0]
        assert bounds == 1
        assert systems < reference / 2, (systems, reference)

    def test_one_batch_builds_no_table(self):
        problem = large_reverse_stack(12)
        systems, _, bounds = _counted(kkt_enumeration.binding_optimum, problem)
        # 12 + 66 + 220 supports, within one batch.
        assert bounds == 0 and systems == _counted(_unpruned, problem)[0]

    @pytest.mark.parametrize("seed", [0, 9])
    def test_stable_mass_cut_on_a_reverse_stack_of_41(self, seed):
        # 41 cargoes and the ballast, whose two-cap LP bounds alone left
        # 25 622 and 25 150 of their systems to solve.
        problem = draw_random_problem(
            np.random.default_rng(seed), sizes=(41, 42), orders=(LoadingOrder.reverse(),)
        )
        systems, _, _ = _counted(kkt_enumeration.binding_optimum, problem)
        assert systems < 5000, systems
        bounded, reason = _assert_unchanged_by_the_prune(problem)
        assert bounded and reason is None

    @pytest.mark.parametrize("seed", [0, None])
    def test_ties_go_to_the_earliest_support_in_any_batch_order(self, seed):
        # Revenues floored to quarters tie across many supports, and the
        # supports go to the batches in a random order, so that an earlier
        # support that ties with the winner of a batch often comes later.
        if seed is None:
            problem = large_reverse_stack(41)
        else:
            problem = draw_random_problem(
                np.random.default_rng(seed), sizes=(41, 42), orders=(LoadingOrder.reverse(),)
            )
        batch_rows = kkt_enumeration._batch_rows

        def floored(*args):
            rows = batch_rows(*args)
            return rows._replace(value=np.floor(rows.value * 4.0) / 4.0)

        def shuffled(count, bounds, floor):
            order = np.random.default_rng(3).permutation(count)
            for start in range(0, count, kkt_enumeration.CHUNK):
                yield np.sort(order[start : start + kkt_enumeration.CHUNK])

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kkt_enumeration, "_batch_rows", floored)
            reference = _unpruned(problem)
            patch.setattr(kkt_enumeration, "_batches", shuffled)
            value, x, multipliers, reason = kkt_enumeration.binding_optimum(problem)
        assert (value, multipliers, reason) == (reference[0], reference[2], reference[3])
        assert x.tobytes() == reference[1].tobytes()

    def test_bound_covers_every_candidate_of_its_support(self):
        """A support's stable-mass bound is at least each candidate that passes the batch checks."""
        rng = np.random.default_rng(5)
        orders = (LoadingOrder.normal(), LoadingOrder.reverse(), "explicit")
        candidates = 0
        for draw in range(200):
            room = (0.3, 0.8) if draw % 2 else (0.5, 2.0)
            problem = draw_random_problem(rng, sizes=(2, 9), orders=orders, room=room)
            units = kkt_enumeration.scaled_units(problem)
            diagonal = problem.classification.evidence.diagonal / units.a
            kept, merged = kkt_enumeration._merge_twins(diagonal, problem.objective)
            largest, full_needs_volume = kkt_enumeration._support_rule(merged)
            slots, _ = kkt_enumeration._supports(kept, largest, problem.n)
            batch = kkt_enumeration._batch(slots, problem.n, full_needs_volume)
            rows = kkt_enumeration._batch_rows(units, batch)
            # The support of each system, slot-major, and where each slot
            # starts to hold a real cargo: the systems keep the supports' order.
            supports = np.ascontiguousarray(rows.support.T)
            sizes = (supports < problem.n).sum(axis=0)
            starts = np.searchsorted(sizes, np.arange(1, largest + 1)).tolist()
            mass = kkt_enumeration._mass_bounds(units, supports, starts)
            # The best candidate of each system, -inf where none passes.
            best = rows.value.max(axis=0)
            assert (best <= mass).all()
            candidates += int(np.isfinite(best).sum())
        assert candidates >= 1000, candidates

    def test_least_diagonal_cut_is_below_the_step_cut(self):
        """The stable-mass bound with alpha_S the least generator entry along S is never
        above the one with alpha_S the first step plus the negative later steps, and is
        below it on supports whose generator rises and later falls."""
        rng = np.random.default_rng(5)
        orders = (LoadingOrder.normal(), LoadingOrder.reverse(), "explicit")
        supports = below = 0
        for draw in range(200):
            room = (0.3, 0.8) if draw % 2 else (0.5, 2.0)
            problem = draw_random_problem(rng, sizes=(2, 9), orders=orders, room=room)
            units = kkt_enumeration.scaled_units(problem)
            diagonal = problem.classification.evidence.diagonal / units.a
            kept, merged = kkt_enumeration._merge_twins(diagonal, problem.objective)
            largest, _ = kkt_enumeration._support_rule(merged)
            slots, starts = kkt_enumeration._supports(kept, largest, problem.n)
            mass = kkt_enumeration._mass_bounds(units, slots, starts)
            # The step alpha_S, summed slot by slot over the real cargoes.
            cargo = slots.astype(np.intp)
            g = units.generator[cargo]
            alpha = g[0].copy()
            for j in range(1, largest):
                step = np.minimum(g[j] - g[j - 1], 0.0)
                alpha += np.where(cargo[j] < problem.n, step, 0.0)
            relax = solver.MARGIN * (
                max(1.0, abs(units.r)) + units.qa * largest * largest + abs(units.qb)
            )
            reference, _ = solver.stable_mass_room(
                units.qa * alpha, units.qb, -units.r - relax, 1.0 + solver.MARGIN, 1.0
            )
            reference *= units.p[cargo].max(axis=0)
            # The two alphas agree up to rounding where the generator never
            # falls after a rise along S; scaled bounds are at most 1 + MARGIN.
            assert (mass <= reference + 1e-12).all()
            supports += mass.size
            below += int(np.count_nonzero(mass < reference - 1e-9))
        assert supports >= 10_000, (supports, below)
        assert below >= 1000, (supports, below)


def _chains(units, supports, n):
    """Per support, a row of cargo indices with n in its free slots: whether, read bottom up,
    the slopes (p_b - p_a) / (g_b - g_a) between its consecutive cargoes never rise, on the
    scaled rates and generator.

    A support of one or two cargoes always is a chain; in a longer one a
    slope between equal generator entries fails.
    """
    cargo = supports.astype(np.intp)
    with np.errstate(divide="ignore", invalid="ignore"):
        slopes = np.diff(units.p[cargo], axis=1) / np.diff(units.generator[cargo], axis=1)
        below, above = slopes[:, :-1], slopes[:, 1:]
        rises = ~(np.isfinite(below) & np.isfinite(above) & (above <= below))
    return ~(rises & (supports[:, 2:] < n)).any(axis=1)


def _without_chains(units, kept):
    """``_slopes`` with every slope 0: every support passes the child test."""
    return np.zeros((len(kept), len(kept)))


def _solved(problem):
    """(the supports that the unpruned ``binding_optimum`` solves, each as a row of cargo
    indices, and whether each holds a candidate with t > 0 that passes the batch checks)."""
    rows = []
    batch_rows = kkt_enumeration._batch_rows

    def recorded(units, batch):
        rows.append(batch_rows(units, batch))
        return rows[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kkt_enumeration, "_batch_rows", recorded)
        _unpruned(problem)
    # One batch, whose systems run support by support.
    (rows,) = rows
    first = np.flatnonzero(np.r_[True, (rows.support[1:] != rows.support[:-1]).any(axis=1)])
    found = np.logical_or.reduceat((np.isfinite(rows.value) & (rows.t > 0.0)).any(axis=0), first)
    return rows.support[first], found


class TestChains:
    """Only chains hold a candidate with t > 0, so a multi-batch enumeration grows only them."""

    def test_candidates_lie_on_chains_and_answers_hold(self):
        rng = np.random.default_rng(32)
        orders = (LoadingOrder.normal(), LoadingOrder.reverse(), "explicit")
        draws = checked = grown = held = ballast = apart = 0
        while checked < 300:
            draws += 1
            # In every order, every third draw gives one cargo the density of
            # another, or of water.
            problem = draw_random_problem(
                rng, sizes=(2, 22), orders=(orders[draws % 3],), room=(0.3, 2.0),
                degenerate=draws // 3 % 3 == 1,
            )
            if problem.classification.kind is Definiteness.POSITIVE_SEMIDEFINITE:
                continue
            units = kkt_enumeration.scaled_units(problem)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(kkt_enumeration, "_slopes", _without_chains)
                everything, found = _solved(problem)
                value, _, _, reason = kkt_enumeration.binding_optimum(problem)
                reference = solver.solve(problem)
            chains = _chains(units, everything, problem.n)
            assert chains[found].all(), (draws, everything[found & ~chains])
            held += int(np.count_nonzero(found & (everything[:, 2:] < problem.n).any(axis=1)))

            # With the rule a multi-batch enumeration solves the chains alone,
            # and one batch every support.
            solved = _solved(problem)[0]
            if solved.shape != everything.shape:
                np.testing.assert_array_equal(solved, everything[chains], err_msg=str(draws))
                grown += 1
            else:
                np.testing.assert_array_equal(solved, everything, err_msg=str(draws))

            answer = kkt_enumeration.binding_optimum(problem)
            assert answer[3] == reason
            assert abs(answer[0] - value) <= 1e-13 * abs(value), (draws, answer[0], value)
            solution = solver.solve(problem)
            assert solution.revenue == reference.revenue and solution.status == reference.status
            assert solution.x.tobytes() == reference.x.tobytes()
            assert solution.kkt.satisfied == reference.kkt.satisfied

            checked += 1
            ballast += BALLAST_LABEL in problem.labels
            d = problem.densities
            apart += any(d[i] == d[j] for i in range(d.size) for j in range(i + 2, d.size))
        assert grown >= 100 and held >= 1000, (grown, held)
        assert ballast >= 100 and apart >= 10, (ballast, apart)


class TestMemory:
    """The enumeration holds one float bound and a few small integers per support."""

    # tracemalloc peaks, in MiB, of the enumeration whose supports came from
    # itertools in batches (NumPy 2.4, Python 3.11).
    @pytest.mark.parametrize("name, before", [("large reverse stack", 1.386), ("rng 0", 1.849)])
    def test_peak_of_a_stack_of_41(self, name, before):
        if name == "rng 0":
            problem = draw_random_problem(
                np.random.default_rng(0), sizes=(41, 42), orders=(LoadingOrder.reverse(),)
            )
        else:
            problem = large_reverse_stack(41)
        # Caches fill on the first call.
        kkt_enumeration.binding_optimum(problem)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            kkt_enumeration.binding_optimum(problem)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak <= 1.1 * before * 2**20, peak / 2**20
