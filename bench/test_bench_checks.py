"""The benchmark's output checks reject corrupted outputs.

Each test takes a real answer of the program, shows that the check
accepts it, corrupts it the way a broken program could, and shows that
the check rejects it.  Run from a checkout root:

    python3 -m pytest -q bench
"""

import dataclasses
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[0:0] = [str(HERE), str(HERE.parent / "src")]

import json  # noqa: E402

import pytest  # noqa: E402
import shipload  # noqa: E402
from scipy.optimize import linprog  # noqa: E402
from shipload.cli import main as cli_main  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import ops  # noqa: E402
from checks import CheckFailure  # noqa: E402


def solved(inst):
    problem = shipload.assemble_problem(*ops.program_inputs(shipload, inst))
    return problem, shipload.solve(problem)


def row(order, mu):
    return inputs.scenario_instance("clarkson3500.json", order, mu)


@pytest.fixture(scope="module")
def normal4():
    inst = row("normal", 4.0)
    problem, solution = solved(inst)
    return inst, list(problem.labels), [float(v) for v in solution.x], float(solution.revenue)


def cli_report(*argv):
    from contextlib import redirect_stderr, redirect_stdout
    import io

    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli_main([*argv, "--format", "json"])
    return code, json.loads(out.getvalue())


class TestPlanChecks:
    def test_program_plans_pass(self, normal4):
        inst, labels, loads, revenue = normal4
        checks.check_plan(inst, labels, loads, revenue, checks.lp_bound(inst))

    def test_loads_scaled_up_one_percent(self, normal4):
        inst, labels, loads, revenue = normal4
        scaled = [1.01 * x for x in loads]
        with pytest.raises(CheckFailure, match="over the cap"):
            checks.check_plan(inst, labels, scaled, 1.01 * revenue, checks.lp_bound(inst))

    def test_loads_scaled_up_where_only_stability_binds(self):
        inst = row("reverse", 6.0)  # one cargo type, deadweight and volume slack
        problem, solution = solved(inst)
        loads = [float(v) for v in solution.x]
        checks.check_feasible(inst, loads)
        with pytest.raises(CheckFailure, match="GM"):
            checks.check_feasible(inst, [1.01 * x for x in loads])

    def test_gm_below_mu(self, normal4):
        inst, _, loads, _ = normal4
        # Move 1% of the bottom layer's mass to the top: same total mass,
        # a higher center of mass.
        moved = list(loads)
        bottom = next(i for i, x in enumerate(moved) if x > 1.0)
        shift = 0.01 * moved[bottom]
        moved[bottom] -= shift
        moved[-1] += shift
        assert math.fsum(moved) == pytest.approx(math.fsum(loads))
        with pytest.raises(CheckFailure, match="GM"):
            checks.check_feasible(inst, moved)

    def test_revenue_above_lp_bound(self, normal4):
        inst = normal4[0]
        bound = checks.lp_bound(inst)
        lp = shipload.solve_lp(shipload.assemble_problem(*ops.program_inputs(shipload, inst)))
        over = [1.01 * float(v) for v in lp.x]
        with pytest.raises(CheckFailure, match="LP bound"):
            checks.check_revenue(inst, over, checks.plan_revenue(inst, over), bound)

    def test_reported_revenue_is_p_dot_x(self, normal4):
        inst, labels, loads, revenue = normal4
        with pytest.raises(CheckFailure, match="p.x"):
            checks.check_plan(inst, labels, loads, revenue + 1.0, checks.lp_bound(inst))

    def test_wrong_stack_order(self, normal4):
        inst, labels, loads, revenue = normal4
        with pytest.raises(CheckFailure, match="stack"):
            checks.check_plan(inst, labels[::-1], loads[::-1], revenue, checks.lp_bound(inst))

    def test_reported_gm(self, normal4):
        inst, _, loads, _ = normal4
        gm = checks.metacentric_height(inst, loads)
        checks.check_gm_report(inst, loads, gm)
        with pytest.raises(CheckFailure, match="GM"):
            checks.check_gm_report(inst, loads, gm + 1e-3)


class TestIndependentFormulas:
    @pytest.mark.parametrize("workload", ["market", "certify"])
    def test_stack_order_and_gm_match_the_program(self, workload):
        for op in ops.workload_ops(workload, 0):
            inst = op.instance
            problem = shipload.assemble_problem(*ops.program_inputs(shipload, inst))
            assert list(problem.labels) == [label for label, _, _ in checks.stack(inst)]
            loads = [0.5 * inst.vessel[2] / inst.size] * inst.size
            assert checks.metacentric_height(inst, loads) == pytest.approx(
                shipload.metacentric_height(problem, loads), rel=1e-9, abs=1e-9
            )

    @pytest.mark.parametrize("seed", [0, 1])
    def test_lp_bound_matches_linprog(self, seed):
        for op in ops.workload_ops("market", seed):
            inst = op.instance
            cargoes = checks.stack(inst)
            result = linprog(
                [-p for _, _, p in cargoes],
                A_ub=[[1.0] * len(cargoes), [1.0 / d for _, d, _ in cargoes]],
                b_ub=[inst.vessel[2], inst.vessel[3]],
                bounds=[(0.0, None)] * len(cargoes),
                method="highs",
            )
            assert checks.lp_bound(inst) == pytest.approx(-result.fun, rel=1e-9)

    def test_lattice_size_is_the_program_count_without_pruning(self):
        inst = inputs.scenario_instance("coastal_feeder.json", "normal")
        vessel = list(inst.vessel)
        vessel[3] = 1e9  # no volume pruning
        # mu = 0 makes the linear stability term negative: no stability pruning.
        open_hold = dataclasses.replace(inst, vessel=tuple(vessel), mu=0.0)
        problem = shipload.assemble_problem(*ops.program_inputs(shipload, open_hold))
        _, _, points = shipload.grid_search(problem, shipload.LatticeSpec(150.0))
        assert not checks.stability_prunable(open_hold)
        assert points == checks.lattice_points(open_hold, 150.0)


class TestMethodChecks:
    def test_status_by_class(self):
        convex, nonconvex = row("normal", 4.0), row("reverse", 4.0)
        checks.check_status(convex, "Optimal", True)
        checks.check_status(nonconvex, "LocalOnly", True)
        with pytest.raises(CheckFailure, match="status"):
            checks.check_status(convex, "LocalOnly", True)
        with pytest.raises(CheckFailure, match="status"):
            checks.check_status(nonconvex, "Optimal", True)
        with pytest.raises(CheckFailure, match="KKT"):
            checks.check_status(convex, "Optimal", False)

    @pytest.mark.parametrize("order,mu", sorted(inputs.PAPER_REVENUES))
    def test_paper_revenues(self, order, mu):
        inst = row(order, mu)
        _, solution = solved(inst)
        checks.check_paper(inst, solution.revenue)
        with pytest.raises(CheckFailure, match="published"):
            checks.check_paper(inst, solution.revenue - 0.1)

    def test_certificate(self):
        checks.check_certificate(row("normal", 4.0), True)
        with pytest.raises(CheckFailure, match="certify"):
            checks.check_certificate(row("normal", 4.0), False)
        with pytest.raises(CheckFailure, match="certify"):
            checks.check_certificate(row("reverse", 4.0), False)

    def test_lattice_best_point(self):
        inst = inputs.scenario_instance("clarkson3500.json", "reverse", 4.0, ballast=False)
        problem = shipload.assemble_problem(*ops.program_inputs(shipload, inst))
        best_x, best_revenue, _ = shipload.grid_search(problem, shipload.LatticeSpec(2000.0))
        loads = [float(v) for v in best_x]
        bound = checks.lp_bound(inst)
        checks.check_lattice_best(inst, loads, best_revenue, bound)
        with pytest.raises(CheckFailure):
            checks.check_lattice_best(inst, [1.05 * x for x in loads], 1.05 * best_revenue, bound)


class TestCliChecks:
    @pytest.mark.parametrize("order", ["normal", "reverse"])
    def test_classify_report(self, order):
        inst = inputs.scenario_instance("clarkson3500.json", order)
        code, report = cli_report("classify", "clarkson3500.json", "--order", order)
        checks.check_cli("classify", inst, code, report, checks.lp_bound(inst))
        wrong = dict(report, definiteness="NegativeSemidefinite")
        with pytest.raises(CheckFailure, match="definiteness"):
            checks.check_classify(inst, wrong)
        diagonal = list(report["congruent_diagonal"])
        diagonal[1] *= 1.0 + 1e-6
        with pytest.raises(CheckFailure, match="diagonal"):
            checks.check_classify(inst, dict(report, congruent_diagonal=diagonal))

    def test_exit_codes(self):
        inst = inputs.scenario_instance("clarkson3500.json", "reverse")
        code, report = cli_report("solve", "clarkson3500.json", "--order", "reverse")
        assert code == 2
        checks.check_cli("solve", inst, code, report, checks.lp_bound(inst))
        with pytest.raises(CheckFailure, match="exit code"):
            checks.check_cli("solve", inst, 0, report, checks.lp_bound(inst))

    def test_oracle_exit_code_follows_certificate(self):
        report = {"status": "LocalOnly", "certification": {"certified": True}}
        assert checks.expected_exit_code("oracle", report) == 0
        report["certification"]["certified"] = False
        assert checks.expected_exit_code("oracle", report) == 2
        assert checks.expected_exit_code("oracle", {"status": "Infeasible"}) == 3
        assert checks.expected_exit_code(
            "sensitivity", {"status": "Optimal", "perturbed_status": "LocalOnly"}
        ) == 2

    def test_lp_report_is_the_vertex_bound(self):
        inst = inputs.scenario_instance("coastal_feeder.json", "normal")
        code, report = cli_report("lp", "coastal_feeder.json")
        checks.check_cli("lp", inst, code, report, checks.lp_bound(inst))
        largest = max(report["loads"], key=lambda entry: entry["load"])
        largest["load"] *= 0.99
        report["revenue"] = checks.plan_revenue(inst, [e["load"] for e in report["loads"]])
        with pytest.raises(CheckFailure, match="vertex bound"):
            checks.check_cli("lp", inst, code, report, checks.lp_bound(inst))


class TestInputs:
    def test_same_seed_same_inputs(self):
        assert inputs.market_instances(3) == inputs.market_instances(3)
        assert inputs.certify_instances(3) == inputs.certify_instances(3)
        assert inputs.cli_invocations(3) == inputs.cli_invocations(3)

    def test_seed_moves_every_random_instance_but_not_the_mix(self):
        a, b = inputs.market_instances(1), inputs.market_instances(2)
        assert [x.size for x in a] == [y.size for y in b]
        assert [checks.is_convex(x) for x in a] == [checks.is_convex(y) for y in b]
        assert all(x != y for x, y in zip(a[5:], b[5:]))

    def test_certify_lattices_are_large_enough(self):
        for inst in inputs.certify_instances(0):
            assert 5e5 <= checks.lattice_points(inst, inst.step) <= 1e7
