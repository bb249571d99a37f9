"""Scenario parsing, report rendering, and command exit codes."""

import json
import logging
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import shipload
from shipload import (
    Environment,
    LatticeSpec,
    LoadingOrder,
    StabilityPolicy,
    assemble_problem,
    grid_search,
    oracle,
)
from shipload.cli import (
    Scenario,
    ScenarioError,
    bundled_scenario_names,
    load_bundled_scenario,
    main,
    parse_scenario,
    scenario_to_json,
)

from conftest import local_trap, package_env, refuse_search


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(text):
    rows = {}
    for line in text.splitlines()[1:]:
        key, _, value = line.partition(",")
        rows[key] = value.strip('"')
    return rows


def table_scalars(text):
    entries = {}
    for line in text.splitlines():
        if not line or line.startswith(" "):
            continue
        parts = line.split(maxsplit=1)
        if len(parts) == 2:
            entries[parts[0]] = parts[1]
    return entries


class TestParseScenario:
    def test_bundled_case_study(self):
        scenario = load_bundled_scenario("clarkson3500.json")
        assert scenario.vessel.beam == 25.0
        assert len(scenario.cargoes) == 4
        assert scenario.include_ballast is True
        assert scenario.mu == 4.0
        assert scenario.water_density == 1.0
        assert scenario.order == LoadingOrder.normal()

    def test_bundled_names(self):
        assert bundled_scenario_names() == ["clarkson3500.json", "coastal_feeder.json"]

    def test_missing_vessel_field(self):
        doc = json.loads(scenario_to_json(load_bundled_scenario("clarkson3500.json")))
        del doc["vessel"]["beam"]
        with pytest.raises(ScenarioError, match="beam"):
            parse_scenario(json.dumps(doc))

    def test_zero_density_cites_positivity(self):
        doc = json.loads(scenario_to_json(load_bundled_scenario("clarkson3500.json")))
        doc["cargoes"][0]["density"] = 0.0
        with pytest.raises(ScenarioError, match=r"cargoes\[0\].*positive"):
            parse_scenario(json.dumps(doc))

    def test_unknown_field_with_location(self):
        with pytest.raises(ScenarioError, match="vessel.beem"):
            parse_scenario('{"vessel": {"beem": 3}, "cargoes": []}')

    def test_syntax_error_reports_position(self):
        with pytest.raises(ScenarioError, match="line 1 column"):
            parse_scenario('{"vessel": }')

    def test_defaults_applied(self):
        text = json.dumps(
            {
                "vessel": {
                    "length": 80.0,
                    "beam": 14.0,
                    "deadweight": 3000.0,
                    "volume_capacity": 4500.0,
                    "light_mass": 1200.0,
                    "light_kg": 1.5,
                },
                "cargoes": [{"label": "grain", "density": 0.75, "freight_rate": 12.0}],
            }
        )
        scenario = parse_scenario(text)
        assert scenario.water_density == 1.0
        assert scenario.include_ballast is True
        assert scenario.order == LoadingOrder.normal()
        assert scenario.mu is None

    def test_explicit_order_array(self):
        doc = json.loads(scenario_to_json(load_bundled_scenario("clarkson3500.json")))
        doc["order"] = [2, 1, 3, 4]
        scenario = parse_scenario(json.dumps(doc))
        assert scenario.order == LoadingOrder.explicit([1, 0, 2, 3])

    def test_order_length_mismatch(self):
        doc = json.loads(scenario_to_json(load_bundled_scenario("clarkson3500.json")))
        doc["order"] = [1, 2]
        with pytest.raises(ScenarioError, match="4 cargo types"):
            parse_scenario(json.dumps(doc))

    def test_solver_section_rejected(self, capsys, tmp_path):
        # The tolerances are fixed, and the dispatch and multistart settings are gone.
        doc = json.loads(scenario_to_json(load_bundled_scenario("clarkson3500.json")))
        assert "solver" not in doc
        doc["solver"] = {
            "feasibility_tolerance": 1e-8,
            "kkt_tolerance": 1e-6,
            "convexity_dispatch": True,
            "multistart_count": 8,
            "rng_seed": 8,
            "max_iterations": 8,
        }
        with pytest.raises(ScenarioError, match="^unknown field 'solver'$"):
            parse_scenario(json.dumps(doc))
        path = tmp_path / "tuned.json"
        path.write_text(json.dumps(doc))
        assert run_cli(capsys, "solve", str(path)) == (1, "", "error: unknown field 'solver'\n")

    def test_removed_convexity_dispatch_field_rejected(self):
        doc = json.loads(scenario_to_json(load_bundled_scenario("clarkson3500.json")))
        doc["solver"] = {"convexity_dispatch": True}
        with pytest.raises(ScenarioError, match="^unknown field 'solver'$"):
            parse_scenario(json.dumps(doc))

    @pytest.mark.parametrize("name", ["multistart_count", "rng_seed", "max_iterations"])
    def test_removed_multistart_fields_rejected(self, name):
        doc = json.loads(scenario_to_json(load_bundled_scenario("clarkson3500.json")))
        doc["solver"] = {name: 8}
        with pytest.raises(ScenarioError, match="^unknown field 'solver'$"):
            parse_scenario(json.dumps(doc))

    def test_round_trip_bundled(self):
        for name in bundled_scenario_names():
            scenario = load_bundled_scenario(name)
            assert parse_scenario(scenario_to_json(scenario)) == scenario

    @pytest.mark.parametrize(
        "path",
        [
            *(("vessel", name) for name in (
                "length", "beam", "deadweight", "volume_capacity", "light_mass", "light_kg",
            )),
            ("cargoes", 0, "density"),
            ("cargoes", 0, "freight_rate"),
            ("water_density",),
            ("mu",),
        ],
        ids=lambda path: ".".join(map(str, path)),
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_number_rejected(self, path, value):
        doc = json.loads(scenario_to_json(load_bundled_scenario("clarkson3500.json")))
        *parents, key = path
        target = doc
        for part in parents:
            target = target[part]
        target[key] = value
        location = ".*".join(re.escape(str(part)) for part in path)
        with pytest.raises(ScenarioError, match=location):
            parse_scenario(json.dumps(doc))

    def test_round_trip_variants(self):
        base = load_bundled_scenario("clarkson3500.json")
        import dataclasses

        variants = [
            dataclasses.replace(base, mu=None),
            dataclasses.replace(base, order=LoadingOrder.reverse()),
            dataclasses.replace(base, order=LoadingOrder.explicit([3, 1, 0, 2])),
            dataclasses.replace(base, include_ballast=False),
        ]
        for scenario in variants:
            assert parse_scenario(scenario_to_json(scenario)) == scenario


class TestSolveCommand:
    def test_table_row_matches_case1(self, capsys):
        code, out, err = run_cli(
            capsys, "solve", "clarkson3500.json", "--mu", "4", "--format", "csv"
        )
        assert code == 0
        rows = csv_rows(out)
        assert float(rows["revenue"]) == pytest.approx(234461.89, rel=1e-6)
        assert float(rows["total_load"]) == pytest.approx(45000.0, rel=1e-6)
        assert float(rows["volume_used"]) == pytest.approx(86690.0, rel=1e-3)
        assert rows["status"] == "Optimal"
        assert rows["binding.deadweight"] == "true"
        assert rows["binding.stability"] == "true"
        assert rows["binding.volume"] == "false"
        assert float(rows["multipliers.stability"]) == pytest.approx(0.164, rel=0.1)
        assert "solving" in err

    def test_results_go_to_stdout_errors_to_stderr(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "solve", str(tmp_path / "missing.json"))
        assert code == 1
        assert out == ""
        assert "error" in err

    def test_mu_required_when_absent(self, capsys, tmp_path):
        doc = json.loads(scenario_to_json(load_bundled_scenario("clarkson3500.json")))
        del doc["mu"]
        path = tmp_path / "nomu.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "solve", str(path))
        assert code == 1
        assert "stability margin" in err

    def test_no_ballast_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "clarkson3500.json", "--no-ballast", "--format", "csv"
        )
        assert code == 0
        rows = csv_rows(out)
        assert "loads[3].load" in rows
        assert "loads[4].load" not in rows

    def test_kilotons_scaling(self, capsys):
        _, plain, _ = run_cli(capsys, "solve", "clarkson3500.json", "--format", "csv")
        _, scaled, _ = run_cli(
            capsys, "solve", "clarkson3500.json", "--kilotons", "--format", "csv"
        )
        a, b = csv_rows(plain), csv_rows(scaled)
        assert float(b["total_load"]) == pytest.approx(float(a["total_load"]) / 1000.0)
        assert b["mass_unit"] == "kt"

    def test_kilotons_leaves_a_report_without_masses_alone(self, capsys):
        # classify reports densities and a diagonal, no mass to relabel.
        _, plain, _ = run_cli(capsys, "classify", "coastal_feeder.json", "--format", "json")
        _, scaled, _ = run_cli(
            capsys, "classify", "coastal_feeder.json", "--format", "json", "--kilotons"
        )
        assert "mass_unit" not in json.loads(plain)
        assert json.loads(scaled) == json.loads(plain)

    def test_explicit_order_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "clarkson3500.json", "--order", "perm=4,3,2,1", "--format", "csv"
        )
        assert code in (0, 2)
        rows = csv_rows(out)
        assert rows["loads[0].label"] == "ballast"
        assert rows["loads[1].label"] == "type4"


class TestClassifyCommand:
    def test_reverse_golden_diagonal(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify", "clarkson3500.json", "--order", "reverse", "--format", "csv"
        )
        assert code == 0
        rows = csv_rows(out)
        assert rows["definiteness"] == "Indefinite"
        head = [float(rows[f"congruent_diagonal[{i}]"]) for i in range(4)]
        assert np.allclose(head, [1.2222, -0.2222, -0.3333, -0.4167], atol=5e-5)

    def test_normal_is_psd(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "clarkson3500.json", "--format", "csv")
        assert code == 0
        assert csv_rows(out)["definiteness"] == "PositiveSemidefinite"


class TestSensitivityCommand:
    def test_golden_numbers(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sensitivity",
            "clarkson3500.json",
            "--mu",
            "4",
            "--delta",
            "0.1",
            "--format",
            "csv",
        )
        assert code == 0
        rows = csv_rows(out)
        assert float(rows["predicted_drop"]) == pytest.approx(984.0, rel=0.01)
        assert float(rows["actual_drop"]) == pytest.approx(1001.0, rel=0.02)
        assert float(rows["relative_gap"]) < 0.05


class TestLpCommand:
    def test_lp_baseline(self, capsys):
        code, out, _ = run_cli(capsys, "lp", "clarkson3500.json", "--format", "csv")
        assert code == 0
        rows = csv_rows(out)
        assert float(rows["revenue"]) == pytest.approx(247500.0, rel=1e-9)
        assert rows["stability_satisfied_at_vertex"] == "false"


# The bundled scenarios with the margins their oracle rows run at; None
# keeps the scenario's own.
BUNDLED_MARGINS = [
    ("coastal_feeder.json", None),
    ("clarkson3500.json", 4.0),
    ("clarkson3500.json", 6.0),
]


class TestOracleCommand:
    def test_certified_run(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle", "coastal_feeder.json", "--step", "50", "--format", "csv"
        )
        assert code == 0
        rows = csv_rows(out)
        assert rows["certification.certified"] == "true"
        # The root bound decides: no lattice point is searched or reported.
        assert rows["certification.lattice_revenue"] == ""
        assert rows["certification.points_evaluated"] == "0"

    def test_uncertified_local_trap(self, capsys, monkeypatch):
        # solve starts at the enumerated optimum, so the command is handed the trap.
        monkeypatch.setattr(shipload.cli, "solve", local_trap)
        code, out, _ = run_cli(
            capsys,
            "oracle",
            "clarkson3500.json",
            "--order",
            "reverse",
            "--no-ballast",
            "--step",
            "500",
            "--format",
            "csv",
        )
        assert code == 2
        rows = csv_rows(out)
        assert rows["certification.certified"] == "false"
        assert float(rows["revenue"]) == pytest.approx(197165.94, rel=1e-6)

    def test_default_step_certifies_the_case_study(self, capsys):
        # The step-250 lattice of the n = 5 case study holds about 1.7e9
        # points.  No point beats the plan's 226 331.04, and the search
        # bounded by it prunes every subtree before its last coordinate.
        code, out, _ = run_cli(
            capsys, "oracle", "clarkson3500.json", "--mu", "4", "--order", "reverse",
            "--format", "json",
        )
        assert code == 0
        certification = json.loads(out)["certification"]
        assert certification["step"] == 250.0
        assert certification["certified"] is True
        assert certification["lattice_revenue"] is None
        assert certification["points_evaluated"] == 0

    @pytest.mark.parametrize("step", [250.0, 2000.0])
    @pytest.mark.parametrize("order", ["normal", "reverse"])
    @pytest.mark.parametrize(
        "name, mu", BUNDLED_MARGINS, ids=["coastal", "clarkson-mu4", "clarkson-mu6"]
    )
    def test_verdict_is_the_rule_on_the_exhaustive_search(self, capsys, name, mu, order, step):
        flags = ["--mu", str(mu)] if mu else []
        code, out, _ = run_cli(
            capsys, "oracle", name, *flags, "--order", order, "--step", str(step),
            "--format", "json",
        )
        report = json.loads(out)
        scenario = load_bundled_scenario(name)
        problem = assemble_problem(
            scenario.vessel, Environment(scenario.water_density),
            StabilityPolicy(mu or scenario.mu), scenario.cargoes,
            LoadingOrder.reverse() if order == "reverse" else LoadingOrder.normal(),
            scenario.include_ballast,
        )
        best_revenue = grid_search(problem, LatticeSpec(step))[1]
        expected = oracle._certifies(report["revenue"], best_revenue)
        assert report["certification"]["certified"] is expected
        assert code == (0 if expected else 2)
        if best_revenue <= report["revenue"]:
            assert report["certification"]["lattice_revenue"] is None

    @pytest.mark.parametrize(
        "name, mu", BUNDLED_MARGINS, ids=["coastal", "clarkson-mu4", "clarkson-mu6"]
    )
    def test_convex_rows_certify_without_a_search(self, capsys, monkeypatch, name, mu):
        monkeypatch.setattr(oracle, "grid_search", refuse_search)
        flags = ["--mu", str(mu)] if mu else []
        code, out, _ = run_cli(capsys, "oracle", name, *flags, "--format", "json")
        report = json.loads(out)
        assert report["definiteness"] == "PositiveSemidefinite"
        assert code == 0
        assert report["certification"] == {
            "step": 250.0, "lattice_revenue": None, "points_evaluated": 0, "certified": True
        }

    @pytest.mark.parametrize("step", ["1e-9", "5e-324"])
    def test_fine_step_refused(self, capsys, step):
        # The row reaches the search; a step this fine once crashed there.
        code, out, err = run_cli(
            capsys, "oracle", "clarkson3500.json", "--mu", "4", "--order", "reverse",
            "--step", step,
        )
        assert code == 1
        assert out == ""
        assert f"error: a step of {float(step)} t gives more than 100000000 lattice levels" in err

    def test_row_cap_stops_the_search(self, capsys):
        code, out, err = run_cli(
            capsys, "oracle", "clarkson3500.json", "--mu", "4", "--order", "reverse",
            "--max-points", "1000",
        )
        assert code == 1
        assert out == ""
        assert "the search built more than 1000 lattice rows" in err

    def test_infinite_step_refused(self, capsys):
        # An infinite step used to empty the lattice and certify any plan.
        code, out, err = run_cli(
            capsys, "oracle", "clarkson3500.json", "--mu", "4", "--order", "reverse",
            "--step", "inf", "--format", "json",
        )
        assert code == 1
        assert out == ""
        assert "step must be positive and finite" in err


class TestFormats:
    def test_json_output_parses(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "clarkson3500.json", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["command"] == "solve"
        assert report["status"] == "Optimal"
        assert len(report["loads"]) == 5

    def test_csv_and_table_agree_to_four_digits(self, capsys):
        _, csv_text, _ = run_cli(capsys, "solve", "clarkson3500.json", "--format", "csv")
        _, table_text, _ = run_cli(capsys, "solve", "clarkson3500.json", "--format", "table")
        rows = csv_rows(csv_text)
        scalars = table_scalars(table_text)
        compared = 0
        for key, value in rows.items():
            if key.startswith("loads["):
                continue
            try:
                expected = float(value)
            except ValueError:
                continue
            shown = float(scalars[key])
            assert shown == pytest.approx(expected, rel=5.1e-4, abs=5e-10), key
            compared += 1
        assert compared >= 15

    def test_table_load_grid_matches_csv(self, capsys):
        _, csv_text, _ = run_cli(capsys, "solve", "clarkson3500.json", "--format", "csv")
        _, table_text, _ = run_cli(capsys, "solve", "clarkson3500.json", "--format", "table")
        rows = csv_rows(csv_text)
        lines = iter(table_text.splitlines())
        grid = {}
        for line in lines:
            if line.lstrip().startswith("pos"):
                for row in lines:
                    if not row.strip():
                        break
                    cells = row.split()
                    grid[cells[1]] = float(cells[4])
        for i in range(5):
            label = rows[f"loads[{i}].label"]
            expected = float(rows[f"loads[{i}].load"])
            assert grid[label] == pytest.approx(expected, rel=5.1e-4, abs=5e-10)


class TestClassifyOnce:
    """A command that builds one problem computes its congruent diagonal once."""

    @pytest.mark.parametrize(
        "args", [["solve"], ["oracle", "--step", "50"], ["classify"]], ids=lambda a: a[0]
    )
    def test_one_congruence_per_command(self, capsys, monkeypatch, args):
        calls = []
        original = shipload.quadratic_analysis.congruence_diagonal

        def counting(m):
            calls.append(m)
            return original(m)

        monkeypatch.setattr(shipload.quadratic_analysis, "congruence_diagonal", counting)
        code, _, _ = run_cli(capsys, args[0], "coastal_feeder.json", *args[1:])
        assert code == 0
        assert len(calls) == 1


class TestExitCodes:
    def test_input_error_codes(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"vessel": {"beem": 3}}')
        assert run_cli(capsys, "solve", str(bad))[0] == 1
        assert run_cli(capsys, "solve", "clarkson3500.json", "--order", "sideways")[0] == 1
        # The multistart's flags are gone.
        assert run_cli(capsys, "solve", "clarkson3500.json", "--starts", "4")[0] == 1
        assert run_cli(capsys, "solve", "clarkson3500.json", "--seed", "3")[0] == 1

    @pytest.mark.parametrize("command", ["solve", "classify"])
    def test_density_with_an_overflowing_reciprocal_refused(self, capsys, tmp_path, command):
        # 1 / 1e-320 overflows to inf, which the support exchange divides by
        # and classify would report as a congruent step.
        message = "must be positive with a finite reciprocal, got 1e-320"
        doc = json.loads(scenario_to_json(load_bundled_scenario("clarkson3500.json")))
        doc["cargoes"][0]["density"] = 1e-320
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(doc))
        assert run_cli(capsys, command, str(path)) == (
            1, "", f"error: cargoes[0]: density {message}\n"
        )

    @pytest.mark.parametrize(
        "flag, message",
        [
            ("perm=1,x", "invalid --order permutation 'perm=1,x'"),
            ("perm=1,1,2,3", "--order: explicit order (0, 0, 1, 2) is not a permutation of 0..3"),
            ("perm=2,1", "--order permutation covers 2 positions, but there are 4 cargo types"),
            ("sideways", "invalid --order value 'sideways': use normal, reverse, or perm=i,j,..."),
        ],
    )
    def test_order_flag_errors(self, capsys, flag, message):
        assert run_cli(capsys, "solve", "clarkson3500.json", "--order", flag) == (
            1, "", f"error: {message}\n"
        )

    def test_infeasible_is_three(self, capsys):
        assert run_cli(capsys, "solve", "clarkson3500.json", "--mu", "40")[0] == 3

    def test_local_only_is_two(self, capsys):
        assert run_cli(capsys, "solve", "clarkson3500.json", "--order", "reverse")[0] == 2

    def test_optimal_is_zero(self, capsys):
        assert run_cli(capsys, "solve", "clarkson3500.json")[0] == 0
        assert run_cli(capsys, "lp", "clarkson3500.json")[0] == 0
        assert run_cli(capsys, "classify", "clarkson3500.json")[0] == 0


class TestProgressLogging:
    """Progress notes are INFO records of the shipload loggers, shown on stderr by main."""

    def test_handler_lives_for_one_command(self, capsys):
        package = logging.getLogger("shipload")
        handlers, level = list(package.handlers), package.level
        for _ in range(2):
            code, _, err = run_cli(
                capsys, "oracle", "coastal_feeder.json", "--step", "50", "--format", "json"
            )
            assert code == 0
            assert err == "certifying against the 50.0 t lattice\n"
        assert (package.handlers, package.level) == (handlers, level)

    def test_module_entry_point_shows_progress(self):
        result = subprocess.run(
            [sys.executable, "-m", "shipload.cli", "solve", "clarkson3500.json"],
            capture_output=True,
            text=True,
            timeout=120,
            env=package_env(),
        )
        assert result.returncode == 0, result.stderr
        assert result.stderr == "solving clarkson3500.json\n"


class TestConsoleScript:
    """The declared `shipload` console script launches the CLI in a fresh process."""

    ARGS = ["classify", "clarkson3500.json", "--format", "json"]

    @staticmethod
    def declared_scripts():
        if sys.version_info >= (3, 11):
            import tomllib
        else:
            tomllib = pytest.importorskip("tomli")
        with (Path(__file__).resolve().parents[1] / "pyproject.toml").open("rb") as f:
            return tomllib.load(f)["project"]["scripts"]

    def run(self, command, **kwargs):
        return subprocess.run(
            [*command, *self.ARGS], capture_output=True, text=True, timeout=120, **kwargs
        )

    @staticmethod
    def assert_classifies_psd(result):
        assert result.returncode == 0, result.stderr
        report = json.loads(result.stdout)
        assert report["definiteness"] == "PositiveSemidefinite", result.stderr

    def test_installed_entry_point(self):
        target = self.declared_scripts()["shipload"]
        assert target == "shipload.cli:main"
        module, attr = target.split(":")
        # What a setuptools console-script wrapper runs, against the code under test.
        wrapper = (
            f"import sys; from {module} import {attr}; "
            f"sys.argv[0] = 'shipload'; sys.exit({attr}())"
        )
        self.assert_classifies_psd(self.run([sys.executable, "-c", wrapper], env=package_env()))

        installed = shutil.which("shipload")
        if installed:
            self.assert_classifies_psd(self.run([installed]))


class TestLazyScipyImport:
    """No command and no library call imports SciPy, and all of them run without it."""

    UNLOADED = (
        "assert not [name for name in sys.modules if name.partition('.')[0] == 'scipy'], "
        "'scipy was imported'\n"
    )
    TWO_CARGOES = (
        "import numpy as np\n"
        "from shipload import *\n"
        "problem = assemble_problem(\n"
        "    Vessel(200.0, 25.0, 45000.0, 120000.0, 15000.0, 2.0), Environment(),\n"
        "    StabilityPolicy(4.0), (CargoType('type1', 0.8, 4.5), CargoType('type4', 0.45, 5.5)),\n"
        "    LoadingOrder.reverse(), True,\n"
        ")\n"
    )
    # type1 alone at the deadweight cap: the plain fit prices type4 below
    # its rate, a negative nu, so the nonnegative fit runs, once.
    NNLS_KKT = (
        "from shipload import solver\n"
        "calls = []\n"
        "nnls = solver._nnls\n"
        "solver._nnls = lambda *args: calls.append(args) or nnls(*args)\n"
        "x = np.where(np.array(problem.labels) == 'type1', problem.deadweight_cap, 0.0)\n"
        "assert not kkt_verify(problem, x).satisfied\n"
        "assert len(calls) == 1, calls\n"
    )

    @classmethod
    def run(cls, code):
        result = subprocess.run(
            [sys.executable, "-c", "import sys\n" + code + cls.UNLOADED],
            capture_output=True,
            text=True,
            timeout=120,
            env=package_env(),
        )
        assert result.returncode == 0, result.stderr
        return result

    def test_classify_leaves_scipy_optimize_unloaded(self):
        result = self.run(
            "import shipload, shipload.cli\n"
            "shipload.classify_constraint_matrix([0.8, 0.6, 0.5], 1.0)\n"
            "assert shipload.cli.main(['classify', 'clarkson3500.json']) == 0\n"
        )
        assert "PositiveSemidefinite" in result.stdout

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["lp", "clarkson3500.json", "--mu", "4"], 0),
            (["solve", "clarkson3500.json", "--mu", "4"], 0),
            (["solve", "clarkson3500.json", "--mu", "4", "--order", "reverse"], 2),
            (["oracle", "coastal_feeder.json", "--step", "50"], 0),
            (["sensitivity", "clarkson3500.json", "--order", "reverse"], 2),
        ],
        ids=["lp", "solve-normal", "solve-reverse", "oracle", "sensitivity-reverse"],
    )
    def test_command_leaves_scipy_optimize_unloaded(self, argv, code):
        result = self.run(
            "import shipload.cli\n"
            f"assert shipload.cli.main({argv!r} + ['--format', 'json']) == {code}\n"
        )
        assert json.loads(result.stdout)["command"] == argv[0]

    @pytest.mark.parametrize("command", ["solve", "oracle"])
    @pytest.mark.parametrize("order", ["normal", "reverse"])
    def test_case_study_leaves_numpy_random_unloaded(self, command, order):
        # Importing numpy.random costs some 5 MB of resident memory, and
        # nothing on these paths needs it.
        argv = [command, "clarkson3500.json", "--order", order, "--format", "json"]
        result = self.run(
            "import shipload.cli\n"
            f"code = shipload.cli.main({argv!r})\n"
            "assert code in (0, 2), code\n"
            "assert 'numpy.random' not in sys.modules, 'numpy.random was imported'\n"
        )
        assert json.loads(result.stdout)["command"] == command

    def test_import_leaves_the_enumeration_and_logging_unloaded(self):
        # What every benchmark setup does: import the package and assemble.
        # The enumeration loads with the first unstable relaxation, and
        # logging with the first incomplete enumeration.
        self.run(
            self.TWO_CARGOES
            + "assert 'shipload.kkt_enumeration' not in sys.modules, 'enumeration imported'\n"
            "assert 'logging' not in sys.modules, 'logging was imported'\n"
        )

    def test_case_study_solve_leaves_logging_unloaded(self):
        # The package logs only in the CLI and where an enumeration is
        # incomplete, so a library solve that enumerates the reverse case
        # row in full never imports logging.
        self.run(
            "from shipload import *\n"
            "market = (CargoType('type1', 0.80, 4.5), CargoType('type2', 0.60, 5.0),\n"
            "          CargoType('type3', 0.50, 5.1), CargoType('type4', 0.45, 5.5))\n"
            "for order in (LoadingOrder.normal(), LoadingOrder.reverse()):\n"
            "    problem = assemble_problem(\n"
            "        Vessel(200.0, 25.0, 45000.0, 120000.0, 15000.0, 2.0), Environment(),\n"
            "        StabilityPolicy(4.0), market, order, True,\n"
            "    )\n"
            "    assert solve(problem).kkt.satisfied\n"
            "assert 'shipload.kkt_enumeration' in sys.modules\n"
            "assert 'logging' not in sys.modules, 'logging was imported'\n"
        )

    def test_library_solve_and_raw_vector_kkt(self):
        self.run(
            self.TWO_CARGOES
            + "solution = solve(problem)\n"
            "assert solution.status is SolverStatus.LOCAL_ONLY\n"
            "assert kkt_verify(problem, solution).satisfied\n"
            "# Raw loads come without multipliers: at a KKT point the plain\n"
            "# least-squares fit recovers them, with no NNLS.\n"
            "assert kkt_verify(problem, np.array(solution.x)).satisfied\n"
            + self.NNLS_KKT
        )

    def test_commands_and_nnls_run_with_scipy_blocked(self):
        # A finder ahead of all others refuses scipy and every submodule, as
        # an environment without SciPy would.
        self.run(
            "class NoScipy:\n"
            "    @staticmethod\n"
            "    def find_spec(name, path=None, target=None):\n"
            "        if name.partition('.')[0] == 'scipy':\n"
            "            raise ModuleNotFoundError(f'No module named {name!r}', name=name)\n"
            "sys.meta_path.insert(0, NoScipy)\n"
            "try:\n"
            "    import scipy.optimize\n"
            "except ModuleNotFoundError:\n"
            "    pass\n"
            "else:\n"
            "    raise AssertionError('scipy was not blocked')\n"
            "import shipload.cli\n"
            "for scenario in ('clarkson3500.json', 'coastal_feeder.json'):\n"
            "    for order in ('normal', 'reverse'):\n"
            "        for command in ('classify', 'lp', 'solve', 'oracle', 'sensitivity'):\n"
            "            argv = [command, scenario, '--order', order, '--format', 'json']\n"
            "            local = order == 'reverse' and command in ('solve', 'sensitivity')\n"
            "            assert shipload.cli.main(argv) == (2 if local else 0), argv\n"
            + self.TWO_CARGOES
            + self.NNLS_KKT
        )
