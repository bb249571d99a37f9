"""Command line interface: JSON scenario files in, loading reports out.

A scenario file pins the vessel and the cargo market; stability margin,
loading order and ballast can be set in the file or overridden by flags.
The solver's tolerances are fixed and cannot be set.  Results go to
standard output in a text table, CSV, or JSON; progress notes and errors
go to standard error.  Exit codes: 0 for a globally valid (or
lattice-certified) result, 2 for a result that is only locally verified,
3 for an infeasible scenario, 1 for input errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .model import (
    CargoType,
    Environment,
    LoadingOrder,
    Problem,
    StabilityPolicy,
    Vessel,
    assemble_problem,
)

__all__ = [
    "Scenario",
    "ScenarioError",
    "parse_scenario",
    "scenario_to_json",
    "load_bundled_scenario",
    "bundled_scenario_names",
    "main",
]


# Named, not __name__: under ``python -m shipload.cli`` that is "__main__",
# outside the package logger that ``main`` attaches its handler to.
_log = logging.getLogger("shipload.cli")


class ScenarioError(Exception):
    """Input document or flag combination is invalid."""


@dataclass(frozen=True)
class Scenario:
    """Parsed scenario: a vessel, a cargo market, and run settings."""

    vessel: Vessel
    cargoes: tuple[CargoType, ...]
    water_density: float = 1.0
    mu: float | None = None
    order: LoadingOrder = LoadingOrder.normal()
    include_ballast: bool = True


_ROOT_FIELDS = {
    "vessel",
    "water_density",
    "mu",
    "order",
    "cargoes",
    "include_ballast",
}
_VESSEL_FIELDS = (
    "length",
    "beam",
    "deadweight",
    "volume_capacity",
    "light_mass",
    "light_kg",
)
_CARGO_FIELDS = ("label", "density", "freight_rate")


def _reject_unknown(obj: dict, allowed, path: str) -> None:
    for key in obj:
        if key not in allowed:
            location = f"{path}.{key}" if path else key
            raise ScenarioError(f"unknown field {location!r}")


def _get_number(obj: dict, key: str, path: str) -> float:
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{path}.{key} must be a number" if path else f"{key} must be a number")
    return float(value)


def _parse_vessel(doc: dict) -> Vessel:
    if "vessel" not in doc:
        raise ScenarioError("document is missing required field 'vessel'")
    obj = doc["vessel"]
    if not isinstance(obj, dict):
        raise ScenarioError("vessel must be an object")
    _reject_unknown(obj, set(_VESSEL_FIELDS), "vessel")
    values = {}
    for name in _VESSEL_FIELDS:
        if name not in obj:
            raise ScenarioError(f"vessel is missing required field {name!r}")
        values[name] = _get_number(obj, name, "vessel")
    try:
        return Vessel(**values)
    except ValueError as err:
        raise ScenarioError(f"vessel: {err}") from None


def _parse_cargoes(doc: dict) -> tuple[CargoType, ...]:
    if "cargoes" not in doc:
        raise ScenarioError("document is missing required field 'cargoes'")
    raw = doc["cargoes"]
    if not isinstance(raw, list):
        raise ScenarioError("cargoes must be an array")
    cargoes = []
    for i, entry in enumerate(raw):
        path = f"cargoes[{i}]"
        if not isinstance(entry, dict):
            raise ScenarioError(f"{path} must be an object")
        _reject_unknown(entry, set(_CARGO_FIELDS), path)
        for name in _CARGO_FIELDS:
            if name not in entry:
                raise ScenarioError(f"{path} is missing required field {name!r}")
        label = entry["label"]
        if not isinstance(label, str):
            raise ScenarioError(f"{path}.label must be a string")
        try:
            cargoes.append(
                CargoType(
                    label=label,
                    density=_get_number(entry, "density", path),
                    freight_rate=_get_number(entry, "freight_rate", path),
                )
            )
        except ValueError as err:
            raise ScenarioError(f"{path}: {err}") from None
    return tuple(cargoes)


def _parse_order(raw, cargo_count: int, name: str = "order") -> LoadingOrder:
    """The loading order of a scenario's ``order`` value, or of ``--order`` as that value.

    ``name`` is the field or flag that error messages cite.
    """
    if isinstance(raw, str):
        if raw == "normal":
            return LoadingOrder.normal()
        if raw == "reverse":
            return LoadingOrder.reverse()
        raise ScenarioError(
            f"{name} must be 'normal', 'reverse', or a permutation array, got {raw!r}"
        )
    if isinstance(raw, list):
        positions = []
        for i, value in enumerate(raw):
            if isinstance(value, bool) or not isinstance(value, int):
                raise ScenarioError(f"{name}[{i}] must be an integer position")
            positions.append(value)
        if len(positions) != cargo_count:
            raise ScenarioError(
                f"{name} permutation covers {len(positions)} positions, "
                f"but there are {cargo_count} cargo types"
            )
        # Scenario files and flags count cargo positions from 1.
        try:
            return LoadingOrder.explicit(i - 1 for i in positions)
        except ValueError as err:
            raise ScenarioError(f"{name}: {err}") from None
    raise ScenarioError(f"{name} must be 'normal', 'reverse', or a permutation array")


def parse_scenario(document: str) -> Scenario:
    """Parse and validate a JSON scenario document."""
    try:
        doc = json.loads(document)
    except json.JSONDecodeError as err:
        raise ScenarioError(
            f"syntax error at line {err.lineno} column {err.colno}: {err.msg}"
        ) from None
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a JSON object")
    _reject_unknown(doc, _ROOT_FIELDS, "")

    vessel = _parse_vessel(doc)
    cargoes = _parse_cargoes(doc)

    water_density = 1.0
    if "water_density" in doc:
        water_density = _get_number(doc, "water_density", "")
        try:
            Environment(water_density)
        except ValueError as err:
            raise ScenarioError(f"water_density: {err}") from None

    mu = None
    if "mu" in doc and doc["mu"] is not None:
        mu = _get_number(doc, "mu", "")
        try:
            StabilityPolicy(mu)
        except ValueError as err:
            raise ScenarioError(f"mu: {err}") from None

    include_ballast = True
    if "include_ballast" in doc:
        value = doc["include_ballast"]
        if not isinstance(value, bool):
            raise ScenarioError("include_ballast must be a boolean")
        include_ballast = value

    order = LoadingOrder.normal()
    if "order" in doc:
        order = _parse_order(doc["order"], len(cargoes))

    return Scenario(
        vessel=vessel,
        cargoes=cargoes,
        water_density=water_density,
        mu=mu,
        order=order,
        include_ballast=include_ballast,
    )


def _order_document(order: LoadingOrder):
    if order.kind == "explicit":
        return [i + 1 for i in order.explicit_order]
    return order.kind


def scenario_to_json(scenario: Scenario) -> str:
    """Serialize a scenario so that re-parsing yields an equal Scenario."""
    doc = {
        "vessel": {
            name: getattr(scenario.vessel, name) for name in _VESSEL_FIELDS
        },
        "water_density": scenario.water_density,
        "order": _order_document(scenario.order),
        "include_ballast": scenario.include_ballast,
        "cargoes": [
            {
                "label": c.label,
                "density": c.density,
                "freight_rate": c.freight_rate,
            }
            for c in scenario.cargoes
        ],
    }
    if scenario.mu is not None:
        doc["mu"] = scenario.mu
    return json.dumps(doc, indent=2)


def bundled_scenario_names() -> list[str]:
    """Names of the scenario files shipped inside the package."""
    root = resources.files("shipload") / "scenarios"
    return sorted(entry.name for entry in root.iterdir() if entry.name.endswith(".json"))


def load_bundled_scenario(name: str) -> Scenario:
    return parse_scenario(_load_scenario_text(name))


def _load_scenario_text(spec: str) -> str:
    path = Path(spec)
    if path.exists():
        return path.read_text(encoding="utf-8")
    if spec == path.name:
        bundled = resources.files("shipload") / "scenarios" / spec
        if bundled.is_file():
            return bundled.read_text(encoding="utf-8")
    raise ScenarioError(f"scenario file not found: {spec}")


# ---------------------------------------------------------------------------
# flag handling


class _ArgumentError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _ArgumentError(message)


def _order_flag_value(text: str):
    """``--order`` written as a scenario ``order`` value: a word or a position list."""
    if text in ("normal", "reverse"):
        return text
    if text.startswith("perm="):
        try:
            return [int(part) for part in text[5:].split(",") if part]
        except ValueError:
            raise ScenarioError(f"invalid --order permutation {text!r}") from None
    raise ScenarioError(
        f"invalid --order value {text!r}: use normal, reverse, or perm=i,j,..."
    )


def _apply_flags(scenario: Scenario, args: argparse.Namespace) -> Scenario:
    changes = {}
    if getattr(args, "mu", None) is not None:
        try:
            StabilityPolicy(args.mu)
        except ValueError as err:
            raise ScenarioError(f"--mu: {err}") from None
        changes["mu"] = float(args.mu)
    if getattr(args, "order", None) is not None:
        changes["order"] = _parse_order(
            _order_flag_value(args.order), len(scenario.cargoes), "--order"
        )
    if getattr(args, "no_ballast", False):
        changes["include_ballast"] = False
    return dataclasses.replace(scenario, **changes) if changes else scenario


def _build_parser() -> _Parser:
    parser = _Parser(prog="shipload", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    def add_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("scenario", help="scenario file path or bundled scenario name")
        sub.add_argument("--mu", type=float, default=None, help="stability margin in meters")
        sub.add_argument(
            "--order",
            default=None,
            help="loading order: normal, reverse, or perm=i,j,... (positions from 1)",
        )
        sub.add_argument(
            "--no-ballast",
            action="store_true",
            help="do not add the zero-rate ballast type",
        )
        sub.add_argument(
            "--format",
            choices=("table", "csv", "json"),
            default="table",
            help="output format (default table)",
        )
        sub.add_argument(
            "--kilotons",
            action="store_true",
            help="display masses in thousands of tons",
        )

    add_common(commands.add_parser("solve", help="solve the full loading problem"))
    add_common(commands.add_parser("lp", help="solve the relaxation without stability"))
    add_common(commands.add_parser("classify", help="classify the stability matrix"))
    oracle = commands.add_parser("oracle", help="solve and certify against a lattice")
    add_common(oracle)
    oracle.add_argument("--step", type=float, default=250.0, help="lattice spacing in tons")
    oracle.add_argument(
        "--max-points",
        type=int,
        default=None,
        help="most lattice rows the bounded search may build, and most levels "
        "per cargo; past it the command fails with exit code 1 and prints no report",
    )
    sensitivity = commands.add_parser(
        "sensitivity", help="compare the multiplier prediction against a re-solve"
    )
    add_common(sensitivity)
    sensitivity.add_argument(
        "--delta", type=float, default=0.1, help="margin increase in meters"
    )
    return parser


# ---------------------------------------------------------------------------
# report assembly


def _problem_from(scenario: Scenario, need_mu: bool = True) -> Problem:
    margin = scenario.mu
    if margin is None:
        if need_mu:
            raise ScenarioError(
                "no stability margin given: set 'mu' in the scenario or pass --mu"
            )
        margin = 0.0
    return assemble_problem(
        scenario.vessel,
        Environment(scenario.water_density),
        StabilityPolicy(margin),
        scenario.cargoes,
        scenario.order,
        scenario.include_ballast,
    )


def _solution_report(command: str, name: str, scenario: Scenario, problem: Problem, solution) -> dict:
    from .hydrostatics import constraint_slack, hydro_state
    from .solver import active_set

    x = np.asarray(solution.x, dtype=float)
    state = hydro_state(problem, x)
    total = float(x.sum())
    deadweight, volume, stability, _ = active_set(problem, x)
    return {
        "command": command,
        "scenario": name,
        "order": _order_document(scenario.order),
        "mu": problem.policy.min_metacentric_height,
        "status": solution.status.value,
        "definiteness": problem.classification.kind.value,
        "mass_unit": "t",
        "loads": [
            {
                "position": i + 1,
                "label": cargo.label,
                "density": cargo.density,
                "freight_rate": cargo.freight_rate,
                "load": float(x[i]),
            }
            for i, cargo in enumerate(problem.cargoes)
        ],
        "total_load": total,
        "deadweight_cap": problem.deadweight_cap,
        "volume_used": float(problem.volume_coeffs @ x),
        "volume_cap": problem.volume_cap,
        "revenue": solution.revenue,
        "draft": state.draft,
        "keel_to_metacenter": state.keel_to_metacenter,
        "center_of_mass": state.keel_to_mass,
        "metacentric_height": state.metacentric_height,
        "stability_slack": constraint_slack(problem, x),
        "multipliers": {
            "deadweight": float(solution.multiplier_deadweight),
            "volume": float(solution.multiplier_volume),
            "stability": float(solution.multiplier_stability),
        },
        "binding": {"deadweight": deadweight, "volume": volume, "stability": stability},
        "kkt": {
            "stationarity_residual": solution.kkt.stationarity_residual,
            "complementarity_residual": solution.kkt.complementarity_residual,
            "primal_feasibility": solution.kkt.primal_feasibility,
            "dual_feasibility": solution.kkt.dual_feasibility,
            "satisfied": solution.kkt.satisfied,
        },
        "starts_used": solution.starts_used,
        "best_start_index": solution.best_start_index,
        "certification": None,
    }


def _dispatch(args: argparse.Namespace) -> tuple[dict, int]:
    scenario = _apply_flags(parse_scenario(_load_scenario_text(args.scenario)), args)
    name = Path(args.scenario).name

    if args.command == "classify":
        problem = _problem_from(scenario, need_mu=False)
        classification = problem.classification
        report = {
            "command": "classify",
            "scenario": name,
            "order": _order_document(scenario.order),
            "include_ballast": scenario.include_ballast,
            "labels": list(problem.labels),
            "densities": [float(d) for d in problem.densities],
            "definiteness": classification.kind.value,
            "congruent_diagonal": [float(v) for v in classification.evidence.diagonal],
            "factor_check_residual": classification.evidence.factor_check_residual,
        }
        return report, 0

    if args.command == "lp":
        from .solver import solve_lp

        problem = _problem_from(scenario)
        solution = solve_lp(problem)
        report = _solution_report("lp", name, scenario, problem, solution)
        report["stability_satisfied_at_vertex"] = solution.kkt.satisfied
        return report, 0

    if args.command == "solve":
        from .solver import solve

        problem = _problem_from(scenario)
        _log.info("solving %s", name)
        solution = solve(problem)
        report = _solution_report("solve", name, scenario, problem, solution)
        return report, _exit_code(solution.status)

    if args.command == "oracle":
        from .oracle import LatticeSpec, _certify
        from .solver import SolverStatus, solve

        problem = _problem_from(scenario)
        # Without --max-points the cap is LatticeSpec's own default.
        caps = {} if args.max_points is None else {"max_points": args.max_points}
        spec = LatticeSpec(step=args.step, **caps)
        solution = solve(problem)
        report = _solution_report("oracle", name, scenario, problem, solution)
        if solution.status is SolverStatus.INFEASIBLE:
            return report, 3
        _log.info("certifying against the %s t lattice", args.step)
        certified, lattice_revenue, points = _certify(problem, solution, spec)
        report["certification"] = {
            "step": spec.step,
            "lattice_revenue": lattice_revenue,
            "points_evaluated": points,
            "certified": certified,
        }
        return report, _exit_code(solution.status, certified=certified)

    if args.command == "sensitivity":
        from .solver import SolverStatus, mu_sensitivity, solve

        problem = _problem_from(scenario)
        base = solve(problem)
        if base.status is SolverStatus.INFEASIBLE:
            return (
                {
                    "command": "sensitivity",
                    "scenario": name,
                    "status": base.status.value,
                },
                3,
            )
        delta = args.delta
        perturbed_mu = problem.policy.min_metacentric_height + delta
        perturbed_problem = _problem_from(
            dataclasses.replace(scenario, mu=perturbed_mu)
        )
        second = solve(perturbed_problem)
        sensitivity = mu_sensitivity(problem, base)
        predicted = sensitivity * delta
        actual = base.revenue - second.revenue
        report = {
            "command": "sensitivity",
            "scenario": name,
            "order": _order_document(scenario.order),
            "mu": problem.policy.min_metacentric_height,
            "delta": delta,
            "status": base.status.value,
            "perturbed_status": second.status.value,
            "mass_unit": "t",
            "base_revenue": base.revenue,
            "stability_multiplier": float(base.multiplier_stability),
            "displacement": float(base.x.sum()) + problem.vessel.light_mass,
            "sensitivity_per_meter": sensitivity,
            "predicted_drop": predicted,
            "perturbed_mu": perturbed_mu,
            "perturbed_revenue": second.revenue,
            "actual_drop": actual,
            "relative_gap": abs(actual - predicted) / abs(actual) if actual else None,
        }
        return report, max(_exit_code(base.status), _exit_code(second.status))

    raise ScenarioError(f"unknown command {args.command!r}")


def _exit_code(status, certified: bool | None = None) -> int:
    from .solver import SolverStatus

    if status is SolverStatus.INFEASIBLE:
        return 3
    if status is SolverStatus.OPTIMAL:
        return 0
    return 0 if certified else 2


# ---------------------------------------------------------------------------
# rendering


def _to_kilotons(report: dict) -> dict:
    if "mass_unit" not in report:
        return report
    scaled = json.loads(json.dumps(report))  # deep copy of plain data
    for load in scaled.get("loads", ()):
        load["load"] /= 1000.0
    for key in ("total_load", "deadweight_cap", "displacement"):
        if key in scaled:
            scaled[key] /= 1000.0
    scaled["mass_unit"] = "kt"
    return scaled


def _fmt4(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            return str(value)
        if value == 0.0:
            return "0"
        if abs(value) < 1e-4 or abs(value) >= 1e16:
            return np.format_float_scientific(value, precision=3, unique=False, trim="-")
        return np.format_float_positional(
            value, precision=4, unique=False, fractional=False, trim="-"
        )
    return str(value)


def _fmt12(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _flatten(report: dict) -> list[tuple[str, object]]:
    rows: list[tuple[str, object]] = []

    def walk(prefix: str, value) -> None:
        if isinstance(value, dict):
            for key, item in value.items():
                walk(f"{prefix}.{key}" if prefix else key, item)
        elif isinstance(value, (list, tuple)):
            for i, item in enumerate(value):
                walk(f"{prefix}[{i}]", item)
        else:
            rows.append((prefix, value))

    walk("", report)
    return rows


def _render_csv(report: dict) -> str:
    import csv
    import io

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["key", "value"])
    for key, value in _flatten(report):
        writer.writerow([key, _fmt12(value)])
    return buffer.getvalue().rstrip("\n")


def _render_table(report: dict) -> str:
    lines = [f"shipload {report.get('command', '')} report", ""]
    loads = report.get("loads")
    if loads:
        unit = report.get("mass_unit", "t")
        header = ("pos", "label", "density", "rate", f"load [{unit}]")
        grid = [header]
        for entry in loads:
            grid.append(
                (
                    str(entry["position"]),
                    entry["label"],
                    _fmt4(entry["density"]),
                    _fmt4(entry["freight_rate"]),
                    _fmt4(entry["load"]),
                )
            )
        widths = [max(len(row[c]) for row in grid) for c in range(len(header))]
        lines.append("stack, bottom to top".center(sum(widths) + 8).rstrip())
        for row in grid:
            cells = [
                row[0].rjust(widths[0]),
                row[1].ljust(widths[1]),
                row[2].rjust(widths[2]),
                row[3].rjust(widths[3]),
                row[4].rjust(widths[4]),
            ]
            lines.append("  " + "  ".join(cells))
        lines.append("")
    scalars = [
        (key, value)
        for key, value in _flatten(report)
        if not key.startswith("loads[")
    ]
    width = max(len(key) for key, _ in scalars)
    for key, value in scalars:
        lines.append(f"{key.ljust(width)}  {_fmt4(value)}")
    return "\n".join(lines)


def render_report(report: dict, fmt: str, kilotons: bool = False) -> str:
    if kilotons:
        report = _to_kilotons(report)
    if fmt == "json":
        return json.dumps(report, indent=2)
    if fmt == "csv":
        return _render_csv(report)
    return _render_table(report)


def main(argv=None) -> int:
    """Run one command; progress logged by shipload at INFO goes to standard error.

    ``argv`` None means the process's own command line: the ``shipload``
    console script and ``python -m shipload.cli`` call ``main()`` so, and
    the process ends with the command.  Then ``gc.freeze`` runs at exit,
    before the interpreter's final collections, so they skip the objects
    that NumPy and the package built; refcounting still frees them, and
    stdio and logging flush as before.  A freeze also skips the finalizers
    of objects in reference cycles, so library and test callers, which
    pass ``argv``, keep their collector as it was.
    """
    if argv is None:
        import atexit
        import gc

        atexit.register(gc.freeze)
    package = logging.getLogger("shipload")
    stderr = logging.StreamHandler(sys.stderr)
    stderr.setLevel(logging.INFO)
    saved_level = package.level
    package.setLevel(min(package.getEffectiveLevel(), logging.INFO))
    package.addHandler(stderr)
    try:
        return _run(argv)
    finally:
        package.removeHandler(stderr)
        package.setLevel(saved_level)


def _run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _ArgumentError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    try:
        report, code = _dispatch(args)
    except (ScenarioError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(render_report(report, args.format, kilotons=args.kilotons))
    return code


if __name__ == "__main__":
    sys.exit(main())
