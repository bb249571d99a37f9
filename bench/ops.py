"""The operations of the three workloads, each timed and checked.

An operation is one user-level request:

* market: assemble_problem -> solve -> kkt_verify on the returned loads ->
  hydro_state, the library path behind ``shipload solve``;
* certify: assemble_problem -> solve -> certify on a lattice;
* cli: one fresh-process run of the declared console-script target.

Each runner returns the wall time of the request and what the program
answered; ``check`` compares that answer with ``checks.py`` and returns
the revenue of the plan it holds, if any.
"""

from __future__ import annotations

import io
import json
import os
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import checks
import inputs
from inputs import Instance, Invocation


@dataclass(frozen=True)
class Op:
    """One entry of a workload's fixed list."""

    kind: str  # "market", "certify" or "cli"
    instance: Instance
    klass: str  # "convex" or "nonconvex", from the benchmark's own diagonal
    bound: float  # LP vertex bound
    invocation: Invocation | None = None

    @property
    def label(self) -> str:
        if self.invocation is not None:
            return " ".join(self.invocation.argv)
        return self.instance.name


def make_op(kind: str, instance: Instance, invocation: Invocation | None = None) -> Op:
    klass = "convex" if checks.is_convex(instance) else "nonconvex"
    return Op(kind, instance, klass, checks.lp_bound(instance), invocation)


def interleave(oplist: list[Op]) -> list[Op]:
    """Spread each class evenly over the pass, keeping the order within it.

    The machine's speed drifts over seconds; a class whose operations ran
    back to back would sample only a short stretch of each pass.
    """
    position = {}
    for klass in ("convex", "nonconvex"):
        members = [op for op in oplist if op.klass == klass]
        for k, op in enumerate(members):
            position[id(op)] = (k + 0.5) / len(members)
    return sorted(oplist, key=lambda op: position[id(op)])


def workload_ops(workload: str, seed: int) -> list[Op]:
    if workload == "market":
        oplist = [make_op("market", inst) for inst in inputs.market_instances(seed)]
    elif workload == "certify":
        oplist = [make_op("certify", inst) for inst in inputs.certify_instances(seed)]
    elif workload == "cli":
        oplist = [make_op("cli", call.instance, call) for call in inputs.cli_invocations(seed)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return interleave(oplist)


def program_inputs(shipload, inst: Instance) -> tuple:
    """The arguments of ``assemble_problem`` for an instance."""
    if isinstance(inst.order, tuple):
        order = shipload.LoadingOrder.explicit(inst.order)
    else:
        order = shipload.LoadingOrder(inst.order)
    return (
        shipload.Vessel(*inst.vessel),
        shipload.Environment(inst.water_density),
        shipload.StabilityPolicy(inst.mu),
        tuple(shipload.CargoType(*cargo) for cargo in inst.cargoes),
        order,
        inst.ballast,
    )


# ---------------------------------------------------------------------------
# library operations


def run_library(shipload, tracer, op: Op, arguments: tuple) -> tuple[float, dict]:
    started = time.perf_counter()
    with tracer.span("model.assemble"):
        problem = shipload.assemble_problem(*arguments)
    with tracer.span("solver.solve", klass=op.klass) as record:
        solution = shipload.solve(problem)
    record["starts"] = solution.starts_used
    out = {
        "labels": list(problem.labels),
        "loads": [float(v) for v in solution.x],
        "revenue": float(solution.revenue),
        "status": solution.status.value,
    }
    if op.kind == "market":
        with tracer.span("solver.kkt_verify"):
            report = shipload.kkt_verify(problem, solution.x)
        with tracer.span("hydrostatics.hydro_state"):
            state = shipload.hydro_state(problem, solution.x)
        out["kkt"] = bool(solution.kkt.satisfied and report.satisfied)
        out["gm"] = float(state.metacentric_height)
    else:
        spec = shipload.LatticeSpec(op.instance.step)
        with tracer.span("oracle.certify"):
            out["certified"] = shipload.certify(problem, solution, spec)
        out["kkt"] = bool(solution.kkt.satisfied)
    elapsed = time.perf_counter() - started
    return elapsed, out


def check_library(op: Op, out: dict) -> float:
    inst = op.instance
    checks.check_plan(inst, out["labels"], out["loads"], out["revenue"], op.bound)
    checks.check_status(inst, out["status"], out["kkt"])
    checks.check_paper(inst, out["revenue"])
    if "gm" in out:
        checks.check_gm_report(inst, out["loads"], out["gm"])
    if "certified" in out:
        checks.check_certificate(inst, out["certified"])
    return out["revenue"]


# ---------------------------------------------------------------------------
# CLI operations


def console_script(pyproject: Path) -> tuple[str, str]:
    """(module, function) of the ``shipload`` entry in [project.scripts]."""
    text = pyproject.read_text(encoding="utf-8")
    section = re.search(r"^\[project\.scripts\]\s*$(.*?)(?=^\[|\Z)", text, re.M | re.S)
    if section is None:
        raise ValueError(f"{pyproject} declares no [project.scripts]")
    entry = re.search(r'^\s*shipload\s*=\s*"([\w.]+):(\w+)"\s*$', section.group(1), re.M)
    if entry is None:
        raise ValueError(f"{pyproject} declares no shipload console script")
    return entry.group(1), entry.group(2)


def wrapper_code(module: str, function: str) -> str:
    """What a setuptools console-script wrapper runs."""
    return (
        "import sys\n"
        f"from {module} import {function}\n"
        "sys.argv[0] = 'shipload'\n"
        f"sys.exit({function}())\n"
    )


@dataclass
class CliRunner:
    """Runs invocations one at a time in fresh interpreters."""

    code: str
    env: dict
    stderr_path: Path
    peak_rss_kb: int = 0

    def run_process(self, argv) -> tuple[float, int, str, str]:
        with open(self.stderr_path, "w+b") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-c", self.code, *argv],
                stdout=subprocess.PIPE,
                stderr=err,
                env=self.env,
            )
            try:
                out = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            elapsed = time.perf_counter() - started
            # wait4 reaped the child and returned its own resource usage.
            proc.returncode = os.waitstatus_to_exitcode(status)
            proc.stdout.close()
            err.seek(0)
            message = err.read().decode(errors="replace")
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return elapsed, proc.returncode, out.decode(), message


def run_inprocess(main, argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue()


def check_cli(op: Op, code: int, stdout: str, stderr: str) -> float | None:
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        raise checks.CheckFailure(
            f"{op.label}: exit {code}, no JSON report; stderr: {stderr.strip()[-300:]}"
        ) from None
    return checks.check_cli(op.invocation.command, op.instance, code, report, op.bound)
