#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of shipload.

Run from the root of a checkout:

    python3 bench/run.py --workload market --seed 1 --seconds 10 --trace 0

Workloads (see README.md): ``market`` solves a seeded list of markets in
process, ``certify`` solves small instances and certifies them on a
lattice, ``cli`` runs the console-script target once per fresh process.
Each run is one closed loop with one caller: an untimed warm-up pass over
the workload's fixed list, then whole timed passes until ``--seconds``
have gone by.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before NumPy loads; children inherit the setting.
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _name in THREAD_VARIABLES:
    os.environ[_name] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import ops  # noqa: E402
import tracing  # noqa: E402
from inputs import Invocation, market_fixed, paper_rows, scenario_instance  # noqa: E402

WORKLOADS = ("market", "certify", "cli")
SETUP_SAMPLES = 5  # fresh interpreters per run, after one discarded warm-up
IMPORTTIME_SAMPLES = 3
WATCHDOG_SECONDS = 175


class Watchdog(BaseException):
    """Raised by the alarm; not an Exception, so no operation handler swallows it."""


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def child_environment(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    return env


def measure_setup(workload: str, seed: int, env: dict) -> float:
    """Median wall time of a fresh interpreter that imports shipload and
    assembles the workload's problems; the first interpreter is discarded."""
    command = [sys.executable, str(HERE / "setup_child.py"), workload, str(seed)]
    samples = []
    for k in range(SETUP_SAMPLES + 1):
        started = time.perf_counter()
        proc = subprocess.run(command, env=env, capture_output=True, text=True, timeout=120)
        elapsed = time.perf_counter() - started
        if proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed: {proc.stderr.strip()[-500:]}")
        if k:
            samples.append(elapsed)
    return statistics.median(samples)


def measure_imports(env: dict) -> dict[str, float]:
    """Median cumulative import times from ``python -X importtime`` children."""
    wanted = {"shipload": [], "scipy.optimize": [], "numpy": []}
    for _ in range(IMPORTTIME_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import shipload, scipy.optimize, numpy"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"import child failed: {proc.stderr.strip()[-500:]}")
        found = tracing.parse_importtime(proc.stderr)
        for name, values in wanted.items():
            values.append(found.get(name, 0.0))
    return {
        "import.shipload_ms": statistics.median(wanted["shipload"]),
        "import.scipy_optimize_ms": statistics.median(wanted["scipy.optimize"]),
        "import.numpy_ms": statistics.median(wanted["numpy"]),
    }


class Bench:
    """Runs passes over one workload's list and keeps what they measured."""

    def __init__(self, oplist: list, tracer, shipload, cli_runner, main):
        self.oplist = oplist
        self.tracer = tracer
        self.shipload = shipload
        self.cli = cli_runner
        self.main = main
        self.arguments = {}
        if shipload is not None:
            self.arguments = {
                op.instance.name: ops.program_inputs(shipload, op.instance)
                for op in oplist if op.kind != "cli"
            }
        self.errors: list[str] = []
        self.next_op = 0

    def run_pass(self, oplist=None, source: str = "workload") -> list[tuple]:
        """One pass; returns (op, seconds, plan revenue or None, state) per operation.

        The state is "ok", "wrong" when an output check failed, or "failed"
        when the program raised or exited with an error.
        """
        return [self.run_op(op, source) for op in (oplist if oplist is not None else self.oplist)]

    def run_op(self, op, source: str) -> tuple:
        tracer = self.tracer
        self.next_op += 1
        tracer.op_id = self.next_op
        tracer.context = op.instance
        if op.kind == "cli" and op.invocation.command == "sensitivity":
            tracer.context = None  # two margins in one run: no single instance to judge by
        try:
            with tracer.span("op", source=source, klass=op.klass, kind=op.kind,
                             n=op.instance.size) as record:
                if op.kind == "cli":
                    elapsed, revenue, certified = self._cli_op(op)
                else:
                    arguments = self.arguments.get(op.instance.name)
                    if arguments is None:
                        arguments = ops.program_inputs(self.shipload, op.instance)
                    elapsed, out = ops.run_library(self.shipload, tracer, op, arguments)
                    certified = out.get("certified")
                    revenue = ops.check_library(op, out)
            record["certified"] = certified
            if tracer.active:
                self._time_classify(op)
            return op, elapsed, revenue, "ok"
        except checks.CheckFailure as failure:
            self.errors.append(str(failure))
            return op, 0.0, None, "wrong"
        except Exception as error:  # a program error fails the operation, not the run
            log(f"failed: {op.label}: {type(error).__name__}: {error}")
            return op, 0.0, None, "failed"
        finally:
            tracer.context = None
            tracer.op_id = None

    def _cli_op(self, op):
        tracer = self.tracer
        argv = op.invocation.argv
        with tracer.span("cli.process"):
            elapsed, code, stdout, stderr = self.cli.run_process(argv)
        if code not in (0, 2, 3):
            raise RuntimeError(f"exit {code}: {stderr.strip()[-300:]}")
        revenue = ops.check_cli(op, code, stdout, stderr)
        report = json.loads(stdout)
        certified = (report.get("certification") or {}).get("certified")
        if tracer.active:
            with tracer.span("cli.inprocess"):
                in_code, in_stdout = ops.run_inprocess(self.main, argv)
            checks.require(
                in_code == code and json.loads(in_stdout) == report,
                f"{op.label}: in-process run answers differently from the fresh process",
            )
        return elapsed, revenue, certified

    def _time_classify(self, op) -> None:
        densities = [d for _, d, _ in checks.stack(op.instance)]
        with self.tracer.span("quadratic_analysis.classify", n=len(densities)):
            self.shipload.classify_constraint_matrix(densities, op.instance.water_density)

    def timed_passes(self, seconds: float) -> tuple[list[tuple], int]:
        rows, passes = [], 0
        started = time.perf_counter()
        while True:
            rows += self.run_pass()
            passes += 1
            if time.perf_counter() - started >= seconds:
                return rows, passes


def end_to_end(rows: list[tuple]) -> dict[str, float]:
    done = [(op, seconds, revenue) for op, seconds, revenue, state in rows if state == "ok"]
    convex = [seconds for op, seconds, _ in done if op.klass == "convex"]
    nonconvex = [seconds for op, seconds, _ in done if op.klass == "nonconvex"]
    plans = [(revenue, op.bound) for op, _, revenue in done if revenue is not None]
    busy = sum(seconds for _, seconds, _ in done)
    return {
        "ops_per_s": len(done) / busy if busy else 0.0,
        "convex_op_ms": statistics.median(convex) * 1e3 if convex else 0.0,
        "nonconvex_op_ms": statistics.median(nonconvex) * 1e3 if nonconvex else 0.0,
        "revenue_vs_lp": (
            sum(r for r, _ in plans) / sum(b for _, b in plans) if plans else 0.0
        ),
    }


UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "convex_op_ms": "ms",
    "nonconvex_op_ms": "ms",
    "peak_rss_mb": "MB",
    "revenue_vs_lp": "ratio",
}


PER_LAYER_UNITS = {
    "import.shipload_ms": "ms",
    "import.scipy_optimize_ms": "ms",
    "import.numpy_ms": "ms",
    "model.assemble_us": "us",
    "quadratic_analysis.classify_us": "us",
    "quadratic_analysis.congruence_calls_per_op": "count",
    "hydrostatics.hydro_state_us": "us",
    "solver.solve_ms.convex": "ms",
    "solver.solve_ms.nonconvex": "ms",
    "solver.starts_per_solve": "count",
    "solver.slsqp_calls_per_op": "count",
    "solver.slsqp_ms": "ms",
    "solver.slsqp_nit": "count",
    "solver.feasible_start_share": "share",
    "solver.nnls_us": "us",
    "solver.nnls_calls_per_op": "count",
    "solver.kkt_verify_us": "us",
    "solver.self_ms": "ms",
    "solver.linprog_ms": "ms",
    "oracle.grid_search_ms": "ms",
    "oracle.points_evaluated": "count",
    "oracle.points_per_us": "1/us",
    "oracle.pruned_lattice_share": "share",
    "oracle.rejected_plans": "count",
    "cli.process_ms": "ms",
    "cli.inprocess_ms": "ms",
    "cli.startup_ms": "ms",
    "trace.convex_op_ms.p90": "ms",
    "trace.convex_op_ms.samples": "count",
    "trace.nonconvex_op_ms.p90": "ms",
    "trace.nonconvex_op_ms.samples": "count",
    "trace.untraced_ops_per_s": "1/s",
    "trace.traced_ops_per_s": "1/s",
    "trace.overhead_share": "share",
}


def probe_ops(workload: str) -> list:
    """Fixed operations that reach the layers a workload does not."""
    library = [ops.make_op("market", inst) for inst in market_fixed()]
    lattice = [
        ops.make_op("certify", inst)
        for inst in paper_rows(ballast=False, step=1000.0)
        if inst.mu == 4.0
    ]
    argv = ("--order", "normal", "--format", "json")
    invocations = [
        Invocation((command, "clarkson3500.json") + argv,
                   scenario_instance("clarkson3500.json", "normal"), command)
        for command in ("classify", "lp")
    ]
    cli = [ops.make_op("cli", call.instance, call) for call in invocations]
    return {"market": lattice + cli, "certify": library + cli, "cli": library}[workload]


def run(args) -> dict:
    root = HERE.parent
    src = root / "src"
    if not (src / "shipload" / "__init__.py").is_file():
        raise SystemExit(f"error: no shipload sources under {src}; run from a checkout root")
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    env = child_environment(src)

    metrics: dict[str, float] = {}
    if not args.trace:
        metrics["setup_s"] = measure_setup(args.workload, args.seed, env)
        log(f"setup_s {metrics['setup_s']:.4f}")

    tracer = tracing.Tracer()
    if args.trace:
        tracing.install_scipy_wrappers(tracer)
    shipload = main = None
    sys.path.insert(0, str(src))
    if args.trace or args.workload != "cli":
        import shipload  # noqa: F811

        if args.trace:
            tracing.install_module_wrappers(tracer, shipload)
    module, function = ops.console_script(root / "pyproject.toml")
    if args.trace:
        main = getattr(importlib.import_module(module), function)
    cli_runner = ops.CliRunner(
        code=ops.wrapper_code(module, function),
        env=env,
        stderr_path=results / f".stderr-{os.getpid()}",
    )

    oplist = ops.workload_ops(args.workload, args.seed)
    bench = Bench(oplist, tracer, shipload, cli_runner, main)
    try:
        warm = bench.run_pass()
        log(f"warm-up pass: {len(warm)} operations, {sum(r[1] for r in warm):.2f} s")
        rows, passes = bench.timed_passes(args.seconds)
        log(f"timed: {passes} passes, {len(rows)} operations")
        (results / f"{args.workload}-seed{args.seed}-trace{args.trace}-ops.json").write_text(
            json.dumps([[op.label, op.klass, seconds, state] for op, seconds, _, state in rows])
        )
        attempted = len(rows)
        failed = sum(1 for row in rows if row[3] == "failed")
        if not args.trace:
            metrics.update(end_to_end(rows))
            if args.workload == "cli":
                peak_kb = cli_runner.peak_rss_kb
            else:
                peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics["peak_rss_mb"] = peak_kb / 1024.0
        else:
            untraced = end_to_end(rows)
            for klass in ("convex", "nonconvex"):
                times = [s * 1e3 for op, s, _, state in rows if state == "ok" and op.klass == klass]
                metrics[f"trace.{klass}_op_ms.p90"] = tracing.percentile(times, 0.9)
                metrics[f"trace.{klass}_op_ms.samples"] = len(times)
            tracer.active = True
            traced_rows, traced_passes = bench.timed_passes(args.seconds)
            bench.run_pass(probe_ops(args.workload), source="probe")
            tracer.active = False
            tracing.judge(tracer)
            attempted += len(traced_rows)
            failed += sum(1 for row in traced_rows if row[3] == "failed")
            traced = end_to_end(traced_rows)
            metrics.update(tracing.Layers(tracer.spans, traced_passes).metrics())
            metrics.update(measure_imports(env))
            metrics["trace.untraced_ops_per_s"] = untraced["ops_per_s"]
            metrics["trace.traced_ops_per_s"] = traced["ops_per_s"]
            metrics["trace.overhead_share"] = 1.0 - traced["ops_per_s"] / untraced["ops_per_s"]
            trace_file = results / f"trace-{args.workload}-seed{args.seed}.json"
            trace_file.write_text(json.dumps({"spans": tracer.spans}))
            log(f"{len(tracer.spans)} spans written to {trace_file}")
    finally:
        cli_runner.stderr_path.unlink(missing_ok=True)

    errors = bench.errors + tracer.errors
    for error in errors[:20]:
        log(f"check failed: {error}")
    units = PER_LAYER_UNITS if args.trace else UNITS
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)

    def expire(signum, frame):
        raise Watchdog(f"run exceeded {WATCHDOG_SECONDS} s")

    signal.signal(signal.SIGALRM, expire)
    signal.alarm(WATCHDOG_SECONDS)
    try:
        result = run(args)
    except (Watchdog, RuntimeError, OSError, ValueError) as error:
        log(f"error: {error}")
        return 1
    finally:
        signal.alarm(0)
    line = json.dumps(result)
    (HERE / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
