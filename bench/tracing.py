"""Spans kept in memory, the wrappers that record them, and per-layer metrics.

A span is (name, start, end, parent, op) plus attributes; every span of
one operation carries that operation's id.  Spans are recorded only while
``Tracer.active`` is set, so the same wrappers pass straight through in the
untraced passes of a traced run.

``install_scipy_wrappers`` must run before shipload is imported, so that
whatever import style the solver uses it gets the wrapped entry points;
``install_module_wrappers`` replaces module attributes of shipload and must
run before ``shipload.cli`` is imported, which binds ``grid_search`` by name.
"""

from __future__ import annotations

import functools
import math
import re
import statistics
import time

import checks


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: "Tracer", record: dict) -> None:
        self.tracer = tracer
        self.record = record

    def __enter__(self) -> dict:
        tracer = self.tracer
        self.record["parent"] = tracer.stack[-1] if tracer.stack else None
        self.record["op"] = tracer.op_id
        self.record["start"] = time.perf_counter()
        tracer.stack.append(len(tracer.spans))
        tracer.spans.append(self.record)
        return self.record

    def __exit__(self, *exc) -> None:
        self.record["end"] = time.perf_counter()
        self.tracer.stack.pop()


class _NoSpan:
    def __enter__(self) -> dict:
        return {}

    def __exit__(self, *exc) -> None:
        pass


_NO_SPAN = _NoSpan()


class Tracer:
    """In-memory span store; ``context`` is the instance being worked on."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.active = False
        self.op_id: int | None = None
        self.context = None
        self.errors: list[str] = []

    def span(self, name: str, **attrs):
        if not self.active:
            return _NO_SPAN
        return _Span(self, {"name": name, **attrs})

    def wrap(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if after is not None:
                after(record, args, result)
            return result

        return wrapper


def install_scipy_wrappers(tracer: Tracer) -> None:
    """Wrap scipy.optimize.minimize, nnls and linprog in place."""
    import scipy.optimize as optimize

    def after_minimize(record, args, result):
        record["nit"] = int(getattr(result, "nit", 0))
        if tracer.context is not None:
            record["context"] = tracer.context
            record["x"] = [max(float(v), 0.0) for v in result.x]

    optimize.minimize = tracer.wrap("scipy.minimize", optimize.minimize, after_minimize)
    optimize.nnls = tracer.wrap("scipy.nnls", optimize.nnls)
    optimize.linprog = tracer.wrap("scipy.linprog", optimize.linprog)


def install_module_wrappers(tracer: Tracer, shipload) -> None:
    """Wrap shipload.oracle.grid_search and quadratic_analysis.congruence_diagonal."""
    oracle = shipload.oracle
    analysis = shipload.quadratic_analysis

    def after_grid_search(record, args, result):
        best_x, best_revenue, points = result
        record["points"] = int(points)
        if tracer.context is not None:
            record["context"] = tracer.context
            record["step"] = float(args[1].step)
            record["x"] = None if best_x is None else [float(v) for v in best_x]
            record["revenue"] = float(best_revenue)

    oracle.grid_search = tracer.wrap("oracle.grid_search", oracle.grid_search, after_grid_search)
    analysis.congruence_diagonal = tracer.wrap(
        "quadratic_analysis.congruence_diagonal", analysis.congruence_diagonal
    )


def judge(tracer: Tracer) -> None:
    """Check what the wrapped calls returned, after the timed passes.

    Each SLSQP return gets ``feasible`` by the benchmark's own check; each
    lattice best point must be feasible and within the LP bound.  The
    instance reference is replaced by its name so the spans serialize.
    """
    for record in tracer.spans:
        inst = record.pop("context", None)
        if inst is None:
            continue
        record["instance"] = inst.name
        loads = record.pop("x")
        if record["name"] == "scipy.minimize":
            record["feasible"] = checks.is_feasible(inst, loads)
            continue
        record["lattice"] = checks.lattice_points(inst, record["step"])
        record["prunable"] = checks.stability_prunable(inst)
        try:
            checks.check_lattice_best(inst, loads, record["revenue"], checks.lp_bound(inst))
        except checks.CheckFailure as failure:
            tracer.errors.append(f"lattice best point: {failure}")


# ---------------------------------------------------------------------------
# import breakdown

_IMPORTTIME = re.compile(r"^import time:\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(\S.*)$")


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative import time in ms of each top-level entry of -X importtime."""
    cumulative = {}
    for line in stderr.splitlines():
        match = _IMPORTTIME.match(line)
        if match:
            name = match.group(3).strip()
            cumulative.setdefault(name, int(match.group(2)) / 1000.0)
    return cumulative


# ---------------------------------------------------------------------------
# per-layer metrics


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def _median(values, scale: float = 1.0) -> float:
    return statistics.median(values) * scale if values else 0.0


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Layers:
    """Per-layer numbers from the spans of a traced run.

    Every number is taken from the spans of the workload's own operations;
    a layer the workload never reaches is measured on the probe operations
    instead, so that each traced run reports every layer.
    """

    def __init__(self, spans: list[dict], passes: int) -> None:
        self.spans = spans
        self.passes = passes
        self.ops = {s["op"]: s for s in spans if s["name"] == "op"}
        self.source = {op_id: s["source"] for op_id, s in self.ops.items()}

    def _pick(self, name: str, where=None) -> tuple[list[dict], str]:
        """Spans named ``name`` from workload ops, else from probe ops."""
        for source in ("workload", "probe"):
            chosen = [
                s for s in self.spans
                if s["name"] == name and self.source.get(s.get("op")) == source
                and (where is None or where(s))
            ]
            if chosen:
                return chosen, source
        return [], "workload"

    def _op_count(self, source: str) -> int:
        return sum(1 for s in self.ops.values() if s["source"] == source)

    def per_op(self, name: str, where=None) -> float:
        chosen, source = self._pick(name, where)
        count = self._op_count(source)
        return len(chosen) / count if count else 0.0

    def median_of(self, name: str, scale: float, where=None) -> float:
        chosen, _ = self._pick(name, where)
        return _median([_duration(s) for s in chosen], scale)

    def metrics(self) -> dict[str, float]:
        m: dict[str, float] = {}
        m["model.assemble_us"] = self.median_of("model.assemble", 1e6)
        m["quadratic_analysis.classify_us"] = self.median_of("quadratic_analysis.classify", 1e6)
        # The benchmark's own classify timing is not part of any operation.
        m["quadratic_analysis.congruence_calls_per_op"] = self.per_op(
            "quadratic_analysis.congruence_diagonal",
            lambda s: s["parent"] is None
            or self.spans[s["parent"]]["name"] != "quadratic_analysis.classify",
        )
        m["hydrostatics.hydro_state_us"] = self.median_of("hydrostatics.hydro_state", 1e6)
        for klass in ("convex", "nonconvex"):
            m[f"solver.solve_ms.{klass}"] = self.median_of(
                "solver.solve", 1e3, lambda s, k=klass: s.get("klass") == k
            )
        solves, _ = self._pick("solver.solve")
        m["solver.starts_per_solve"] = _mean([s["starts"] for s in solves])
        m["solver.slsqp_calls_per_op"] = self.per_op("scipy.minimize")
        minimize, _ = self._pick("scipy.minimize")
        m["solver.slsqp_ms"] = _median([_duration(s) for s in minimize], 1e3)
        m["solver.slsqp_nit"] = _mean([s["nit"] for s in minimize])
        judged = [s["feasible"] for s in minimize if "feasible" in s]
        m["solver.feasible_start_share"] = _mean([1.0 if f else 0.0 for f in judged])
        m["solver.nnls_us"] = self.median_of("scipy.nnls", 1e6)
        m["solver.nnls_calls_per_op"] = self.per_op("scipy.nnls")
        m["solver.kkt_verify_us"] = self.median_of("solver.kkt_verify", 1e6)
        m["solver.self_ms"] = self._solver_self_ms()
        m["solver.linprog_ms"] = self.median_of("scipy.linprog", 1e3)
        m.update(self._oracle())
        m.update(self._cli())
        return m

    def _solver_self_ms(self) -> float:
        solves, _ = self._pick("solver.solve")
        index = {id(s): i for i, s in enumerate(self.spans)}
        busy = {index[id(s)]: 0.0 for s in solves}
        for s in self.spans:
            if s["name"] in ("scipy.minimize", "scipy.nnls") and s["parent"] in busy:
                busy[s["parent"]] += _duration(s)
        return _median([_duration(s) - busy[index[id(s)]] for s in solves], 1e3)

    def _oracle(self) -> dict[str, float]:
        searches, source = self._pick("oracle.grid_search")
        points = sum(s["points"] for s in searches)
        lattice = sum(s.get("lattice", 0) for s in searches)
        busy_us = sum(_duration(s) for s in searches) * 1e6
        rejected = sum(
            1 for s in self.ops.values()
            if s["source"] == source and s.get("certified") is False
        )
        return {
            "oracle.grid_search_ms": _median([_duration(s) for s in searches], 1e3),
            "oracle.points_evaluated": points / len(searches) if searches else 0.0,
            "oracle.points_per_us": points / busy_us if busy_us else 0.0,
            "oracle.pruned_lattice_share": 1.0 - points / lattice if lattice else 0.0,
            "oracle.rejected_plans": rejected / (self.passes if source == "workload" else 1),
        }

    def _cli(self) -> dict[str, float]:
        process, _ = self._pick("cli.process")
        inprocess, _ = self._pick("cli.inprocess")
        by_op = {s["op"]: _duration(s) for s in inprocess}
        startup = [_duration(s) - by_op[s["op"]] for s in process if s["op"] in by_op]
        return {
            "cli.process_ms": _median([_duration(s) for s in process], 1e3),
            "cli.inprocess_ms": _median(list(by_op.values()), 1e3),
            "cli.startup_ms": _median(startup, 1e3),
        }
