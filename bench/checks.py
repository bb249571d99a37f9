"""Output checks computed from first principles, without shipload.

Every check reads the plain instance data of ``inputs.py`` and the
program's output, and raises ``CheckFailure`` when the output is wrong:

* the plan keeps the deadweight and hold-volume caps;
* GM >= mu, with GM rebuilt from the box hull: stack heights
  x/(d B L), KG from the stack moments, draft T = displacement/(rho B L),
  KM = B^2/(12 T) + T/2;
* revenue is p.x and stays at or below the LP bound, found by enumerating
  the vertices of {sum x <= C, sum x/d <= V, x >= 0};
* convex instances are solved to status Optimal with a satisfied KKT
  report, nonconvex ones to LocalOnly, and the case-study rows reach the
  published revenues;
* convex instances and the case-study rows are certified by the lattice;
* the CLI's exit code follows the documented mapping for the status it
  reports, and ``classify`` reports the definiteness and congruent
  diagonal computed here.
"""

from __future__ import annotations

import math

from inputs import Instance, PAPER_TOLERANCE

BALLAST_LABEL = "ballast"
CAP_TOLERANCE = 1e-7  # relative, on the deadweight and volume caps
GM_TOLERANCE = 1e-6  # meters
REVENUE_TOLERANCE = 1e-9  # relative, on revenue = p.x
# A plan may overrun the caps by CAP_TOLERANCE, and the LP bound grows in
# proportion to the caps, so revenue may overrun the bound by as much.
BOUND_SLACK = 1.0 + CAP_TOLERANCE
SIGN_TOLERANCE = 1e-12  # relative to the largest diagonal entry

PSD = "PositiveSemidefinite"
NSD = "NegativeSemidefinite"
INDEFINITE = "Indefinite"


class CheckFailure(AssertionError):
    """A program output contradicts an independent computation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def stack(inst: Instance) -> list[tuple[str, float, float]]:
    """(label, density, rate) bottom to top, ballast included.

    normal stacks by decreasing density, reverse by increasing density,
    both keeping input order among equal densities, with ballast placed by
    its density after the cargoes; an explicit order lists input positions
    and puts ballast at the bottom.
    """
    ballast = (BALLAST_LABEL, inst.water_density, 0.0)
    if isinstance(inst.order, tuple):
        placed = [inst.cargoes[i] for i in inst.order]
        return ([ballast] if inst.ballast else []) + placed
    pool = list(inst.cargoes) + ([ballast] if inst.ballast else [])
    sign = -1.0 if inst.order == "normal" else 1.0
    return sorted(pool, key=lambda cargo: sign * cargo[1])


def congruent_diagonal(inst: Instance) -> list[float]:
    """(m1, m2 - m1, ...) with m_k = 1/d_k - 1/rho over the stack."""
    m = [1.0 / d - 1.0 / inst.water_density for _, d, _ in stack(inst)]
    return [m[0]] + [m[k] - m[k - 1] for k in range(1, len(m))]


def definiteness(diagonal: list[float]) -> str:
    tol = SIGN_TOLERANCE * max(abs(v) for v in diagonal)
    has_pos = any(v > tol for v in diagonal)
    has_neg = any(v < -tol for v in diagonal)
    if has_pos and has_neg:
        return INDEFINITE
    return NSD if has_neg else PSD


def is_convex(inst: Instance) -> bool:
    return definiteness(congruent_diagonal(inst)) == PSD


def lp_bound(inst: Instance) -> float:
    """Best revenue over the vertices of the two-constraint polytope."""
    cap, volume = inst.vessel[2], inst.vessel[3]
    cargoes = stack(inst)
    best = 0.0
    for _, d, p in cargoes:
        best = max(best, p * min(cap, volume * d))
    for i, (_, di, pi) in enumerate(cargoes):
        for _, dj, pj in cargoes[i + 1:]:
            det = 1.0 / dj - 1.0 / di
            if det == 0.0:
                continue
            xi = (cap / dj - volume) / det
            xj = cap - xi
            if xi >= 0.0 and xj >= 0.0:
                best = max(best, pi * xi + pj * xj)
    return best


def metacentric_height(inst: Instance, loads: list[float]) -> float:
    """GM of the box hull carrying ``loads`` (stack order, bottom first)."""
    length, beam, _, _, light, light_kg = inst.vessel
    area = beam * length
    height = 0.0
    moment = light * light_kg
    for (_, d, _), x in zip(stack(inst), loads):
        layer = x / (d * area)
        moment += x * (height + layer / 2.0)
        height += layer
    displacement = light + math.fsum(loads)
    draft = displacement / (inst.water_density * area)
    keel_to_metacenter = beam * beam / (12.0 * draft) + draft / 2.0
    return keel_to_metacenter - moment / displacement


def stability_prunable(inst: Instance) -> bool:
    """Whether every entry of the stability matrix and its linear term is >= 0."""
    length, beam, _, _, light, _ = inst.vessel
    dense = any(d > inst.water_density for _, d, _ in stack(inst))
    return not dense and inst.mu >= light / (inst.water_density * beam * length)


def lattice_points(inst: Instance, step: float) -> int:
    """Mass-feasible points of the step lattice: binomial(levels + n, n)."""
    levels = math.floor(inst.vessel[2] / step + 1e-9)
    return math.comb(levels + inst.size, inst.size)


def plan_revenue(inst: Instance, loads: list[float]) -> float:
    return math.fsum(p * x for (_, _, p), x in zip(stack(inst), loads))


def check_feasible(inst: Instance, loads: list[float], stability: bool = True) -> None:
    cap, volume = inst.vessel[2], inst.vessel[3]
    cargoes = stack(inst)
    require(len(loads) == len(cargoes), f"{inst.name}: {len(loads)} loads for {len(cargoes)} cargoes")
    require(all(math.isfinite(x) for x in loads), f"{inst.name}: non-finite load")
    require(min(loads) >= -CAP_TOLERANCE * cap, f"{inst.name}: negative load {min(loads)}")
    mass = math.fsum(loads)
    require(mass <= cap * (1.0 + CAP_TOLERANCE), f"{inst.name}: mass {mass} over the cap {cap}")
    used = math.fsum(x / d for (_, d, _), x in zip(cargoes, loads))
    require(used <= volume * (1.0 + CAP_TOLERANCE), f"{inst.name}: volume {used} over the cap {volume}")
    if not stability:
        return
    gm = metacentric_height(inst, loads)
    require(gm >= inst.mu - GM_TOLERANCE, f"{inst.name}: GM {gm} below mu {inst.mu}")


def is_feasible(inst: Instance, loads: list[float]) -> bool:
    try:
        check_feasible(inst, loads)
    except CheckFailure:
        return False
    return True


def check_revenue(inst: Instance, loads: list[float], revenue: float, bound: float) -> None:
    expected = plan_revenue(inst, loads)
    require(
        abs(revenue - expected) <= REVENUE_TOLERANCE * max(1.0, abs(expected)),
        f"{inst.name}: reported revenue {revenue} is not p.x = {expected}",
    )
    require(
        revenue <= bound * BOUND_SLACK,
        f"{inst.name}: revenue {revenue} above the LP bound {bound}",
    )


def check_plan(inst: Instance, labels: list[str], loads: list[float], revenue: float,
               bound: float, stability: bool = True) -> None:
    """Labels in stack order, caps, GM, and revenue against the LP bound."""
    expected = [label for label, _, _ in stack(inst)]
    require(list(labels) == expected, f"{inst.name}: stack {list(labels)} is not {expected}")
    check_feasible(inst, loads, stability)
    check_revenue(inst, loads, revenue, bound)


def check_status(inst: Instance, status: str, kkt_satisfied: bool) -> None:
    wanted = "Optimal" if is_convex(inst) else "LocalOnly"
    require(status == wanted, f"{inst.name}: status {status}, expected {wanted}")
    require(bool(kkt_satisfied), f"{inst.name}: KKT report not satisfied")


def check_paper(inst: Instance, revenue: float) -> None:
    if inst.paper_revenue is not None:
        require(
            abs(revenue - inst.paper_revenue) <= PAPER_TOLERANCE,
            f"{inst.name}: revenue {revenue} is not the published {inst.paper_revenue}",
        )


def check_gm_report(inst: Instance, loads: list[float], reported: float) -> None:
    gm = metacentric_height(inst, loads)
    require(
        abs(reported - gm) <= 1e-7 * max(1.0, abs(gm)),
        f"{inst.name}: reported GM {reported} is not the box-hull {gm}",
    )


def check_certificate(inst: Instance, certified: bool) -> None:
    if is_convex(inst) or inst.paper_revenue is not None:
        require(certified is True, f"{inst.name}: the lattice did not certify the plan")


def check_lattice_best(inst: Instance, loads, revenue: float, bound: float) -> None:
    """A lattice best point is feasible and earns at most the LP bound."""
    if loads is None:
        return
    check_feasible(inst, list(loads))
    check_revenue(inst, list(loads), revenue, bound)


def check_classify(inst: Instance, report: dict) -> None:
    diagonal = congruent_diagonal(inst)
    require(report["definiteness"] == definiteness(diagonal),
            f"{inst.name}: definiteness {report['definiteness']}, expected {definiteness(diagonal)}")
    got = report["congruent_diagonal"]
    scale = max(abs(v) for v in diagonal)
    require(
        len(got) == len(diagonal)
        and all(abs(a - b) <= 1e-12 * scale for a, b in zip(got, diagonal)),
        f"{inst.name}: congruent diagonal {got}, expected {diagonal}",
    )
    require(report["labels"] == [label for label, _, _ in stack(inst)],
            f"{inst.name}: classify stack {report['labels']}")


def status_exit_code(status: str, certified: bool | None = None) -> int:
    """Documented codes: 0 optimal or certified, 2 local-only or uncertified, 3 infeasible."""
    if status == "Infeasible":
        return 3
    if status == "Optimal" or certified:
        return 0
    return 2


def expected_exit_code(command: str, report: dict) -> int:
    if command in ("classify", "lp"):
        return 0
    if command == "oracle":
        certification = report.get("certification") or {}
        return status_exit_code(report["status"], certification.get("certified"))
    if command == "sensitivity":
        if report["status"] == "Infeasible":
            return 3
        return max(status_exit_code(report["status"]), status_exit_code(report["perturbed_status"]))
    return status_exit_code(report["status"])


def check_cli(command: str, inst: Instance, code: int, report: dict, bound: float) -> float | None:
    """Check one CLI report; return the revenue of the plan it holds, if any."""
    wanted = expected_exit_code(command, report)
    require(code == wanted, f"{command} {inst.name}: exit code {code}, documented {wanted}")
    if command == "classify":
        check_classify(inst, report)
        return None
    if command == "sensitivity":
        check_status(inst, report["status"], True)
        check_paper(inst, report["base_revenue"])
        require(report["base_revenue"] <= bound * BOUND_SLACK,
                f"{inst.name}: base revenue above the LP bound {bound}")
        if is_convex(inst):
            require(
                report["perturbed_revenue"] <= report["base_revenue"] * (1.0 + REVENUE_TOLERANCE),
                f"{inst.name}: a larger margin earns more on a convex instance",
            )
        return float(report["base_revenue"])
    labels = [entry["label"] for entry in report["loads"]]
    loads = [float(entry["load"]) for entry in report["loads"]]
    check_plan(inst, labels, loads, float(report["revenue"]), bound, stability=command != "lp")
    if command == "lp":
        require(
            abs(report["revenue"] - bound) <= 1e-7 * max(1.0, bound),
            f"{inst.name}: LP revenue {report['revenue']} is not the vertex bound {bound}",
        )
        return None
    check_status(inst, report["status"], report["kkt"]["satisfied"])
    check_paper(inst, float(report["revenue"]))
    check_gm_report(inst, loads, float(report["metacentric_height"]))
    if command == "oracle":
        certification = report["certification"]
        check_certificate(inst, certification["certified"])
        lattice = certification["lattice_revenue"]
        if lattice is not None:
            require(lattice <= bound * BOUND_SLACK,
                    f"{inst.name}: lattice revenue {lattice} above the LP bound {bound}")
    return float(report["revenue"])
