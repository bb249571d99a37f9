"""Seeded inputs of the three workloads, as plain data.

Nothing here imports shipload: the instances are what a user would hand
the program, and the checks in ``checks.py`` read the same plain data.
The make-up of every list (how many instances, their sizes, orders,
ballast and density classes) is fixed; the seed only draws the numbers
inside each slot, so the mix an operation median rests on is the same for
every seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = CHECKOUT / "src" / "shipload" / "scenarios"

# Revenues of the published case study (README table), keyed by
# (order, mu); the table prints them to 0.1.
PAPER_REVENUES = {
    ("normal", 4.0): 234461.9,
    ("normal", 6.0): 185541.6,
    ("reverse", 4.0): 226331.0,
    ("reverse", 6.0): 182617.4,
}
PAPER_TOLERANCE = 0.05

VESSEL_FIELDS = ("length", "beam", "deadweight", "volume_capacity", "light_mass", "light_kg")


@dataclass(frozen=True)
class Instance:
    """One loading instance as a user states it.

    ``order`` is "normal", "reverse" or a tuple of 0-based input
    positions listed bottom to top.  ``step`` is the lattice spacing of a
    certify operation.  ``paper_revenue`` is set on the case-study rows.
    """

    name: str
    vessel: tuple[float, ...]
    water_density: float
    mu: float
    cargoes: tuple[tuple[str, float, float], ...]
    order: object
    ballast: bool
    step: float | None = None
    paper_revenue: float | None = None

    @property
    def size(self) -> int:
        """Number of stacked cargo types, ballast included."""
        return len(self.cargoes) + (1 if self.ballast else 0)


def load_scenario(name: str) -> dict:
    """A bundled scenario file, read as JSON."""
    return json.loads((SCENARIO_DIR / name).read_text(encoding="utf-8"))


def scenario_instance(name: str, order: str, mu: float | None = None,
                      ballast: bool = True, step: float | None = None) -> Instance:
    doc = load_scenario(name)
    margin = float(doc["mu"] if mu is None else mu)
    # No case-study row loads ballast, so the published revenues hold
    # with and without it.
    paper = PAPER_REVENUES.get((order, margin)) if name == "clarkson3500.json" else None
    tag = "" if ballast else "-noballast"
    return Instance(
        name=f"{name.split('.')[0]}-{order}-mu{margin:g}{tag}",
        vessel=tuple(float(doc["vessel"][f]) for f in VESSEL_FIELDS),
        water_density=float(doc.get("water_density", 1.0)),
        mu=margin,
        cargoes=tuple((c["label"], float(c["density"]), float(c["freight_rate"]))
                      for c in doc["cargoes"]),
        order=order,
        ballast=ballast,
        step=step,
        paper_revenue=paper,
    )


def paper_rows(ballast: bool = True, step: float | None = None) -> list[Instance]:
    return [
        scenario_instance("clarkson3500.json", order, mu, ballast, step)
        for order in ("normal", "reverse")
        for mu in (4.0, 6.0)
    ]


JITTER = 0.02


class Draw:
    """Values of one random instance: a fixed template, jittered by the seed.

    ``uniform`` draws a template value from the workload's fixed template
    generator and scales it by a factor within 1 +- JITTER drawn from the
    seeded generator.  The templates fix what the medians rest on (sizes,
    orders, which constraints can bind); the seed moves every number.
    """

    def __init__(self, template: random.Random, seeded: random.Random) -> None:
        self.template = template
        self.seeded = seeded

    def uniform(self, low: float, high: float) -> float:
        return self.template.uniform(low, high) * (1.0 + self.seeded.uniform(-JITTER, JITTER))


def random_instance(draw: Draw, name: str, n: int, order: str, ballast: bool,
                    dense: str = "none", step_levels: int | None = None) -> Instance:
    """A box-hull vessel and an n-cargo market with a feasible empty vessel.

    The hull is sized so that the full-load draft stays near 0.35-0.6 of
    the beam.  ``dense`` is "none" (every cargo lighter than water), "one"
    (one cargo denser than water) or "all".  ``order`` "explicit" stacks
    the cargoes by a fixed permutation of their density ranks that is
    neither the normal nor the reverse order.  With ``step_levels`` the
    lattice step divides the deadweight into that many levels.
    """
    rho = 1.0 + 0.025 * draw.template.random()
    length = draw.uniform(60.0, 300.0)
    beam = length / draw.uniform(5.5, 8.0)
    area = beam * length
    full_draft = draw.uniform(0.35, 0.6) * beam
    displacement = rho * area * full_draft
    light = draw.uniform(0.2, 0.4) * displacement
    deadweight = displacement - light
    light_kg = draw.uniform(0.15, 0.3) * beam

    # Jitter keeps light cargoes below 1.0 t/m3 and dense ones above 1.025.
    densities = [draw.uniform(0.35, 0.9) for _ in range(n)]
    if dense == "one":
        densities[draw.template.randrange(n)] = draw.uniform(1.25, 2.5)
    elif dense == "all":
        densities = [draw.uniform(1.25, 2.5) for _ in range(n)]
    rates = [draw.uniform(2.0, 10.0) for _ in range(n)]
    stowage = sum(1.0 / d for d in densities) / n
    volume = deadweight * stowage * draw.uniform(0.6, 1.1)

    light_draft = light / (rho * area)
    mu_cap = light_draft / 2.0 + beam * beam / (12.0 * light_draft) - light_kg
    mu = draw.uniform(0.2, 0.75) * mu_cap

    positions: object = order
    if order == "explicit":
        while True:
            ranks = list(range(n))
            draw.template.shuffle(ranks)
            if ranks != sorted(ranks) and ranks != sorted(ranks, reverse=True):
                break
        by_density = sorted(range(n), key=lambda i: -densities[i])
        positions = tuple(by_density[r] for r in ranks)

    step = None
    if step_levels is not None:
        step = deadweight / step_levels
    return Instance(
        name=name,
        vessel=(length, beam, deadweight, volume, light, light_kg),
        water_density=rho,
        mu=mu,
        cargoes=tuple((f"c{i + 1}", densities[i], rates[i]) for i in range(n)),
        order=positions,
        ballast=ballast,
        step=step,
    )


# (cargo count, order, ballast, dense) slots of the market list.
MARKET_SLOTS = (
    [(n, "normal", ballast, "none") for n in range(1, 13) for ballast in (True, False)]
    + [(21, "normal", True, "none"), (41, "normal", False, "none")]
    + [(n, "reverse", ballast, "none") for n, ballast in
       ((2, True), (3, False), (4, True), (5, False), (6, True), (8, False), (10, True), (12, False))]
    + [(n, "explicit", ballast, "none") for n, ballast in ((3, True), (4, False), (6, True), (9, False))]
    + [(n, "normal", ballast, "one") for n, ballast in ((2, False), (4, True), (6, False))]
    + [(n, "reverse", ballast, "all") for n, ballast in ((2, True), (3, False))]
    + [(21, "reverse", False, "none"), (41, "reverse", False, "none")]
)

# (cargo count, order, ballast, dense, lattice levels) slots of the
# certify list; the levels put every lattice near 2e6 mass-feasible points.
CERTIFY_SLOTS = (
    (2, "normal", True, "none", 226),
    (4, "normal", False, "none", 83),
    (3, "reverse", True, "none", 83),
    (5, "reverse", False, "none", 45),
    (4, "normal", False, "one", 83),
    (3, "reverse", False, "all", 226),
)

CLARKSON_STEP_NO_BALLAST = 500.0
CLARKSON_STEP_BALLAST = 1000.0
COASTAL_STEP = 15.0


def market_fixed() -> list[Instance]:
    """The four case-study rows and coastal_feeder, as the CLI states them."""
    return paper_rows() + [scenario_instance("coastal_feeder.json", "normal")]


def market_instances(seed: int) -> list[Instance]:
    draw = Draw(random.Random("market template"), random.Random(f"market:{seed}"))
    fixed = market_fixed()
    drawn = [
        random_instance(draw, f"m{k:02d}-n{n}-{order}{'-ballast' if ballast else ''}-{dense}",
                        n, order, ballast, dense)
        for k, (n, order, ballast, dense) in enumerate(MARKET_SLOTS)
    ]
    return fixed + drawn


def certify_instances(seed: int) -> list[Instance]:
    draw = Draw(random.Random("certify template"), random.Random(f"certify:{seed}"))
    fixed = (
        paper_rows(ballast=False, step=CLARKSON_STEP_NO_BALLAST)
        + paper_rows(ballast=True, step=CLARKSON_STEP_BALLAST)
        + [scenario_instance("coastal_feeder.json", "normal", step=COASTAL_STEP)]
    )
    drawn = [
        random_instance(draw, f"c{k:02d}-n{n}-{order}{'-ballast' if ballast else ''}-{dense}",
                        n, order, ballast, dense, step_levels=levels)
        for k, (n, order, ballast, dense, levels) in enumerate(CERTIFY_SLOTS)
    ]
    return fixed + drawn


@dataclass(frozen=True)
class Invocation:
    """One command line of the cli workload and the instance it states."""

    argv: tuple[str, ...]
    instance: Instance
    command: str


CLI_SCENARIOS = ("clarkson3500.json", "coastal_feeder.json")
# Lattice steps that keep the default ballast and stay under the oracle's
# point cap; the default step of 250 t is refused on clarkson3500.
CLI_ORACLE_STEPS = {"clarkson3500.json": 2000.0, "coastal_feeder.json": 50.0}
CLI_COMMANDS = ("classify", "lp", "solve", "oracle", "sensitivity")


def cli_invocations(seed: int) -> list[Invocation]:
    """Every command on both bundled scenarios in both orders, seed-shuffled."""
    calls = []
    for name in CLI_SCENARIOS:
        for order in ("normal", "reverse"):
            for command in CLI_COMMANDS:
                step = CLI_ORACLE_STEPS[name] if command == "oracle" else None
                argv = [command, name, "--order", order, "--format", "json"]
                if step is not None:
                    argv += ["--step", f"{step:g}"]
                calls.append(Invocation(tuple(argv), scenario_instance(name, order, step=step), command))
    random.Random(f"cli:{seed}").shuffle(calls)
    return calls
