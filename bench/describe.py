"""Print the make-up of each workload's inputs for one seed.

    python3 bench/describe.py 0

Sizes, orders, classes, ballast, dense cargoes, lattice steps and point
counts, and which lattices the oracle may prune by stability.  Only the
numbers inside each slot move with the seed; this make-up does not.
"""

import collections
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import ops  # noqa: E402


def order_kind(inst) -> str:
    return "explicit" if isinstance(inst.order, tuple) else inst.order


def describe(workload: str, seed: int) -> None:
    oplist = ops.workload_ops(workload, seed)
    instances = [op.instance for op in oplist]
    print(f"{workload}: {len(oplist)} operations per pass")
    sizes = collections.Counter(inst.size for inst in instances)
    print("  n (ballast included):", dict(sorted(sizes.items())))
    print("  orders:", dict(collections.Counter(order_kind(i) for i in instances)))
    classes = collections.Counter(checks.definiteness(checks.congruent_diagonal(i)) for i in instances)
    print("  classes:", dict(classes))
    print(f"  with ballast: {sum(i.ballast for i in instances)}")
    dense = sum(any(d > i.water_density for _, d, _ in i.cargoes) for i in instances)
    print(f"  with a cargo denser than water: {dense}")
    if workload == "cli":
        print("  commands:", dict(collections.Counter(op.invocation.command for op in oplist)))
    lattices = [i for i in instances if i.step is not None]
    for inst in lattices:
        print(f"  lattice {inst.name}: n {inst.size}, step {inst.step:.1f} t, "
              f"{checks.lattice_points(inst, inst.step):,} points, "
              f"stability pruning {'on' if checks.stability_prunable(inst) else 'off'}")
    if lattices:
        pruned = sum(checks.stability_prunable(i) for i in lattices)
        print(f"  lattices with stability pruning: {pruned} of {len(lattices)}")


if __name__ == "__main__":
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 0
    for name in ("market", "certify", "cli"):
        describe(name, seed)
