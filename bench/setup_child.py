"""Set-up of one workload in a fresh interpreter, timed by run.py.

Imports shipload (and its CLI for the cli workload) and assembles every
problem of the workload's list, then exits.  Run from a checkout root
with ``src`` on PYTHONPATH:

    python3 bench/setup_child.py market 1
"""

import importlib
import sys

import shipload

import ops


def main(workload: str, seed: int) -> int:
    if workload == "cli":
        importlib.import_module("shipload.cli")
    oplist = ops.workload_ops(workload, seed)
    for op in oplist:
        shipload.assemble_problem(*ops.program_inputs(shipload, op.instance))
    print(len(oplist))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], int(sys.argv[2])))
