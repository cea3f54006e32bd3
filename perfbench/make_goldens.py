"""Regenerate goldens.json: the outcome of every workload at seeds 0..N.

    python3 perfbench/make_goldens.py [N]

Run it only when a change means to alter the simulator's behaviour, and say
so in CHANGES.md; a change that keeps behaviour leaves goldens.json
byte-identical.
"""

import argparse
import json
import sys

from golden import GOLDENS_PATH, outcome
from run import import_program
from workloads import GENERATORS


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("last_seed", type=int, nargs="?", default=32)
    args = ap.parse_args()
    pkg = import_program()
    goldens = {}
    for workload, gen in GENERATORS.items():
        goldens[workload] = {}
        for seed in range(args.last_seed + 1):
            sim = pkg.Simulation(pkg.load_scenario(gen(seed)))
            goldens[workload][str(seed)] = outcome(pkg, sim.run())
    with open(GOLDENS_PATH, "w") as f:
        json.dump(goldens, f, indent=1)
        f.write("\n")
    print(f"wrote {GOLDENS_PATH} (seeds 0-{args.last_seed} x "
          f"{len(GENERATORS)} workloads)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
