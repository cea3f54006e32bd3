"""Fresh-interpreter probe for set-up time and peak memory.

    python3 perfbench/child.py setup < scenario.txt
    python3 perfbench/child.py run < scenario.txt

`setup` times what a command-line user waits for before the first event:
from before `import wsnhandoff`, through `load_scenario(text)` and
`Simulation(scenario)` construction.  `run` also runs the simulation and
adds the run's outcome and the process's peak resident set size.  Prints one
JSON object.
"""

import json
import resource
import sys
import time
from pathlib import Path

from golden import outcome

SRC = Path(__file__).resolve().parent.parent / "src"


def main(mode: str) -> int:
    text = sys.stdin.read()
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import wsnhandoff
    sim = wsnhandoff.Simulation(wsnhandoff.load_scenario(text))
    result = {"setup_s": time.perf_counter() - t0}
    if mode == "run":
        result.update(outcome(wsnhandoff, sim.run()))
        # ru_maxrss is in KiB on Linux.
        result["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
