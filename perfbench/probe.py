"""Set-up probe: one fresh interpreter doing what a run does before its first
score evaluation (import madm, expand the config, generate the dataset, build
the oracle).  Prints the perf_counter stamp after each phase as JSON; the
caller started its clock before launching this process.

    python3 perfbench/probe.py <workload> <seed> [full|tiny]
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import madm  # noqa: E402,F401
from time import perf_counter  # noqa: E402

t_import = perf_counter()

sys.path.insert(0, str(Path(__file__).resolve().parent))
import json  # noqa: E402

import workloads  # noqa: E402

w = workloads.Workload(sys.argv[1], int(sys.argv[2]),
                       sys.argv[3] if len(sys.argv) > 3 else "full")
t_config, t_dataset, t_oracle = w.setup()
print(json.dumps({"import": t_import, "config": t_config,
                  "dataset": t_dataset, "oracle": t_oracle}))
