"""Settings shared by the benchmark command and the dataset builder.

Importing this module puts the checkout's ``src`` directory first on
``sys.path`` so that ``cfplan`` is imported from source, never from an
installed copy.  It exits with status 2 when the checkout holds no package.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

if not (SRC / "cfplan" / "__init__.py").is_file():
    print(f"perfbench: no cfplan package under {SRC}", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(SRC))

#: planner settings of the acceptance fixtures, used by every workload
PLANNER = {"n_agents": 7, "horizon": 20, "replan_every": 20, "max_steps": 600}

#: desk seeds labeled into the stored inference dataset.  desk-label draws
#: its scenes from [LABEL_SEED_BASE, QUERY_SEED_BASE) and desk-plan its
#: queries from [QUERY_SEED_BASE, 2 * QUERY_SEED_BASE), so no two meet.
TRAIN_SEEDS = (0, 1, 2, 3, 4, 5)
TRAIN_BUDGET = (8, 12)  # Sobol + guided evaluations per training scene
LABEL_SEED_BASE = 1_000_000
QUERY_SEED_BASE = 2_000_000

DATASET = BENCH_DIR / "data" / "desk_train.jsonl"
WORK_DIR = ROOT / ".perfbench"
