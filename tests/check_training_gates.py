"""The benchmark's gates on freshly trained weights: `run_benchmark(seed)`
trains on the seed's frozen corpus and ranks its frozen eval set.

    PYTHONPATH=src:tests python tests/check_training_gates.py 1 2 3

Prints each method's mAP and each gate (`helpers.gate_results`) per seed,
writes nothing, and exits 1 if any gate fails.  A seed takes 95-110 s on a
2-core Xeon.  Tier-1 checks the gates with the committed
checkpoint (tests/test_frozen_maps.py) and the training bits at 4 steps per
epoch (tests/test_train.py), but trains no full model.
"""

from __future__ import annotations

import sys

from helpers import gate_results
from rrt.benchmark import run_benchmark


def main(argv: list[str]) -> int:
    failed = 0
    for seed in map(int, argv or ["1"]):
        maps = {name: rep.map for name, rep in run_benchmark(seed)["reports"].items()}
        print(f"seed {seed}: " + ", ".join(f"{name} {m:.4f}" for name, m in maps.items()), flush=True)
        for gate, held in gate_results(maps).items():
            print(f"  {gate}: {'holds' if held else 'FAILS'}", flush=True)
            failed += not held
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
