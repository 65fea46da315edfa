"""cutflip benchmark entry point.

    python3 perfbench/run.py --workload nbhd --seed 1 --seconds 30 --trace 0

Runs from a checkout of the repository and imports ``cutflip`` from its
``src/``; without those sources it exits with code 2 before measuring
anything. See bench.py for what a run does and README.md for the workloads.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description="cutflip benchmark: one workload, closed loop")
    p.add_argument("--workload", required=True, choices=("nbhd", "large", "desk"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--panel-seed", type=int, default=0,
                   help="graph panel of nbhd and desk (held-out panel: 1)")
    p.add_argument("--smoke", action="store_true", help="toy sizes, for the smoke test")
    return p.parse_args(argv)


def import_cutflip() -> bool:
    """Import the package from this checkout's src/; False if that fails."""
    if not (SRC / "cutflip" / "harness.py").is_file():
        print(f"error: no cutflip sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    import cutflip.harness

    if Path(cutflip.harness.__file__).resolve().parent != SRC / "cutflip":
        print(f"error: imported cutflip from {cutflip.harness.__file__}, not {SRC}",
              file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    args = parse_args(argv)
    if not import_cutflip():
        return 2
    sys.path.insert(0, str(HERE))
    import bench

    return bench.run(args)


if __name__ == "__main__":
    sys.exit(main())
