"""Count, per seed, the family draws that the known faults F1 and F2 fail.

    python3 perfbench/faults.py [--seeds 1-10]

Run from the repository root.  family_sweep keeps only draws that
``inputs.clear_of_faults`` passes, because a failure that depends on the
seed would change the failed share from run to run.  This script runs the
draws it set aside, and the fixed fault cases, through the same operation
and checks, and prints how many fail with F1 (classify says unbounded where
the table says bounded), with F2 (the Laguerre kernel raises on an
overflowed argument), for another reason, or not at all.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import inputs  # noqa: E402
import ops  # noqa: E402
from reference import seed_range  # noqa: E402


def classify_failure(item) -> str:
    try:
        problem = ops.check_family(item, ops.run_family(item))
    except ValueError as exc:
        return "F2" if "Laguerre argument must be finite" in str(exc) else f"raised {exc!r}"
    if problem is None:
        return "passes"
    return "F1" if problem.startswith("bounded=False") else problem


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1-10")
    args = p.parse_args()
    warnings.simplefilter("ignore", RuntimeWarning)
    print("fixed fault cases (failed in every round):")
    for label, *family in inputs.FAULT_CASES:
        print(f"  {label} {tuple(family)}: {classify_failure((label, *family))}")
    print("\n| seed | kept | set aside | F1 | F2 | other | passes |")
    print("|---|---|---|---|---|---|---|")
    for seed in seed_range(args.seeds):
        kept, aside = inputs.family_draws(seed)
        tally = Counter(classify_failure((None, *f)) for f in aside)
        other = sum(v for k, v in tally.items() if k not in ("F1", "F2", "passes"))
        print(f"| {seed} | {len(kept)} | {len(aside)} | {tally['F1']} | {tally['F2']} "
              f"| {other} | {tally['passes']} |")
        for k, v in tally.items():
            if k not in ("F1", "F2", "passes"):
                print(f"|   | other: {k} x{v} | | | | | |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
