"""Record the golden outputs the benchmark compares against: a digest of the
exit code and stdout of every operation, per workload and seed.

Run from the repository root, at a commit whose outputs are the contract:

    python3 perfbench/capture_golden.py --first 0 --last 39

Existing entries for other seeds are kept. An operation whose output fails
its own check is not recorded, and the script exits with code 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first", type=int, required=True)
    parser.add_argument("--last", type=int, required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path.cwd() / "src"))

    golden = json.loads(run.GOLDEN.read_text()) if run.GOLDEN.is_file() else {}
    for name, workload in run.WORKLOADS.items():
        for seed in range(args.first, args.last + 1):
            out_dir = run.HERE / "out" / f"{name}-{seed}"
            cli, built = run.setup(workload, seed, out_dir, repeats=1)[:2]
            runner = run.Runner(workload, seed, built, cli)
            runner.golden = None
            runner.run_pass()
            if runner.failures:
                print(f"{name} seed {seed}: {runner.failures}", file=sys.stderr)
                return 1
            golden.setdefault(name, {})[str(seed)] = runner.first_digests
            print(f"{name} seed {seed}: {len(runner.first_digests)} operations")
    run.GOLDEN.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
