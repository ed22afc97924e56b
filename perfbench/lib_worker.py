"""Child process of the solve-lib workload: library calls, no parsing.

    python3 perfbench/lib_worker.py --seed S --seconds T [--import-only] ...

Set-up is timed first: ``import tuning`` (numpy included, as a library
user pays it), then building the ChainSpecs from the generated arrays,
repeated; the generation itself is not timed. Then ops run in a closed
loop for T seconds, each ``solve_tuning`` followed by
``refute_with_random_strategies``. One JSON document goes to stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import import_tuning  # noqa: E402  (stdlib only, no numpy)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--chains", type=int, required=True)
    parser.add_argument("--boundary-mass", type=float, required=True)
    parser.add_argument("--refute-samples", type=int, required=True)
    parser.add_argument("--import-only", action="store_true", help="time import tuning and exit")
    args = parser.parse_args()

    start = time.perf_counter()
    tuning = import_tuning()
    import_s = time.perf_counter() - start
    if args.import_only:
        print(json.dumps({"import_s": import_s}))
        return 0

    from perfbench import gen
    from perfbench.workloads import SETUP_REPEATS, lib_op

    chains = gen.solve_lib_chains(args.seed, args.n, args.chains, args.boundary_mass)
    builds = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        specs = [tuning.ChainSpec(n_internal=args.n, **arrays) for arrays in chains]
        builds.append(time.perf_counter() - start)
    del chains
    doc = {"import_s": import_s, "build_s": builds, "ops": []}

    start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - start < args.seconds:
        wall, cpu = time.perf_counter(), time.process_time()
        result = lib_op(tuning, specs[k % args.chains], args.refute_samples, gen.op_seed(args.seed, k))
        result["wall"] = time.perf_counter() - wall
        result["cpu"] = time.process_time() - cpu
        doc["ops"].append(result)
        k += 1
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
