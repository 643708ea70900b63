"""Check the seeded workloads on ten seeds: every gate passes and every
Gram condition estimate stays below 1e12, well inside the library's 1e14
policy limit, so that a change to ``_solve_spd`` cannot flip pass/fail.

    python3 bench/check_seeds.py

Exits 1 if any seed fails.  mdm-decay draws nothing from the seed, so only
approx-spline and quad-gram are checked.
"""

import sys

import worker
from tracer import Tracer
from workloads import build

COND_LIMIT = 1e12
SEEDS = range(1, 11)
SEEDED = ("approx-spline", "quad-gram")


def main() -> int:
    bad = 0
    for workload in SEEDED:
        for seed in SEEDS:
            tracer = Tracer().install()
            try:
                records = worker.run_ops(build(workload, seed), tracer)
            finally:
                tracer.uninstall()
            cond = tracer.counters["worst_case._solve_spd.cond_max"]
            failed = [f"{r['name']}: {r['reason']}" for r in records if not r["ok"]]
            ok = not failed and cond < COND_LIMIT
            bad += not ok
            print(f"{workload} seed={seed} ops={len(records)} failed={len(failed)} "
                  f"cond_max={cond:.3e} {'ok' if ok else 'FAIL'} {failed or ''}", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
