#!/usr/bin/env python
"""Nightly long-budget differential fuzzing.

Generates a large seeded batch of random Zeus programs (multiplex nets
with guarded drivers, REG pipelines, FOR/WHEN meta-programmed
replication -- see :mod:`repro.analysis.fuzzgen`) and runs the
three-engine differential check on each: dataflow is the oracle;
levelized and the codegen lane kernel must agree observation for
observation (the kernel lane by lane).

Reproducibility: the base seed defaults to the UTC date (YYYYMMDD), so
re-running the same nightly locally replays the same programs; pass
``--seed`` to pin it explicitly.  Every failure is shrunk with
statement-level delta debugging and written into ``--out`` as

* ``fail-<seed>.zeus``      -- the minimal reproducing program,
* ``fail-<seed>.orig.zeus`` -- the unshrunk original,
* ``fail-<seed>.txt``       -- the mismatch detail and replay command,

which CI uploads as artifacts.  Exit status 1 when anything failed.

Usage::

    PYTHONPATH=src python scripts/fuzz_nightly.py \
        --budget 2000 --out fuzz-artifacts
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from datetime import datetime, timezone

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.analysis.fuzzgen import (  # noqa: E402
    default_failure_predicate,
    differential_check,
    generate_program,
    shrink,
)

CYCLES = 4
VECTORS = 8


def run(base_seed: int, budget: int, out_dir: str) -> int:
    os.makedirs(out_dir, exist_ok=True)
    failures = 0
    t0 = time.time()
    for i in range(budget):
        seed = base_seed * 1_000_000 + i
        prog = generate_program(seed)
        res = differential_check(
            prog.text, cycles=CYCLES, n_vectors=VECTORS, seed=seed
        )
        if res.ok:
            continue
        failures += 1
        print(f"FAIL seed {seed}: {res.detail}")
        failing = default_failure_predicate(
            cycles=CYCLES, n_vectors=VECTORS, seed=seed
        )
        small = shrink(prog, failing)
        with open(os.path.join(out_dir, f"fail-{seed}.zeus"), "w") as f:
            f.write(small.text)
        with open(os.path.join(out_dir, f"fail-{seed}.orig.zeus"), "w") as f:
            f.write(prog.text)
        with open(os.path.join(out_dir, f"fail-{seed}.txt"), "w") as f:
            f.write(
                f"seed: {seed}\ndetail: {res.detail}\n"
                f"replay: PYTHONPATH=src python scripts/fuzz_nightly.py "
                f"--seed {base_seed} --budget {i + 1}\n"
            )
    elapsed = time.time() - t0
    print(
        f"fuzzed {budget} programs in {elapsed:.0f}s "
        f"(base seed {base_seed}): {failures} failure(s)"
    )
    return 1 if failures else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--seed", type=int, default=None,
        help="base seed (default: UTC date as YYYYMMDD)",
    )
    ap.add_argument(
        "--budget", type=int, default=2000,
        help="number of programs to generate and check (default 2000)",
    )
    ap.add_argument(
        "--out", default="fuzz-artifacts",
        help="directory for shrunken failing programs (default fuzz-artifacts)",
    )
    args = ap.parse_args(argv)
    base_seed = args.seed
    if base_seed is None:
        base_seed = int(datetime.now(timezone.utc).strftime("%Y%m%d"))
    return run(base_seed, args.budget, args.out)


if __name__ == "__main__":
    raise SystemExit(main())
