#!/usr/bin/env python
"""Run every verification suite plus the bound table and print a summary.

The first line reports one cold import of `bubblecross.cli`, made by a
fresh interpreter with this process's environment (and so its
PYTHONPATH): its time and the `bubblecross.*` modules it loaded.  One
`graphs:` line times `build_bn(8)`, `build_bprime(8)` and
`symmetry_classes(6)`, sizes that keep the whole run short, and one
`mesh:` line times `oracle_crossings` on a seeded n=30 spec and
`mesh_svg` on a seeded n=12 spec.  The
bound table is checked through `TABLE_LIMIT`, and the script prints
the range and the seconds it took.  Exits nonzero if any suite fails or
the table's three evaluations ever disagree.  The heavy suite is lemma45,
the sweep over every lost-side plan through n=14; the whole run takes a
few seconds.
"""

import random
import subprocess
import sys
import time

from bubblecross import bounds, graphs, mesh, verify
from bubblecross.config import DEFAULT_SEED, TABLE_LIMIT

IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); import bubblecross.cli; "
    "print(time.perf_counter() - t, "
    "*sorted(m for m in sys.modules if m.startswith('bubblecross')))"
)


def cold_import_line() -> str:
    seconds, *loaded = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True,
                                      text=True, check=True).stdout.split()
    return (f"cold import: bubblecross.cli in {float(seconds) * 1000:.1f} ms, "
            f"loads {', '.join(loaded)}")


def _seconds(fn, *args) -> float:
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def graphs_line() -> str:
    return (f"graphs: build_bn(8) {_seconds(graphs.build_bn, 8):.2f}s, "
            f"build_bprime(8) {_seconds(graphs.build_bprime, 8):.2f}s, "
            f"symmetry_classes(6) {_seconds(graphs.symmetry_classes, 6):.2f}s")


def _seeded_spec(rng: random.Random, n: int) -> mesh.MeshSpec:
    ks = list(range(2, n))
    rng.shuffle(ks)
    return mesh.MeshSpec(n, rng.randint(0, n - 2), tuple(ks))


def mesh_line() -> str:
    rng = random.Random(DEFAULT_SEED)
    return (f"mesh: oracle_crossings(n=30) "
            f"{_seconds(mesh.oracle_crossings, _seeded_spec(rng, 30)):.3f}s, "
            f"mesh_svg(n=12) {_seconds(mesh.mesh_svg, _seeded_spec(rng, 12)):.3f}s")


def main() -> int:
    print(cold_import_line())
    failures = 0
    for name in sorted(verify.SUITES):
        start = time.perf_counter()
        report = verify.run_suite(name, seed=DEFAULT_SEED)
        for line in report.lines:
            print(line)
        seconds = time.perf_counter() - start
        print(f"{name}: {'ok' if report.passed else 'FAILED'} ({report.cases} cases) "
              f"in {seconds:.1f}s")
        failures += 0 if report.passed else 1

    print(graphs_line())
    print(mesh_line())
    start = time.perf_counter()
    rows = bounds.bound_table(TABLE_LIMIT)
    seconds = time.perf_counter() - start
    print(f"bounds: triple equality holds for n=7..{rows[-1].n} in {seconds:.2f}s")
    print(f"bounds: n=7 {rows[0].bound}, n=8 {rows[1].bound}, "
          f"n={rows[-1].n} has {len(str(rows[-1].bound))} digits")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
