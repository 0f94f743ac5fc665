"""One-command quick run of every tracked benchmark against its baseline.

CI used to carry one near-identical step per benchmark; this runner dedupes
them: it discovers every ``benchmarks/*_bench.py`` with a committed
``benchmarks/BENCH_<name>_quick.json`` baseline, runs each in quick mode in
a subprocess with ``--output /tmp/BENCH_<name>.json --check <baseline>``,
and exits non-zero if any benchmark reports a regression.

Usage::

    PYTHONPATH=src python benchmarks/bench_smoke.py            # run all
    PYTHONPATH=src python benchmarks/bench_smoke.py faults serving
    PYTHONPATH=src python benchmarks/bench_smoke.py --list
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def discover() -> dict:
    """Benchmark name → (script, quick baseline), for every committed pair."""
    benches = {}
    for script in sorted(BENCH_DIR.glob("*_bench.py")):
        name = script.stem[: -len("_bench")]
        baseline = BENCH_DIR / f"BENCH_{name}_quick.json"
        if baseline.exists():
            benches[name] = (script, baseline)
    return benches


def run_one(name: str, script: Path, baseline: Path, output_dir: Path) -> int:
    output = output_dir / f"BENCH_{name}.json"
    command = [
        sys.executable,
        str(script),
        "--quick",
        "--output",
        str(output),
        "--check",
        str(baseline),
    ]
    print(f"=== {name}: {' '.join(command[1:])}", flush=True)
    return subprocess.call(command)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*",
                        help="benchmarks to run (default: every discovered one)")
    parser.add_argument("--list", action="store_true",
                        help="list discovered benchmarks and exit")
    parser.add_argument("--output-dir", default="/tmp", metavar="DIR",
                        help="where per-benchmark result JSONs are written")
    arguments = parser.parse_args(argv)

    benches = discover()
    if arguments.list:
        for name in benches:
            print(name)
        return 0
    unknown = sorted(set(arguments.names) - set(benches))
    if unknown:
        print(
            f"error: unknown benchmark(s) {', '.join(unknown)}; "
            f"available: {', '.join(benches)}",
            file=sys.stderr,
        )
        return 2
    selected = arguments.names or list(benches)
    output_dir = Path(arguments.output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)

    failed = []
    for name in selected:
        script, baseline = benches[name]
        if run_one(name, script, baseline, output_dir) != 0:
            failed.append(name)
    if failed:
        print(f"FAILED: {', '.join(failed)}", file=sys.stderr)
        return 1
    print(f"[{len(selected)} benchmark(s) passed]", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
