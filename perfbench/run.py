"""Sweep benchmark of the opridge ``rates`` pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload template-sweep --seed 1 --seconds 25 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced serial run; BENCHMARK.json lists both. The last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics. The exit code is 0 only when every correctness check passed.
Run details (machine facts, per-call walls, spans) go to stderr and to
``.perfbench_work/`` at the repository root.
"""

import os

# BLAS reads its thread count when numpy loads, here and in every worker
# spawned later; set it outright so that a user's export cannot change
# what is measured.
for _var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from multiprocessing import resource_tracker  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload of BENCHMARK.json")
    parser.add_argument("--seed", type=int, required=True,
                        help="workload seed, passed to opridge as --seed")
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long to keep repeating the measured work")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def main(argv: list[str] | None = None) -> int:
    loadavg_start = os.getloadavg()
    parser = _parser()
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must lie in [0, 2^64)")
    src = ROOT / "src"
    if not (src / "opridge" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no opridge sources under {src}\n")
        return 2
    # Spawned workers start with this process's sys.path.
    sys.path.insert(0, str(src))

    import bench

    if args.workload not in bench.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(bench.WORKLOADS)}")
    w = bench.WORKLOADS[args.workload]
    facts = bench.machine_facts(loadavg_start)
    sys.stderr.write("machine " + json.dumps(facts, sort_keys=True) + "\n")
    measure = bench.measure_traced if args.trace else bench.measure_e2e
    try:
        result = measure(w, args.seed, args.seconds, ROOT / ".perfbench_work")
    except Exception:  # report, print no result, exit nonzero
        traceback.print_exc()
        return 1
    finally:
        # The pools' joined workers are gone; multiprocessing's resource
        # tracker would outlive this process by a moment, so stop and reap it.
        stop = getattr(resource_tracker._resource_tracker, "_stop", None)
        if stop is not None:
            stop()
    (result.work / "machine.json").write_text(json.dumps(facts, indent=2) + "\n")
    for name, value in result.metrics.items():
        sys.stderr.write(f"{w.name} {name} = {value:.6g} {result.units[name]}\n")
    for failure in result.checker.failures:
        sys.stderr.write(f"FAILED {failure}\n")
    sys.stdout.write(result.line() + "\n")
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
