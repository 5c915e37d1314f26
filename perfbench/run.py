"""Paper-flow benchmark: train -> generate -> verify -> re-verify ->
classify -> compact, timed end to end or traced per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload nmnist_flow --seed 0 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; progress and the
host record go to standard error.  ``--trace 1`` reports per-layer
metrics instead of end-to-end ones and writes a Chrome trace-event file
under ``.perfbench_traces/``.  ``--smoke`` runs the ``tiny`` definitions.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import atexit
import json
import os
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402  (numpy-free)


def _log(message: str) -> None:
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


#: BLAS threads per process.  One keeps workers x threads within the
#: cores in the 2-worker workload, and steadies the serial ones on a
#: shared host; on the nmnist verify 1 and 2 threads measured the same.
BLAS_THREADS = 1


def _pin_environment() -> None:
    """Pin the BLAS thread count before numpy loads, and drop every
    ``REPRO_*`` knob so that the program runs its defaults."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    for var in [v for v in os.environ if v.startswith("REPRO_")]:
        del os.environ[var]


def _source_revision() -> str:
    """Git revision when the checkout is a repository, else a digest of
    the program's source files."""
    import hashlib
    import subprocess

    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
            # Never report the revision of a repository around the checkout.
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        digest = hashlib.sha256()
        for path in sorted((ROOT / "src").rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
        return "src-sha256:" + digest.hexdigest()[:16]


def _host_record() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "revision": _source_revision(),
    }


def _stop_resource_tracker() -> None:
    """Stop multiprocessing's resource-tracker process and reap it.

    The 2-worker campaigns hand results back through shared memory,
    which starts the tracker: a helper process that ends only once every
    holder of its pipe has exited, so without this it outlives the run.
    Registered with ``atexit`` before the program loads, so it runs after
    the program's own exit handlers (the shared-memory sweep among them),
    none of which could then start the tracker again.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="timed stages to measure; a run does whole rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny definitions, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        _log(f"no program source under {ROOT / 'src'}; run from a source checkout")
        return 2
    workload = WORKLOADS[args.workload]
    _pin_environment()
    atexit.register(_stop_resource_tracker)
    # A terminated run still stops its campaign workers and removes its
    # scratch directory (both happen in ``finally`` blocks).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.path.insert(0, str(ROOT / "src"))

    import shutil
    import tempfile

    import flow
    import tracing

    _log("host " + json.dumps(_host_record()))
    runs = ROOT / ".perfbench_runs"
    runs.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload.name}-s{args.seed}-", dir=runs))
    tracer = tracing.Tracer() if args.trace else None
    try:
        runner = flow.Flow(workload, args.seed, scratch, smoke=args.smoke,
                           tracer=tracer, log=_log)
        if tracer is not None:
            with tracing.Instrumentation(tracer):
                result = runner.run(args.seconds)
            traces = ROOT / ".perfbench_traces"
            traces.mkdir(exist_ok=True)
            path = traces / f"{workload.name}-seed{args.seed}.json"
            tracer.write_chrome_trace(str(path))
            _log(f"trace written to {path}")
            metrics = flow.per_layer(tracer, result)
        else:
            result = runner.run(args.seconds)
            metrics = flow.end_to_end(result)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    checks = runner.checks
    print(json.dumps({
        "correct": checks.correct,
        "attempted": checks.attempted,
        "failed": sum(checks.failed.values()),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
