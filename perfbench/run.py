"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload serve-zipf --seed 1 --seconds 5 --trace 0

Run it from the repository root (the checkout that holds ``perfbench/``
and ``lucene_ray/``).  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 0`` the
metrics are the end-to-end ones named in BENCHMARK.json, with ``--trace 1``
the per-layer ones.  Progress and failures go to standard error.  Without
an importable ``lucene_ray`` the program exits with code 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
import time

# the checkout this file sits in: the engine and the work directory live there
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _metrics(pairs: dict) -> dict:
    """name -> {value, unit}; a metric every attempt behind which failed
    (NaN) reads -1, and the run's failed count says why."""
    out = {}
    for name, (value, unit) in pairs.items():
        v = float(value)
        out[name] = {"value": v if math.isfinite(v) else -1.0, "unit": unit}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, ROOT)
    # Ray workers import the engine from the checkout too
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    try:
        import lucene_ray  # noqa: F401
    except ImportError as e:
        print(f"perfbench: cannot import lucene_ray from {ROOT}: {e}", file=sys.stderr)
        return 2

    from perfbench import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    run = wl.Run(ROOT, args.workload, args.seed, args.seconds, bool(args.trace))
    t0 = time.perf_counter()
    try:
        with wl.RssSampler() as rss:
            r = wl.execute(run)
            run.peak_rss_mb = rss.stop()
        if args.trace:
            from perfbench.traced import pool_layers

            metrics = {**r["layers"], **pool_layers(run, r)}
            run.dump_spans(os.path.join(
                ROOT, ".perfbench_work", f"spans-{args.workload}-s{args.seed}.jsonl"))
        else:
            metrics = wl.end_to_end(run, r)
        run.teardown(r["svc"])
    except wl.PhaseError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        run.teardown(None)
        return 1
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    for note in run.notes[:20]:
        print(f"perfbench: {note}", file=sys.stderr)
    print(f"perfbench: {args.workload} seed {args.seed} done in "
          f"{time.perf_counter() - t0:.1f} s", file=sys.stderr)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": int(run.attempted),
        "failed": int(run.failed),
        "metrics": _metrics(metrics),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
