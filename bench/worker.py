"""One benchmark process: a set-up probe, a library pass, or one CLI call.

    worker.py probe --spawned T --out FILE
    worker.py pass --workload W --seed N --trace 0|1 --spawned T --out FILE
    worker.py cli --trace 0|1 --spawned T --out FILE -- <hilbloc arguments>

``--spawned`` is the parent's ``time.monotonic()`` just before it started
this process; the monotonic clock is shared by all processes on Linux, so
the set-up time includes interpreter start-up.  The result goes to
``--out`` as JSON.  In ``cli`` mode the command's stdout is left untouched
so that it can be compared byte for byte.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time


def _peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for.

    ``ru_maxrss`` of this process would start from the parent's resident
    set at fork, so this process's own peak is read from VmHWM instead.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        own = next(int(line.split()[1]) for line in fh
                   if line.startswith("VmHWM:"))
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("probe", "pass", "cli"))
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--out", required=True)
    argv = sys.argv[1:]
    split = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:split])
    cli_args = argv[split + 1:]

    out: dict = {}
    tracer = None
    if args.mode == "cli":
        t0 = time.perf_counter()
        import hilbloc.cli
        out["import_s"] = time.perf_counter() - t0
        if args.trace:
            import spans
            tracer = spans.Tracer()
            spans.install(tracer)
        t0 = time.perf_counter()
        code = hilbloc.cli.main(cli_args)
        out["main_s"] = time.perf_counter() - t0
        sys.stdout.flush()
    else:
        import hilbloc
        surface = hilbloc.make_surface("P2")
        out["setup_s"] = time.monotonic() - args.spawned
        code = 0
        if args.mode == "pass":
            import workloads
            if args.trace:
                import spans
                tracer = spans.Tracer()
                spans.install(tracer)
            out.update(workloads.PASSES[args.workload](surface, args.seed))
    out["peak_rss_mb"] = _peak_rss_mb()
    if tracer is not None:
        out["trace"] = tracer.dump()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
