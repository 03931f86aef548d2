"""One benchmark round in a fresh process: `torusgeo run` on each given config.

Usage (started by run.py):
    child.py SPAWNED SRC [--trace PATH] [--setup-only] CONFIG REPORT [CONFIG REPORT ...]

SPAWNED is the parent's CLOCK_MONOTONIC reading just before it started this
process, so setup_s runs from process start until `import torusgeo` and the
parsing of every config are done. run_s is the wall time of the
`torusgeo.cli.main(["run", CONFIG, "--out", REPORT])` calls. The last line of
standard output is a JSON object with setup_s, run_s, peak_rss_mib and the
exit code of each run.
"""
import argparse
import json
import os
import resource
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("spawned", type=float)
    parser.add_argument("src")
    parser.add_argument("--trace", default=None)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("pairs", nargs="*")
    args = parser.parse_intermixed_args()
    sys.path.insert(0, args.src)

    import torusgeo  # noqa: F401
    from torusgeo.cli import main as torusgeo_main
    from torusgeo.config import parse_config

    configs, reports = args.pairs[0::2], args.pairs[1::2]
    for path in configs:
        with open(path, encoding="utf-8") as fh:
            parse_config(fh.read())
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned
    result = {"setup_s": setup_s}
    if not args.setup_only:
        tracer = None
        if args.trace:
            sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
            from tracing import Tracer, install
            tracer = Tracer()
            install(tracer)
        codes = []
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        for cfg, report in zip(configs, reports):
            codes.append(torusgeo_main(["run", cfg, "--out", report]))
        result["run_s"] = time.clock_gettime(time.CLOCK_MONOTONIC) - t0
        result["codes"] = codes
        result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.save(args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
