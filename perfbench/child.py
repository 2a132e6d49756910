"""One benchmark invocation: a fresh interpreter that runs `mchks.cli.main`.

    python3 child.py SRC REPORT MODE [mchks arguments...]

SRC is the directory holding the `mchks` package, REPORT a JSON file this
process writes before it exits.  MODE is `plain` (only the set-up mark),
`trace` (spans around every layer, see spans.py) or `probe` (import the
package, record the environment and exit without running anything).

The set-up mark is CLOCK_MONOTONIC when `parse_config` first returns; the
parent subtracts its own CLOCK_MONOTONIC at spawn, so set-up time covers
interpreter start, imports and config parsing.
"""

import json
import os
import sys
import time


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _environment():
    import numpy
    import scipy

    blas = "unknown"
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
    }


def main():
    src, report_path, mode = sys.argv[1:4]
    argv = sys.argv[4:]
    sys.path.insert(0, src)
    import mchks.cli as cli

    report = {}
    if mode == "probe":
        report["env"] = _environment()
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh)
        return 0

    tracer = None
    if mode == "trace":
        from spans import Tracer, install

        tracer = Tracer(os.path.basename(os.path.dirname(report_path)))
        install(tracer)

    parse = cli.parse_config

    def parse_config(*args, **kwargs):
        out = parse(*args, **kwargs)
        report.setdefault("setup_mark", _now())
        return out

    cli.parse_config = parse_config
    main_fn = tracer.wrap_fn(cli.main, "cli.main") if tracer else cli.main
    rc = main_fn(argv)
    sys.stdout.flush()
    if tracer:
        tracer.dump(report_path + ".spans")
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
