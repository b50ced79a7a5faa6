"""Run `omegacalc.cli` under the tracer and write its layer aggregates.

Usage: python cli_child.py OUT.json <cli arguments...>

The output file gets the tracer's aggregates plus the import time of
omegacalc.cli and the time spent in main(); stdout and the exit code are the
CLI's own.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402


def main():
    out_path = sys.argv[1]
    t0 = time.perf_counter()
    import omegacalc.cli
    import_s = time.perf_counter() - t0
    tracer = layers.Tracer()
    tracer.install()
    tracer.activate(0)
    t1 = time.perf_counter()
    try:
        code = omegacalc.cli.main(sys.argv[2:])
    finally:
        main_s = time.perf_counter() - t1
        tracer.deactivate()
        raw = tracer.raw()
        raw["import_s"] = import_s
        raw["main_s"] = main_s
        Path(out_path).write_text(json.dumps(raw))
    return code


if __name__ == "__main__":
    sys.exit(main())
