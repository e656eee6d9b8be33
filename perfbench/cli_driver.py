"""Traced stand-in for `python -m spinqfi.cli`, used by the cli_cold traced run.

    python3 perfbench/cli_driver.py SPANS.json <spinqfi cli arguments...>

Installs the span wrappers, calls `spinqfi.cli.main` with the remaining
arguments and writes its start time (time.monotonic()), its import time and
the recorded spans to SPANS.json. Exits with the CLI's exit code.
"""
import time

STARTED_AT = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402

import tracing  # noqa: E402


def main() -> int:
    span_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    from spinqfi import cli
    import_s = time.perf_counter() - t0
    rec = tracing.Recorder()
    rec.install()
    rec.op = 0
    try:
        return cli.main(argv)
    finally:
        rec.uninstall()
        with open(span_path, "w", encoding="utf-8") as fh:
            json.dump({"started_at": STARTED_AT, "import_s": import_s, "spans": rec.spans}, fh)


if __name__ == "__main__":
    sys.exit(main())
