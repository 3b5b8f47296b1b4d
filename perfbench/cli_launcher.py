"""Run one ncpgd CLI command with spans on every public entry point.

    python3 perfbench/cli_launcher.py <spans.npz> -- <ncpgd arguments...>

Behaves like ``python -m ncpgd.cli <arguments>`` (same output and exit
code), and on exit writes the spans it recorded, plus the time the import of
``ncpgd.cli`` took, to ``spans.npz``.
"""

import sys
import time

import benchenv

benchenv.pin_threads()
benchenv.use_checkout_sources()


def main(argv: list[str]) -> int:
    spans_path, sep, cli_args = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit("usage: cli_launcher.py <spans.npz> -- <ncpgd arguments...>")
    t0 = time.perf_counter()
    import ncpgd.cli as cli

    import_s = time.perf_counter() - t0
    benchenv.verify_imported(cli)
    import tracer as tracing

    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    tracer.job_id = 0
    try:
        with tracer.span("job"):
            code = cli.main(cli_args)
    finally:
        patches.restore()
        tracer.spans().save(spans_path, import_s=import_s)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
