"""Set-up probe, run in a fresh interpreter: import ncpgd and build the inputs.

    python3 perfbench/probe.py <workload> <seed>

Prints one JSON line: ``setup_s`` (import plus building every instance of
the workload; for cli-certify the import of ``ncpgd.cli``) and
``cli_import_s`` (the import cost of ``ncpgd.cli`` from a fresh process).
"""

import json
import sys
import time

import benchenv

benchenv.pin_threads()
benchenv.use_checkout_sources()


def main(workload: str, seed: int) -> dict:
    t0 = time.perf_counter()
    if workload == "cli-certify":
        import ncpgd.cli  # noqa: F401

        setup = time.perf_counter() - t0
        return {"setup_s": setup, "cli_import_s": setup}
    import ncpgd

    t1 = time.perf_counter()
    import workloads

    workloads.LibraryWorkload(workload, seed)
    t2 = time.perf_counter()
    import ncpgd.cli  # noqa: F401

    t3 = time.perf_counter()
    benchenv.verify_imported(ncpgd)
    return {"setup_s": t2 - t0, "cli_import_s": (t1 - t0) + (t3 - t2)}


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1], int(sys.argv[2]))))
