"""Traced CLI entry point: `cli_entry.py SUMMARY_FILE JOB_ID CLI_ARGS...`.

Imports mcctensor.cli (timing the import), installs the tracer, runs
`mcctensor.cli.main` on CLI_ARGS and writes the spans and their summary to
SUMMARY_FILE as JSON.  Exits with the CLI's exit code.
"""

import json
import sys
import time

t0 = time.perf_counter()
import mcctensor.cli  # noqa: E402

import_s = time.perf_counter() - t0

import spans  # noqa: E402


def main():
    summary_path, job = sys.argv[1], sys.argv[2]
    tracer = spans.Tracer()
    tracer.job = job
    tracer.install()
    try:
        code = mcctensor.cli.main(sys.argv[3:])
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        with open(summary_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "self_s": tracer.self_times(),
                       "counts": tracer.counts, "errors": tracer.errors,
                       "leftover": spans.leftover_wrappers(),
                       "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
