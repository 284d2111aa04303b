"""One round of a workload in a fresh process.

    python3 child.py SPEC.json

SPEC names the checkout root, the commands (argument lists of
`scinbio.cli.main`), whether to trace, and where to write the round record.
Set-up (import, argument parsing, building the problem) ends at the
`ready` timestamp, taken on the system-wide monotonic clock so that the
parent can subtract the moment it started this process.
"""

import json
import os
import resource
import sys
import time
import traceback


def main():
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, os.path.join(spec["root"], "src"))
    from scinbio import cli

    args = cli.build_parser().parse_args(spec["commands"][0])
    cli.get_problem(cli.resolve_config(args)["problem"])
    ready = time.monotonic()

    tracer = None
    if spec["trace"]:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer, cli)

    commands = []
    for argv in spec["commands"]:
        error = None
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code, error = None, traceback.format_exc()
        commands.append({"exit_code": code, "seconds": time.perf_counter() - t0,
                         "error": error})

    record = {"ready": ready, "commands": commands,
              "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        record["layers"] = tracing.layer_metrics(tracer)
        tracer.write_spans(spec["spans_path"])
    with open(spec["record_path"], "w", encoding="utf-8") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main()
