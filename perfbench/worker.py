"""Workload process: runs quadtel CLI commands on request and times them.

run.py starts it with the checkout's ``src`` first on PYTHONPATH and talks to
it over stdin/stdout, one JSON object per line:

    worker -> {"ready": <time.monotonic() after import and argument parsing>, "quadtel": <path>}
    parent -> {"argv": [...], "unit": k}   worker -> {"rc": 0, "main_s": 1.23}
    parent -> {"trace": true}              worker -> {"tracing": true}
    parent -> {"finish": <span file or null>}
                                           worker -> {"peak_rss_kib": ..., "threads": ..., "trace": ...}

With ``--setup-only`` it imports quadtel, parses the arguments, prints the
ready line and exits; run.py times several such launches for ``setup_s``.
"""
from __future__ import annotations

import json
import os
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path


def _send(obj) -> None:
    sys.__stdout__.write(json.dumps(obj) + "\n")
    sys.__stdout__.flush()


def _status(field: str) -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise KeyError(field)


def main() -> int:
    setup_only = sys.argv[1] == "--setup-only"
    first_argv = json.loads(sys.argv[-1])

    from quadtel import cli

    cli.build_parser().parse_args(first_argv)
    _send({"ready": time.monotonic(), "quadtel": str(Path(cli.__file__).resolve().parent)})
    if setup_only:
        return 0

    main_fn = cli.main
    tracer = None
    with open(os.devnull, "w", encoding="utf-8") as devnull:
        for line in sys.stdin:
            msg = json.loads(line)
            if "argv" in msg:
                if tracer is not None:
                    tracer.current_unit = msg["unit"]
                with redirect_stdout(devnull):
                    t0 = time.perf_counter()
                    rc = main_fn(msg["argv"])
                    main_s = time.perf_counter() - t0
                _send({"rc": rc, "main_s": main_s})
            elif "trace" in msg:
                import spans

                tracer = spans.Tracer()
                spans.install(tracer)
                main_fn = tracer.wrap("cli.main", cli.main)
                _send({"tracing": True})
            elif "finish" in msg:
                # VmHWM, not ru_maxrss: on Linux ru_maxrss starts from the
                # forking parent's peak, so it would count run.py's memory.
                result = {"peak_rss_kib": _status("VmHWM"), "threads": _status("Threads"), "trace": None}
                if tracer is not None:
                    result["trace"] = tracer.summary()
                    if msg["finish"]:
                        tracer.dump(msg["finish"])
                _send(result)
                return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())
