"""Child process of the ``oltp_served`` workload: the real ``serve`` path.

Calls ``repro.cli.run_serve`` in both modes.  With ``--trace 1`` the span
wrappers of ``tracer.py`` are installed first: the set-up spans (checkpoint
load, WAL replay) are reported once the server is up, and recording of
request spans is then switched by the parent — SIGUSR1 starts a fresh
recording, SIGUSR2 stops it.  On a graceful stop (SIGINT) the reports are
written to ``--report``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("directory")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", required=True)
    parser.add_argument("--spans")
    parser.add_argument("--view", action="append", default=[])
    args = parser.parse_args()

    tracer = None
    reports: dict[str, object] = {}
    if args.trace:
        from tracer import Tracer, install_core, install_server

        tracer = Tracer()
        install_core(tracer)
        install_server(tracer)
        tracer.enabled = True  # set-up spans

    from repro.cli import run_serve

    def on_start(server: object) -> None:
        if tracer is None:
            return
        reports["setup"] = tracer.report()
        tracer.enabled = False
        loop = asyncio.get_running_loop()

        def start_recording() -> None:
            tracer.reset()
            tracer.enabled = True

        def stop_recording() -> None:
            tracer.enabled = False

        loop.add_signal_handler(signal.SIGUSR1, start_recording)
        loop.add_signal_handler(signal.SIGUSR2, stop_recording)

    code = run_serve(
        args.directory,
        port=0,
        view_options=args.view,
        emit=lambda line: print(line, flush=True),
        on_start=on_start,
    )
    if tracer is not None:
        reports["run"] = tracer.report()
        if args.spans:
            tracer.dump(args.spans)
    with open(args.report, "w", encoding="utf-8") as stream:
        json.dump(reports, stream)
    return code


if __name__ == "__main__":
    sys.exit(main())
