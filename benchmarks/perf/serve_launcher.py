"""Traced serve child: ``python -m repro serve`` with layer spans recorded.

    python serve_launcher.py SPANS_JSONL REPRO_CLI_ARGS...

Installs the span wrappers of tracing.py, then runs
``repro.cli.main(REPRO_CLI_ARGS)`` exactly as ``python -m repro`` would.
SIGUSR1 clears what was recorded so far (the benchmark sends it between
set-up and load) and acknowledges on stderr.  The spans are written to
SPANS_JSONL when the service has drained and ``main`` returns.
"""

from __future__ import annotations

import signal
import sys

from tracing import Recorder, install

#: Printed to stderr after a SIGUSR1 reset.
RESET_ACK = "perf-trace: reset"


def main(argv: list[str]) -> int:
    from repro import cli
    from repro.obs.events import current_rids

    recorder = Recorder(rids=current_rids)
    install(recorder)

    def reset(_signum, _frame) -> None:
        recorder.reset()
        print(RESET_ACK, file=sys.stderr, flush=True)

    signal.signal(signal.SIGUSR1, reset)
    try:
        return cli.main(argv[1:])
    finally:
        recorder.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
