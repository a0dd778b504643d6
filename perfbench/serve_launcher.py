"""Start ``repro serve`` with the benchmark's span wrappers installed.

The traced ``serve-warm`` run starts the server through this launcher
instead of ``python -m repro serve``: same command-line entry point and
flags, plus the layer wrappers of :mod:`ledger`. The server's spans are
written to ``<out_dir>/spans-<pid>.pkl`` when it shuts down (SIGINT).

Usage: ``python3 perfbench/serve_launcher.py OUT_DIR``
"""

from __future__ import annotations

import os
import sys

from harness import OpClock, checkout_root, use_checkout_source


def main() -> int:
    out_dir = sys.argv[1]
    use_checkout_source(checkout_root())
    import ledger
    from repro.cli import main as repro_main

    recorder = ledger.Recorder(out_dir, OpClock(os.path.join(out_dir, "opid"), create=False))
    ledger.install(recorder)
    try:
        return repro_main(["serve", "--port", "0", "--no-warm"])
    finally:
        recorder.flush()


if __name__ == "__main__":
    sys.exit(main())
