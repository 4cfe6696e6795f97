"""Run ``repro serve`` in this process, optionally with the layer tracer.

Usage: ``python3 perfbench/serve_boot.py SPANS_PATH|- serve [serve options]``

With a path, the bootstrap installs the same wrappers as the in-process
traced runs (:mod:`tracer`) before handing the arguments to
``repro.cli.main``, and writes the spans to the path when the server shuts
down (SIGINT).  With ``-`` it runs the server untraced.  Run it from the
repository root: the package is imported from ``./src``.
"""

import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    # SIGINT is the benchmark's stop signal.  A parent started in the
    # background without job control may pass SIGINT on as ignored, and
    # Python then installs no handler for it; restore the default one.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    from repro.cli import main as cli_main

    tracer = None
    if spans_path != "-":
        import repro.service  # noqa: F401 - load the modules the tracer wraps

        from tracer import Tracer

        tracer = Tracer().install()
    try:
        return cli_main(cli_args)
    finally:
        if tracer is not None:
            tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
