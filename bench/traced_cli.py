"""Run one loopflow CLI subcommand with every public function traced.

    python traced_cli.py SPANS_FILE <loopflow cli arguments...>

The spans are saved to SPANS_FILE (numpy .npz) when the subcommand ends,
whether it succeeded or not; the exit code is the CLI's own.
"""

import sys

from tracer import Tracer, install


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    import loopflow.cli

    install(tracer)
    try:
        return loopflow.cli.main(argv)
    finally:
        tracer.save(spans_path)


if __name__ == "__main__":
    sys.exit(main())
