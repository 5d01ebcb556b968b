"""Run one cr-noise-lab command in process with spans around every layer.

    python perfbench/traced_cmd.py <spans.json> <command> [cli arguments ...]

Imports crnoise (from PYTHONPATH), wraps the public functions of its modules,
calls ``crnoise.cli.main(argv)``, writes the spans to <spans.json> and exits
with the command's exit code.
"""

from __future__ import annotations

import sys

import tracer


def main(argv: list[str]) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    recorder = tracer.Tracer()
    import crnoise.cli

    tracer.install(recorder)
    try:
        return crnoise.cli.main(cli_argv)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
