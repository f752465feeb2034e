"""Run the rydkit CLI once, as the console script does, with spans recorded.

usage: PYTHONPATH=src python perfbench/traced_cli.py SPANS_FILE [rydkit args...]

The spans are written to SPANS_FILE when the command ends; the command's
output and exit code are unchanged.
"""

import sys

import spans
import rydkit.cli

if __name__ == "__main__":
    tracer = spans.Tracer()
    tracer.install()
    try:
        code = rydkit.cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
        tracer.dump(sys.argv[1])
    sys.exit(code)
