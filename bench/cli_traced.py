"""Run ramseylab's CLI under the benchmark tracer and save the spans.

    python3 bench/cli_traced.py SPANS.json CLI-ARGS...

The exit code and stdout are those of `python -m ramseylab.cli CLI-ARGS...`.
"""

import sys

import tracer

if __name__ == "__main__":
    trace = tracer.Tracer()
    trace.install()
    import ramseylab.cli

    try:
        code = ramseylab.cli.main(sys.argv[2:])
    finally:
        tracer.dump(sys.argv[1], trace.spans, trace.absent)
    sys.exit(code)
