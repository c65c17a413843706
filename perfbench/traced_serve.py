"""Start ``repro serve`` with the benchmark's span wrappers installed.

The traced ``serve-mix`` run launches its daemon through this file; pool
workers forked by the daemon inherit the wrappers.  Spans land in
TRACE_DIR (see ``pb_trace``).

    python3 perfbench/traced_serve.py TRACE_DIR serve --socket PATH --jobs 1
"""

import sys

import pb_common as pc

if __name__ == "__main__":
    if not pc.program_on_path():
        sys.exit("error: no program source under src/")
    import pb_trace
    from repro.cli import main

    recorder = pb_trace.install(sys.argv[1])
    try:
        code = main(sys.argv[2:])
    finally:
        recorder.flush()
    sys.exit(code)
