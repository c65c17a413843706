"""Set-up probe: a fresh interpreter imports the program and builds a
sweep workload's job list, then prints ``ready``.

The parent times spawn to ``ready``: that is ``setup_s`` for the sweep
workloads (everything before the first point can be submitted).

    python3 perfbench/setup_probe.py fig14-packet 1
"""

import sys

import pb_common as pc

if __name__ == "__main__":
    if not pc.program_on_path():
        sys.exit("error: no program source under src/")
    from pb_sweeps import SHAPES
    from repro.exec import SweepExecutor

    shape = SHAPES[sys.argv[1]]
    jobs = pc.fig14_grid(shape.scale, int(sys.argv[2]))
    SweepExecutor(jobs=shape.jobs)
    print("ready", flush=True)
