"""Regenerate ``digests.json``: the row digests every sweep run at the
default seed is checked against.

Run it only when a change to the program is meant to change rows (a
model fix), and say so with the change:

    python3 perfbench/make_digests.py
"""

import json
import os
import sys

import pb_common as pc

if __name__ == "__main__":
    if not pc.program_on_path():
        sys.exit("error: no program source under src/")
    from pb_sweeps import SHAPES
    from repro.exec import execute_job

    digests = {}
    for name, shape in SHAPES.items():
        entry = {"scale": shape.scale, "seed": pc.DEFAULT_SEED}
        for model in ("packet", "analytic"):
            rows = {}
            for job in pc.fig14_grid(shape.scale, pc.DEFAULT_SEED, model):
                outcome = execute_job(job)
                if not outcome.ok:
                    sys.exit(f"error: {outcome.failure.summary()}")
                rows[job.label] = pc.row_digest(outcome.result)
            entry[model] = rows
        digests[name] = entry
    with open(os.path.join(pc.HERE, "digests.json"), "w") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")
