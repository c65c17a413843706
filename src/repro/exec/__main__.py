"""``python -m repro.exec xtier`` — cross-tier validation of the analytic
fidelity tier against the packet model (:mod:`repro.exec.xtier`).
``xtier`` is the only subcommand; anything else exits 2."""

import sys
from typing import List, Optional


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] != ["xtier"]:
        got = repr(argv[0]) if argv else "no command"
        print("usage: python -m repro.exec xtier [options]\n"
              f"error: got {got}; xtier is the only subcommand", file=sys.stderr)
        return 2
    from .xtier import main as xtier_main

    return xtier_main(argv[1:])


if __name__ == "__main__":
    raise SystemExit(main())
