"""``python -m geodin.cli ARGS`` with the reference sampler of speed.py on.

    python perfbench/cold.py SAMPLES_JSON ARGS...

Runs geodin's command line as ``python -m geodin.cli ARGS`` does (geodin is
imported from PYTHONPATH), exits with its exit code, and writes the speed
samples taken while it ran to SAMPLES_JSON.
"""

from __future__ import annotations

import json
import runpy
import sys

from speed import Sampler


def main() -> None:
    out = sys.argv[1]
    sys.argv = [sys.argv[0], *sys.argv[2:]]
    sampler = Sampler()
    code = 0
    try:
        with sampler.sampling():
            runpy.run_module("geodin.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
    finally:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(sampler.summary(), fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
