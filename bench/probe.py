"""Set-up probe: a fresh interpreter imports gpkrige and runs the warm-up jobs.

Usage: ``python3 bench/probe.py SRC_DIR JOBS_JSON``, where JOBS_JSON holds a
list of CLI argument lists.  Prints ``ready`` once every job has returned;
the parent times the interval from process start to that line.
"""

import contextlib
import io
import json
import sys


def main():
    src, jobs_path = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    from gpkrige import cli

    with open(jobs_path, "r", encoding="utf-8") as fh:
        jobs = json.load(fh)
    for argv in jobs:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cli.main(argv)  # outputs are checked by the timed run, not here
    print("ready", flush=True)


if __name__ == "__main__":
    main()
