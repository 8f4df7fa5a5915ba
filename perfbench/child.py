"""One fresh `fibint` process, as `python -m fibint.cli ARG...` would run.

Usage (started by run.py with PYTHONPATH=src):

    python3 perfbench/child.py [ARG...]

Times `import fibint.cli` plus the first catalog build, runs
`cli.main(ARG...)` (with no ARG it only sets up), and writes
"SETUP_SECONDS PEAK_KB" as the last line of stderr.  PEAK_KB is VmHWM of
this process image: ru_maxrss would also hold the benchmark's own peak,
which a child inherits across fork and exec.
"""

import resource
import sys
import time


def peak_kb() -> int:
    try:
        with open("/proc/self/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


t0 = time.perf_counter()
import fibint.cli  # noqa: E402

fibint.cli.registry.catalog()
setup_s = time.perf_counter() - t0
rc = fibint.cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0
sys.stderr.write(f"{setup_s!r} {peak_kb()}\n")
sys.exit(rc)
