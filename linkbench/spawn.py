"""Run one command and report its wall time and its own peak RSS as JSON.

    python3 linkbench/spawn.py OUT ERR COMMAND...

Linux charges a process the peak RSS of the process it was started
from (``ru_maxrss`` survives fork and exec), so the benchmark, which
holds hundreds of MB, starts its fresh-process cells through this small
launcher: the command's ``ru_maxrss`` then reflects the command alone.
"""

import json
import os
import subprocess
import sys
import time


def main() -> int:
    out_path, err_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({
        "seconds": seconds,
        "peak_rss_kib": usage.ru_maxrss,
        "returncode": proc.returncode,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
