"""Report this interpreter's peak resident set size when it exits.

The benchmark puts this directory on PYTHONPATH for each job it starts and
names a pipe in BENCH_HWM_FD; at exit the job writes its peak RSS in KiB
there.  VmHWM counts only this process image.  ru_maxrss is no use here: on
Linux a child spawned from a large parent inherits the parent's high-water
mark, so small jobs would report the benchmark's own size.
"""

import atexit
import os


def _report(fd: int) -> None:
    kib = 0
    try:
        with open("/proc/self/status", "rb") as status:
            for line in status:
                if line.startswith(b"VmHWM:"):
                    kib = int(line.split()[1])
                    break
    except OSError:
        import resource

        kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    os.write(fd, b"%d\n" % kib)


if os.environ.get("BENCH_HWM_FD"):
    atexit.register(_report, int(os.environ["BENCH_HWM_FD"]))
