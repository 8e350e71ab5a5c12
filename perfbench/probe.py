"""Run one `vitac` command in this fresh process until its first tick.

Usage: python probe.py SRC_DIR feed|merge|step VITAC_ARGS...

When the command reaches the marked call (the first call that handles a
tick) the probe prints how long `import vitac.cli` took and exits at once.
The parent times the whole process from its start to that line.
"""

import os
import sys
import time


def main() -> int:
    src, marker, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import vitac.cli as cli

    import_s = time.perf_counter() - t0
    owner = {"feed": cli.StreamDecoder, "merge": cli, "step": cli.Tracker}[marker]

    def first_tick(*args, **kwargs):
        sys.stdout.write(f"{import_s!r}\n")
        sys.stdout.flush()
        os._exit(0)

    setattr(owner, marker, first_tick)
    code = cli.main(argv)
    sys.stderr.write(f"probe: `vitac {' '.join(argv)}` ended with {code} before its first tick\n")
    return 3


if __name__ == "__main__":
    sys.exit(main())
