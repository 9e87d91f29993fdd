#!/usr/bin/env python3
"""Runs a command and fails when its peak resident set exceeds a limit.

    python3 tools/peak_rss.py --max-mb 100 -- build-perf/tools/hcac \
        --kernel h264deblocking

The peak is the child's ru_maxrss from resource.getrusage(RUSAGE_CHILDREN),
which Linux reports in kilobytes. The command's stdout is discarded. Exits
with the command's status when it fails, 1 when the peak is above --max-mb
and 0 otherwise.
"""

import argparse
import resource
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-mb", type=float, required=True)
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        parser.error("no command given")
    status = subprocess.run(command, stdout=subprocess.DEVNULL).returncode
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    print(f"peak RSS {peak_mb:.1f} MB (limit {args.max_mb:g} MB): "
          f"{' '.join(command)}")
    if status != 0:
        print(f"command failed with exit status {status}", file=sys.stderr)
        return status
    if peak_mb > args.max_mb:
        print("peak RSS above the limit", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
