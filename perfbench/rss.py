"""Peak resident memory of a process tree, sampled from a child process.

    python3 perfbench/rss.py <root pid> <period s>

samples the resident memory of <root pid> and all its descendants (itself
excluded) every <period> seconds until its standard input closes, then
prints the highest sum in MiB.  It runs as a separate process so that
sampling never holds the measured program's interpreter lock.
"""

from __future__ import annotations

import os
import select
import sys


def tree_rss_mb(root_pid: int, exclude: int | None = None) -> float:
    """Resident memory of root_pid and all its descendants, from /proc."""
    parent: dict[int, int] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                tail = f.read().rsplit(")", 1)[1].split()
            parent[int(name)] = int(tail[1])
        except (OSError, IndexError, ValueError):
            continue
    tree, todo = set(), [root_pid]
    while todo:
        p = todo.pop()
        tree.add(p)
        todo.extend(c for c, pp in parent.items() if pp == p and c not in tree)
    tree.discard(exclude)
    page = os.sysconf("SC_PAGE_SIZE")
    total = 0
    for p in tree:
        try:
            with open(f"/proc/{p}/statm") as f:
                total += int(f.read().split()[1]) * page
        except (OSError, IndexError, ValueError):
            continue
    return total / 2**20


def main() -> int:
    root, period = int(sys.argv[1]), float(sys.argv[2])
    peak = 0.0
    while True:
        peak = max(peak, tree_rss_mb(root, exclude=os.getpid()))
        ready, _, _ = select.select([sys.stdin], [], [], period)
        if ready:
            break
    print(f"{peak:.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
