#!/usr/bin/env python3
"""Compare results documents with their "perf" blocks taken out.

A change to the event kernel may move the kernel counters under
"perf" (events executed and scheduled, inline callbacks) while every
simulated statistic must stay byte-for-byte the same. For each pair
of documents this deletes every "perf" object, at any depth, from
both, compares what is left, and lists the perf fields that moved.

    python3 tests/diff_without_perf.py OLD NEW [OLD NEW ...]

Exit 0 when every pair matches without its perf blocks, 1 otherwise.
"""

import json
import sys


def split_perf(node, path, perf):
    """Return @p node without "perf" members; collect them in @p perf
    keyed by their JSON path."""
    if isinstance(node, dict):
        out = {}
        for key, value in node.items():
            if key == "perf":
                perf[path + "/perf"] = value
            else:
                out[key] = split_perf(value, f"{path}/{key}", perf)
        return out
    if isinstance(node, list):
        return [split_perf(v, f"{path}/{i}", perf)
                for i, v in enumerate(node)]
    return node


def moved_fields(old_perf, new_perf):
    """Names of perf fields whose value differs in any block."""
    moved = set()
    for path in old_perf.keys() | new_perf.keys():
        old = old_perf.get(path, {})
        new = new_perf.get(path, {})
        for field in old.keys() | new.keys():
            if old.get(field) != new.get(field):
                moved.add(field)
    return sorted(moved)


def main(argv):
    if len(argv) < 2 or len(argv) % 2:
        sys.exit(__doc__)
    ok = True
    for old_path, new_path in zip(argv[0::2], argv[1::2]):
        with open(old_path) as f:
            old_perf = {}
            old = split_perf(json.load(f), "", old_perf)
        with open(new_path) as f:
            new_perf = {}
            new = split_perf(json.load(f), "", new_perf)
        same = old == new and old_perf.keys() == new_perf.keys()
        ok = ok and same
        moved = moved_fields(old_perf, new_perf)
        print(f"{new_path}: {'identical' if same else 'DIFFERS'} "
              f"without perf; {len(new_perf)} perf blocks; moved: "
              f"{', '.join(moved) if moved else 'none'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
