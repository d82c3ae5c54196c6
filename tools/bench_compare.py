#!/usr/bin/env python3
"""Gate kernel-benchmark regressions against a committed baseline.

    python3 tools/bench_compare.py BASELINE.json CURRENT.json \
        [--tolerance 0.15] [--absolute]

Both files are bench_to_json output: a JSON array of
{"kernel", "n", "d", "ns_per_op", "isa", "threads"} rows, where kernels
come in <name>_scalar / <name>_blocked or <name>_perrep / <name>_batched
pairs (reference first, shipped second). `isa` (the kernel clone that ran)
and `threads` (the pool size) name the host; every verdict line prints
them for both files ("unrecorded" for files that predate them). They are
reported, not gated.

Default (relative) mode compares each pair's *speedup* (reference
ns_per_op / shipped ns_per_op) against the baseline's, failing when the current
speedup falls more than --tolerance below it. Speedup is a ratio of two
timings on the same machine, so the committed baseline transfers across
hosts — absolute ns_per_op does not, which is why the CI bench-regression
job uses this mode.

--absolute additionally fails when any kernel's own ns_per_op is more than
--tolerance slower than the baseline. Use it when baseline and current
were measured on the same machine (e.g. bisecting a regression locally).

Exits nonzero with one line per regression.
"""

import argparse
import json
import pathlib
import sys


def load(path):
    """Returns ({kernel: ns_per_op}, the host its first row records)."""
    rows = json.loads(pathlib.Path(path).read_text())
    out = {}
    for i, row in enumerate(rows):
        # A truncated or hand-edited baseline should fail with the file
        # and key named, not a bare KeyError traceback.
        for key in ("kernel", "ns_per_op"):
            if key not in row:
                sys.exit(f"bench_compare: {path}: row {i} is missing "
                         f"required key '{key}' "
                         f"(has: {', '.join(sorted(row)) or 'nothing'})")
        out[row["kernel"]] = float(row["ns_per_op"])
        if row["ns_per_op"] <= 0:
            sys.exit(f"bench_compare: {path}: {row['kernel']} has "
                     f"non-positive ns_per_op")
    first = rows[0] if rows else {}
    if "isa" in first and "threads" in first:
        host = f"isa {first['isa']}, {first['threads']} threads"
    else:
        host = "host unrecorded"
    return out, host


# (reference suffix, shipped suffix) of the timed pairs.
PAIR_SUFFIXES = (("_scalar", "_blocked"), ("_perrep", "_batched"))


def speedups(rows):
    pairs = {}
    for kernel, ns in rows.items():
        for ref_suffix, shipped_suffix in PAIR_SUFFIXES:
            if kernel.endswith(ref_suffix):
                name = kernel[: -len(ref_suffix)]
                if name + shipped_suffix in rows:
                    pairs[name] = ns / rows[name + shipped_suffix]
    return pairs


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--tolerance", type=float, default=0.15,
                        help="allowed fractional regression (default 0.15)")
    parser.add_argument("--absolute", action="store_true",
                        help="also gate per-kernel ns_per_op (same machine "
                             "only)")
    args = parser.parse_args()

    base, base_host = load(args.baseline)
    cur, cur_host = load(args.current)
    errors = []

    missing = sorted(base.keys() - cur.keys())
    for kernel in missing:
        errors.append(f"kernel {kernel} is in the baseline but missing from "
                      f"{args.current}")

    base_speedups = speedups(base)
    cur_speedups = speedups(cur)
    for name, base_x in sorted(base_speedups.items()):
        cur_x = cur_speedups.get(name)
        if cur_x is None:
            continue  # already reported via missing kernels
        floor = base_x * (1.0 - args.tolerance)
        status = "ok" if cur_x >= floor else "REGRESSED"
        print(f"{name:<12} speedup {cur_x:6.2f}x vs baseline {base_x:6.2f}x "
              f"(floor {floor:.2f}x) {status}  "
              f"[{cur_host}; baseline {base_host}]")
        if cur_x < floor:
            errors.append(f"{name}: speedup over the reference {cur_x:.2f}x "
                          f"fell below {floor:.2f}x "
                          f"(baseline {base_x:.2f}x - {args.tolerance:.0%})")

    if args.absolute:
        for kernel, base_ns in sorted(base.items()):
            if kernel not in cur:
                continue
            ceiling = base_ns * (1.0 + args.tolerance)
            if cur[kernel] > ceiling:
                errors.append(f"{kernel}: {cur[kernel]:.0f} ns/op exceeds "
                              f"{ceiling:.0f} ns/op "
                              f"(baseline {base_ns:.0f} + "
                              f"{args.tolerance:.0%})")

    for error in errors:
        print(f"bench_compare: {error}", file=sys.stderr)
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
