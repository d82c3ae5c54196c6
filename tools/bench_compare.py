#!/usr/bin/env python3
"""Gate kernel-benchmark regressions against a committed baseline.

    python3 tools/bench_compare.py BASELINE.json CURRENT.json \
        [--tolerance 0.15] [--absolute]
    python3 tools/bench_compare.py --self-test

Both files are bench_to_json output: a JSON array of
{"kernel", "n", "d", "ns_per_op", "isa", "threads"} rows, where kernels
come in <name>_scalar / <name>_blocked or <name>_perrep / <name>_batched
pairs (reference first, shipped second). `isa` is the kernel clone that
ran the shipped kernels and `threads` the pool size.

The gate is per ISA: the current file must come from one ISA, and only the
baseline rows with that same `isa` are compared. The scalar references are
not ISA-dispatched, so an AVX2 run's speedups are not comparable with an
SSE2 ("default") run's; mixing them would let a large regression pass.
When the baseline has no rows for the current ISA the gate fails with "no
baseline for isa X". Rows without an `isa` key form their own group, so
files from benches that do not record it compare as before. Every verdict
line prints both files' host (isa and threads).

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
    """Returns {isa: {kernel: ns_per_op}} and {isa: host label}; rows that
    predate the `isa` key group under None."""
    rows = json.loads(pathlib.Path(path).read_text())
    by_isa, hosts = {}, {}
    for i, row in enumerate(rows):
        # A truncated or hand-edited baseline should fail with the file
        # and key named, not a bare KeyError traceback.
        for key in ("kernel", "ns_per_op"):
            if key not in row:
                sys.exit(f"bench_compare: {path}: row {i} is missing "
                         f"required key '{key}' "
                         f"(has: {', '.join(sorted(row)) or 'nothing'})")
        if row["ns_per_op"] <= 0:
            sys.exit(f"bench_compare: {path}: {row['kernel']} has "
                     f"non-positive ns_per_op")
        isa = row.get("isa")
        by_isa.setdefault(isa, {})[row["kernel"]] = float(row["ns_per_op"])
        threads = (f"{row['threads']} threads" if "threads" in row
                   else "threads unrecorded")
        hosts.setdefault(isa, "host unrecorded" if isa is None
                         else f"isa {isa}, {threads}")
    return by_isa, hosts


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


def compare(base_by_isa, base_hosts, cur_by_isa, cur_hosts, tolerance,
            absolute, current_name="current"):
    """Returns (verdict lines, errors) for one baseline/current pair."""
    lines, errors = [], []
    if len(cur_by_isa) != 1:
        isas = ", ".join(sorted(str(isa) for isa in cur_by_isa)) or "none"
        return lines, [f"{current_name} must come from one isa (has: {isas})"]
    (isa, cur), = cur_by_isa.items()
    cur_host = cur_hosts[isa]
    if isa not in base_by_isa:
        recorded = ", ".join(sorted(str(b) for b in base_by_isa)) or "none"
        return lines, [f"no baseline for isa {isa} "
                       f"(the baseline has: {recorded})"]
    base = base_by_isa[isa]
    base_host = base_hosts[isa]

    for kernel in sorted(base.keys() - cur.keys()):
        errors.append(f"kernel {kernel} is in the baseline but missing from "
                      f"{current_name}")

    base_speedups = speedups(base)
    cur_speedups = speedups(cur)
    for name, base_x in sorted(base_speedups.items()):
        cur_x = cur_speedups.get(name)
        if cur_x is None:
            continue  # already reported via missing kernels
        floor = base_x * (1.0 - tolerance)
        status = "ok" if cur_x >= floor else "REGRESSED"
        lines.append(f"{name:<12} speedup {cur_x:6.2f}x vs baseline "
                     f"{base_x:6.2f}x (floor {floor:.2f}x) {status}  "
                     f"[{cur_host}; baseline {base_host}]")
        if cur_x < floor:
            errors.append(f"{name}: speedup over the reference {cur_x:.2f}x "
                          f"fell below {floor:.2f}x "
                          f"(baseline {base_x:.2f}x - {tolerance:.0%})")

    if absolute:
        for kernel, base_ns in sorted(base.items()):
            if kernel not in cur:
                continue
            ceiling = base_ns * (1.0 + tolerance)
            if cur[kernel] > ceiling:
                errors.append(f"{kernel}: {cur[kernel]:.0f} ns/op exceeds "
                              f"{ceiling:.0f} ns/op "
                              f"(baseline {base_ns:.0f} + "
                              f"{tolerance:.0%})")
    return lines, errors


def self_test():
    """Runs the ISA match on a fixture; returns what it failed to catch."""
    def rows(isa, scalar_ns, shipped_ns):
        return {isa: {"topk_scalar": scalar_ns, "topk_blocked": shipped_ns}}
    hosts = {"default": "isa default", "avx2": "isa avx2"}
    baseline = {**rows("default", 441.0, 100.0), **rows("avx2", 1588.0, 100.0)}
    failures = []
    # An AVX2 run that lost most of its speedup (15.88x -> 4.0x) clears the
    # SSE2 row's floor; it must be judged against the AVX2 row.
    _, errors = compare(baseline, hosts, rows("avx2", 400.0, 100.0), hosts,
                        0.15, False)
    if not any(e.startswith("topk: speedup") for e in errors):
        failures.append("an avx2 run was not compared with the avx2 baseline")
    _, errors = compare(rows("default", 441.0, 100.0), hosts,
                        rows("avx2", 1588.0, 100.0), hosts, 0.15, False)
    if errors != ["no baseline for isa avx2 (the baseline has: default)"]:
        failures.append("a baseline without avx2 rows did not fail an avx2 "
                        f"run (got: {errors})")
    _, errors = compare(baseline, hosts, rows("default", 440.0, 100.0), hosts,
                        0.15, False)
    if errors:
        failures.append(f"a matching default run failed: {errors}")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", nargs="?")
    parser.add_argument("current", nargs="?")
    parser.add_argument("--tolerance", type=float, default=0.15,
                        help="allowed fractional regression (default 0.15)")
    parser.add_argument("--absolute", action="store_true",
                        help="also gate per-kernel ns_per_op (same machine "
                             "only)")
    parser.add_argument("--self-test", action="store_true",
                        help="only check the ISA match on a built-in fixture")
    args = parser.parse_args()

    # The ISA match runs on its fixture first, so a broken match cannot
    # pass silently.
    failures = self_test()
    for failure in failures:
        print(f"bench_compare: self-test: {failure}", file=sys.stderr)
    if failures or args.self_test:
        sys.exit(1 if failures else 0)
    if args.baseline is None or args.current is None:
        parser.error("BASELINE and CURRENT are required")

    base_by_isa, base_hosts = load(args.baseline)
    cur_by_isa, cur_hosts = load(args.current)
    lines, errors = compare(base_by_isa, base_hosts, cur_by_isa, cur_hosts,
                            args.tolerance, args.absolute, args.current)
    for line in lines:
        print(line)
    for error in errors:
        print(f"bench_compare: {error}", file=sys.stderr)
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
