#!/usr/bin/env python3
"""Consistency check between tests on disk, the CMake test registry, and
tools/check.sh, so a new test binary cannot be silently forgotten.

Asserts, from the repository root:
  1. every tests/*_test.cc has a tasti_add_test(<name>) registration in
     tests/CMakeLists.txt, and every registration has a source file;
  2. every <name>_test binary that tools/check.sh builds or runs is a
     registered test (no stale names after a rename/delete);
  3. every test registered with a `serve`, `chaos`, `durable`, or
     `overload` label is exercised by the matching stage in
     tools/check.sh (serve -> tsan targets, chaos -> `ctest -L chaos`,
     durable -> the ASan sanitize stage and `ctest -L durable` in the
     crash stage, overload -> `ctest -L overload`);
  4. every bench/*.cc has a registration (tasti_add_bench or
     add_executable) in bench/CMakeLists.txt and vice versa;
  5. every committed bench baseline (bench/baselines/BENCH_*.json) is
     gated by the CI bench-regression job in .github/workflows/ci.yml,
     and every baseline path ci.yml names exists in-tree;
  6. every tools/*.cc has an add_executable in tools/CMakeLists.txt and
     vice versa;
  7. every stage_<name>() function in tools/check.sh is runnable (listed
     in the default stage set and the case validation) and has a matching
     `stage: <name>` entry in the CI matrix;
  8. the sharded-serving suite stays wired end to end: shard_test carries
     the `shard` label, `shard`-labeled tests are exercised by check.sh,
     and the registered bench_shard target is built and gated by the CI
     bench-regression job;
  9. no header under src/queries, src/core, src/api, src/serve or
     src/shard mentions TargetLabeler: query processing, index
     construction and serving take the one oracle interface,
     labeler::FallibleLabeler (ground-truth labelers enter through
     labeler::FallibleAdapter), so no second entry point grows back;
 10. every header under src/ is #included by some file under src/,
     tools/, bench/, examples/ or perfbench/ other than its own .cc, so
     a module that only its own tests reach cannot grow back;
 11. every TASTI_SPAN("...") literal under src/ appears in DESIGN.md,
     backticked and by its full name: BuildStats and the QueryLog
     phases are read from span totals by name, so a rename must show up
     in the span inventory. The other way round, every span name in
     §8's span table is opened by some TASTI_SPAN under src/, so a row
     for a deleted span cannot stay behind; that half also runs on a
     fixture that must fail;
 12. every `target_clones(...)` or `target(...)` attribute under src/
     names only `avx2` or `default`: `fma` and every `avx512*` let the
     compiler contract mul-then-add into a fused op, which changes float
     results, and the ISA-dispatched kernels promise bit-identical
     output on every host (see src/nn/clones.h). The rule also runs on
     a fixture that must fail, so a broken pattern cannot pass silently.
 13. every `bool` field of a struct under src/ whose name ends in
     `Options` or `Policy` is assigned (`.field =` or `->field =`)
     somewhere under src/, tools/, bench/ or perfbench/ other than its
     own header and .cc: a switch that nothing sets, or that only tests
     and examples set, is a second code path that no caller runs. The
     match is by field name, so it is a floor, not a proof. Like rule
     12, it also runs on a fixture that must fail.
 14. no file under src/serve or src/shard calls CrackFromLabels,
     RepairRepresentative or AddRepresentative, or index_->AppendRecords:
     the server changes its index only through durable::Apply, the
     function recovery replays the WAL with, so a mutation that the log
     would replay differently cannot grow back. Comments do not count.
     Like rules 12 and 13, it also runs on a fixture that must fail.
 15. no file under src/serve or src/labeler names MetricsRegistry or
     #includes "obs/metrics.h": every component there owns a stats
     struct (ScoreCacheStats, SchedulerStats, ShedderStats,
     ResilienceStats, FaultCounts, ...), which is the only tally of its
     events, so a registry counter bumped from the same line as a struct
     field cannot grow back. Comments do not count. Like rules 12-14, it
     also runs on a fixture that must fail.
 16. every flag in tools/tasti_cli.cc's per-command table (kCommandFlags,
     the flags main() accepts) is named as `--flag` in the text Usage()
     prints, so a flag a command reads cannot go undocumented. Like
     rules 12-15, it also runs on a fixture that must fail.

Run directly (tools/check.sh tier1 and the CI lint job both do):
    python3 tools/check_targets.py
Exits nonzero with one line per violation.
"""

import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def fail(errors):
    for error in errors:
        print(f"check_targets: {error}", file=sys.stderr)
    sys.exit(1 if errors else 0)


# Rule 12: ISA names allowed in a target_clones/target attribute.
ALLOWED_CLONE_ISAS = {"avx2", "default"}
# The attribute name, then one or more string literals in its parentheses.
CLONE_ATTRIBUTE = re.compile(
    r'\b(?:target_clones|target)\s*\(((?:\s*"[^"]*"\s*,?)+)\)')


def clone_isa_violations(text):
    """(line, isa) for each ISA a target_clones/target attribute in `text`
    names outside ALLOWED_CLONE_ISAS."""
    violations = []
    for match in CLONE_ATTRIBUTE.finditer(text):
        line = text.count("\n", 0, match.start()) + 1
        for literal in re.findall(r'"([^"]*)"', match.group(1)):
            for isa in literal.split(","):
                isa = isa.strip()
                if isa not in ALLOWED_CLONE_ISAS:
                    violations.append((line, isa))
    return violations


# Rule 11: the header row of DESIGN.md §8's span table.
SPAN_TABLE_HEADER = "| span | opened around |"


def stale_span_rows(design, opened):
    """Span names in the first column of `design`'s span table (the table
    under SPAN_TABLE_HEADER) that are not in the set `opened`."""
    if SPAN_TABLE_HEADER not in design:
        return ["<no span table>"]
    rows = design.split(SPAN_TABLE_HEADER, 1)[1].splitlines()[2:]
    stale = []
    for row in rows:
        if not row.startswith("|"):
            break
        for name in re.findall(r"`([^`]+)`", row.split("|")[1]):
            if name not in opened:
                stale.append(name)
    return stale


# Rule 13: a struct named *Options / *Policy, its brace-balanced body, and
# the `bool name` fields declared directly in that body.
KNOB_STRUCT = re.compile(r"\bstruct\s+(\w*(?:Options|Policy))\s*\{")
BOOL_FIELD = re.compile(r"^\s*bool\s+(\w+)\s*(?:=[^;]*)?;", re.MULTILINE)


def bool_knobs(text):
    """(struct, field, line) for each bool field declared at the top level
    of a *Options / *Policy struct in `text`."""
    knobs = []
    for match in KNOB_STRUCT.finditer(text):
        depth, start = 1, match.end()
        body = []  # top-level text of the struct, nested bodies blanked
        for i in range(start, len(text)):
            ch = text[i]
            if ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
                if depth == 0:
                    break
            body.append(ch if depth == 1 or ch == "\n" else " ")
        body = "".join(body)
        for field in BOOL_FIELD.finditer(body):
            line = text.count("\n", 0, start + field.start(1)) + 1
            knobs.append((match.group(1), field.group(1), line))
    return knobs


# Directories whose files do not count as setters of a rule-13 knob.
NOT_CALLERS = ("tests", "examples")


def unset_knobs(headers, callers):
    """(header, struct, field, line) for each bool knob declared in
    `headers` ({path: text}) that no text in `callers` ({path: text}, paths
    relative to the repo root) assigns, where a header's own text, its
    sibling .cc and anything under NOT_CALLERS do not count."""
    unset = []
    for header, text in sorted(headers.items()):
        own = {header, header.with_suffix(".cc")}
        for struct, field, line in bool_knobs(text):
            assigned = re.compile(rf"(?:\.|->)\s*{field}\s*=(?!=)")
            if not any(assigned.search(body) for path, body in callers.items()
                       if path not in own and path.parts[0] not in NOT_CALLERS):
                unset.append((header, struct, field, line))
    return unset


# Rule 14: a direct index mutation, outside a `//` comment.
INDEX_MUTATION = re.compile(
    r"\b(?:CrackFromLabels|RepairRepresentative|AddRepresentative)\s*\("
    r"|\bindex_\s*->\s*AppendRecords\s*\(")


def index_mutations(text):
    """(line, call) for each direct index mutation in `text`."""
    found = []
    for lineno, line in enumerate(text.splitlines(), 1):
        code = line.split("//", 1)[0]
        for match in INDEX_MUTATION.finditer(code):
            found.append((lineno, match.group(0).rstrip("( ")))
    return found


# Rule 15: a metrics-registry mirror, outside a `//` comment.
REGISTRY_USE = re.compile(r'\bMetricsRegistry\b|#include\s+"obs/metrics\.h"')


def registry_uses(text):
    """Line numbers in `text` that use the metrics registry."""
    return [lineno for lineno, line in enumerate(text.splitlines(), 1)
            if REGISTRY_USE.search(line.split("//", 1)[0])]


# Rule 16: tasti_cli's per-command flag table and the Usage() function.
FLAG_TABLE = re.compile(r"\bkCommandFlags\s*=\s*\{(.*?)\n\};", re.S)
FLAG_TABLE_ENTRY = re.compile(r'\{"([\w-]+)",\s*\{([^}]*)\}\}')
USAGE_BODY = re.compile(r"\bint Usage\(\)\s*\{(.*?)\n\}", re.S)


def undocumented_flags(text):
    """(command, flag) for each flag in `text`'s kCommandFlags table that
    the string literals of its Usage() do not name as `--flag`."""
    table = FLAG_TABLE.search(text)
    usage = USAGE_BODY.search(text)
    if table is None or usage is None:
        return [("<no kCommandFlags table or Usage()>", "")]
    usage_text = "".join(re.findall(r'"((?:[^"\\]|\\.)*)"', usage.group(1)))
    named = set(re.findall(r"--([a-z0-9][a-z0-9-]*)", usage_text))
    entries = list(FLAG_TABLE_ENTRY.finditer(table.group(1)))
    if not entries:
        return [("<empty kCommandFlags table>", "")]
    return [(entry.group(1), flag)
            for entry in entries
            for flag in re.findall(r'"([^"]+)"', entry.group(2))
            if flag not in named]


def main():
    errors = []

    sources = {p.stem for p in (ROOT / "tests").glob("*_test.cc")}
    cmake = (ROOT / "tests" / "CMakeLists.txt").read_text()
    registrations = {}  # name -> labels
    for match in re.finditer(r"tasti_add_test\((\w+)([^)]*)\)", cmake):
        name, rest = match.group(1), match.group(2)
        labels_match = re.search(r"LABELS\s+([\w\s]+)", rest)
        registrations[name] = labels_match.group(1).split() if labels_match else []

    for name in sorted(sources - registrations.keys()):
        errors.append(
            f"tests/{name}.cc exists but has no tasti_add_test({name}) in "
            "tests/CMakeLists.txt"
        )
    for name in sorted(registrations.keys() - sources):
        errors.append(
            f"tasti_add_test({name}) in tests/CMakeLists.txt has no "
            f"tests/{name}.cc"
        )

    check_sh = (ROOT / "tools" / "check.sh").read_text()
    for name in sorted(set(re.findall(r"\b([a-z][a-z0-9_]*_test)\b", check_sh))):
        if name not in registrations:
            errors.append(
                f"tools/check.sh references {name}, which is not registered "
                "in tests/CMakeLists.txt"
            )

    for name, labels in sorted(registrations.items()):
        if "serve" in labels and not re.search(rf"\b{name}\b", check_sh):
            errors.append(
                f"{name} is labeled `serve` (concurrency-sensitive) but "
                "tools/check.sh never builds or runs it under TSan"
            )
        if "durable" in labels and not re.search(rf"\b{name}\b", check_sh):
            errors.append(
                f"{name} is labeled `durable` (crash-recovery IO paths) but "
                "tools/check.sh never builds or runs it under ASan"
            )
        if "shard" in labels and not re.search(rf"\b{name}\b", check_sh):
            errors.append(
                f"{name} is labeled `shard` (scatter-gather serving) but "
                "tools/check.sh never builds or runs it"
            )
    if "shard_test" in registrations and "shard" not in registrations["shard_test"]:
        errors.append(
            "tests/shard_test.cc is registered without the `shard` label, "
            "so the sharded-serving stage checks cannot find it"
        )
    all_labels = {l for labels in registrations.values() for l in labels}
    if "chaos" in all_labels and "-L chaos" not in check_sh:
        errors.append(
            "tests carry the `chaos` label but tools/check.sh has no "
            "`ctest -L chaos` stage"
        )
    if "durable" in all_labels and "-L durable" not in check_sh:
        errors.append(
            "tests carry the `durable` label but tools/check.sh has no "
            "`ctest -L durable` stage"
        )
    if "overload" in all_labels and "-L overload" not in check_sh:
        errors.append(
            "tests carry the `overload` label but tools/check.sh has no "
            "`ctest -L overload` stage"
        )
    if (
        "overload_test" in registrations
        and "overload" not in registrations["overload_test"]
    ):
        errors.append(
            "tests/overload_test.cc is registered without the `overload` "
            "label, so the overload stage's ctest filter cannot find it"
        )

    bench_sources = {p.stem for p in (ROOT / "bench").glob("*.cc")}
    bench_cmake = (ROOT / "bench" / "CMakeLists.txt").read_text()
    bench_registered = set(
        re.findall(r"(?:tasti_add_bench|add_executable)\((\w+)", bench_cmake)
    )
    for name in sorted(bench_sources - bench_registered):
        errors.append(
            f"bench/{name}.cc exists but bench/CMakeLists.txt never "
            f"registers a `{name}` target"
        )
    for name in sorted(bench_registered - bench_sources):
        errors.append(
            f"bench/CMakeLists.txt registers `{name}` but bench/{name}.cc "
            "does not exist"
        )

    tool_sources = {p.stem for p in (ROOT / "tools").glob("*.cc")}
    tools_cmake = (ROOT / "tools" / "CMakeLists.txt").read_text()
    tools_registered = set(re.findall(r"add_executable\((\w+)", tools_cmake))
    for name in sorted(tool_sources - tools_registered):
        errors.append(
            f"tools/{name}.cc exists but tools/CMakeLists.txt never "
            f"registers a `{name}` target"
        )
    for name in sorted(tools_registered - tool_sources):
        errors.append(
            f"tools/CMakeLists.txt registers `{name}` but tools/{name}.cc "
            "does not exist"
        )

    ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text()

    stage_functions = set(re.findall(r"^stage_(\w+)\(\)", check_sh, re.MULTILINE))
    # Union over assignments: --fast sets STAGES=(tier1), the no-argument
    # default sets the full list; a stage must appear in the latter.
    default_stages = set()
    for match in re.finditer(r"STAGES=\(([\w\s]+)\)", check_sh):
        default_stages |= set(match.group(1).split())
    ci_stages = set(re.findall(r"stage:\s*(\w+)", ci))
    for name in sorted(stage_functions - default_stages):
        errors.append(
            f"tools/check.sh defines stage_{name} but the default STAGES "
            "list never runs it"
        )
    for name in sorted(default_stages - stage_functions):
        errors.append(
            f"tools/check.sh lists `{name}` in STAGES but defines no "
            f"stage_{name} function"
        )
    for name in sorted(stage_functions):
        if not re.search(rf"\b{name}\|", check_sh) and not re.search(
            rf"\|{name}\)", check_sh
        ):
            errors.append(
                f"tools/check.sh's --stage validation does not accept "
                f"`{name}`"
            )
    for name in sorted(stage_functions - ci_stages):
        errors.append(
            f"tools/check.sh defines stage_{name} but .github/workflows/"
            f"ci.yml has no `stage: {name}` matrix entry"
        )

    for baseline in sorted((ROOT / "bench" / "baselines").glob("BENCH_*.json")):
        if baseline.name not in ci:
            errors.append(
                f"bench/baselines/{baseline.name} is committed but the CI "
                "bench-regression job never gates it"
            )
    # The reverse: a baseline path in ci.yml that is not committed would
    # make bench_compare fail on every run.
    for name in sorted(set(re.findall(r"bench/baselines/(BENCH_\w+\.json)", ci))):
        if not (ROOT / "bench" / "baselines" / name).exists():
            errors.append(
                f"ci.yml gates bench/baselines/{name}, which does not exist "
                "in-tree"
            )

    if "bench_shard" in bench_registered and "bench_shard" not in ci:
        errors.append(
            "bench_shard is registered in bench/CMakeLists.txt but the CI "
            "bench-regression job never builds or runs it"
        )

    for module in ("queries", "core", "api", "serve", "shard"):
        for header in sorted((ROOT / "src" / module).glob("*.h")):
            for lineno, line in enumerate(header.read_text().splitlines(), 1):
                if "TargetLabeler" in line:
                    errors.append(
                        f"src/{module}/{header.name}:{lineno} mentions "
                        "TargetLabeler; take a labeler::FallibleLabeler "
                        "(wrap ground truth in labeler::FallibleAdapter)"
                    )

    src = ROOT / "src"
    included = set()
    for top in ("src", "tools", "bench", "examples", "perfbench"):
        for path in (ROOT / top).rglob("*"):
            if path.suffix not in (".h", ".cc"):
                continue
            for name in re.findall(r'^\s*#\s*include\s+"([^"]+)"',
                                   path.read_text(), re.MULTILINE):
                for target in (src / name, path.parent / name):
                    if target.resolve() != path.with_suffix(".h").resolve():
                        included.add(target.resolve())
    for header in sorted(src.rglob("*.h")):
        if header.resolve() not in included:
            errors.append(
                f"src/{header.relative_to(src)} is included by nothing under "
                "src/, tools/, bench/, examples/ or perfbench/ but its own "
                ".cc; delete it or use it"
            )

    design = (ROOT / "DESIGN.md").read_text()
    spans = {}  # name -> first site
    for path in sorted(src.rglob("*")):
        if path.suffix not in (".h", ".cc"):
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            for name in re.findall(r'TASTI_SPAN\("([^"]+)"\)', line):
                spans.setdefault(name, f"src/{path.relative_to(src)}:{lineno}")
    for name, site in sorted(spans.items()):
        if f"`{name}`" not in design:
            errors.append(
                f"{site} opens span {name}, which DESIGN.md does not list "
                f"as `{name}`; add it to the §8 span table"
            )

    fixture = f"{SPAN_TABLE_HEADER}\n|---|---|\n| `serve.crack` | a crack |\n" \
        "| `serve.query`, `session.crack` | gone |\n\n| `index.gone` | prose |\n"
    if stale_span_rows(fixture, {"serve.crack", "serve.query"}) != [
            "session.crack"]:
        errors.append(
            "rule 11 no longer flags the unopened `session.crack` row in its "
            "own fixture; fix stale_span_rows before trusting it on DESIGN.md"
        )
    for name in stale_span_rows(design, spans):
        errors.append(
            f"DESIGN.md §8's span table lists `{name}`, which no "
            "TASTI_SPAN under src/ opens; delete the row or open the span"
        )

    fixture = '__attribute__((target_clones("avx2", "fma", "default")))\n' \
        '__attribute__((target("avx512f,avx2")))\n'
    if [isa for _, isa in clone_isa_violations(fixture)] != ["fma", "avx512f"]:
        errors.append(
            "rule 12 no longer flags `fma`/`avx512f` in its own fixture; "
            "fix CLONE_ATTRIBUTE before trusting it on src/"
        )
    for path in sorted(src.rglob("*")):
        if path.suffix not in (".h", ".cc"):
            continue
        for line, isa in clone_isa_violations(path.read_text()):
            errors.append(
                f"src/{path.relative_to(src)}:{line} names ISA `{isa}` in a "
                "target_clones/target attribute; only avx2 and default keep "
                "float results bit-identical (no FMA contraction)"
            )

    fixture_header = pathlib.Path("fixture.h")
    fixture = {fixture_header: "struct FixtureOptions {\n  bool set = false;\n"
               "  struct Inner { bool nested; };\n  bool unset = true;\n"
               "  bool test_only = false;\n};\n"}
    fixture_callers = {pathlib.Path("caller.cc"): "opts.set = true;\n"
                       "if (opts.unset == false) {}\n",
                       pathlib.Path("fixture.cc"): "opts->unset = false;\n",
                       pathlib.Path("tests/fixture_test.cc"):
                           "opts.test_only = true;\n",
                       pathlib.Path("examples/demo.cc"):
                           "opts.test_only = true;\n"}
    if [(s, f) for _, s, f, _ in unset_knobs(fixture, fixture_callers)] != [
            ("FixtureOptions", "unset"), ("FixtureOptions", "test_only")]:
        errors.append(
            "rule 13 no longer flags the unset and the test-only `bool` in "
            "its own fixture; fix bool_knobs/unset_knobs before trusting it "
            "on src/"
        )
    headers = {path.relative_to(ROOT): path.read_text()
               for path in sorted(src.rglob("*.h"))}
    callers = {}
    for top in ("src", "tools", "bench", "examples", "perfbench", "tests"):
        for path in (ROOT / top).rglob("*"):
            if path.suffix in (".h", ".cc"):
                callers[path.relative_to(ROOT)] = path.read_text()
    for header, struct, field, line in unset_knobs(headers, callers):
        errors.append(
            f"{header}:{line} declares bool "
            f"{struct}::{field}, which nothing outside its own header and "
            ".cc, tests/ and examples/ assigns; delete the switch or set it "
            "somewhere"
        )

    fixture = ("  // CrackFromLabels() is reached through durable::Apply.\n"
               "  index_->CrackFromLabels(records, labels);\n"
               "  servers_[last]->AppendRecords(features);\n"
               "  index_->AppendRecords(features);\n")
    if [line for line, _ in index_mutations(fixture)] != [2, 4]:
        errors.append(
            "rule 14 no longer flags the direct index_->CrackFromLabels and "
            "index_->AppendRecords calls in its own fixture server; fix "
            "INDEX_MUTATION before trusting it on src/"
        )
    for module in ("serve", "shard"):
        for path in sorted((src / module).glob("*")):
            if path.suffix not in (".h", ".cc"):
                continue
            for line, call in index_mutations(path.read_text()):
                errors.append(
                    f"src/{module}/{path.name}:{line} calls {call} directly; "
                    "the server mutates its index only through "
                    "durable::Apply, which recovery replays the WAL with"
                )

    fixture = ('#include "obs/metrics.h"\n'
               "// Tallies live in ScoreCacheStats, not obs::MetricsRegistry.\n"
               "  static obs::Counter* const hits =\n"
               '      obs::MetricsRegistry::Global().counter("hits");\n')
    if registry_uses(fixture) != [1, 4]:
        errors.append(
            "rule 15 no longer flags the registry include and the "
            "MetricsRegistry counter in its own fixture; fix REGISTRY_USE "
            "before trusting it on src/"
        )
    for module in ("serve", "labeler"):
        for path in sorted((src / module).glob("*")):
            if path.suffix not in (".h", ".cc"):
                continue
            for line in registry_uses(path.read_text()):
                errors.append(
                    f"src/{module}/{path.name}:{line} uses the metrics "
                    "registry; components under src/serve and src/labeler "
                    "count their events only in their own stats structs"
                )

    fixture = ('int Usage() {\n  std::fprintf(stderr, "usage: --trace=PATH "\n'
               '      "--out PATH\\n");\n  return 2;\n}\n'
               "const std::map<std::string, std::set<std::string>> "
               "kCommandFlags = {\n"
               '    {"build", {"out", "trace", "bogus"}},\n'
               '    {"info", {"trace"}},\n};\n')
    if undocumented_flags(fixture) != [("build", "bogus")]:
        errors.append(
            "rule 16 no longer flags the table flag its own fixture's usage "
            "text leaves out; fix undocumented_flags before trusting it on "
            "tools/tasti_cli.cc"
        )
    for command, flag in undocumented_flags(
            (ROOT / "tools" / "tasti_cli.cc").read_text()):
        errors.append(
            f"tools/tasti_cli.cc: {command} reads --{flag}, which Usage() "
            "does not name"
        )

    fail(errors)


if __name__ == "__main__":
    main()
