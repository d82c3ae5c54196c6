// validate_trace: structural validator for the Chrome trace_event JSON
// emitted by obs::TraceRecorder, used by the trace_check CTest.
//
//   validate_trace trace.json [--require=name ...] [--min-query-types=N]
//   validate_trace flight.json --flight [--max-events=N]
//
// Default (full-trace) checks:
//   1. the file parses as JSON with a "traceEvents" array,
//   2. every event is a complete ("X") event with name/ts/dur/pid/tid and
//      a ts at or after the recorder's time zero (ts >= 0),
//   3. per tid, events form properly nested intervals (a span either
//      contains or is disjoint from any other span on the same thread —
//      no partial overlap, which would render as a broken flame graph),
//   4. every --require='d span name occurs at least once,
//   5. at least --min-query-types distinct "query.*" span families
//      (second path component, e.g. query.supg.sample -> supg) appear.
//
// --flight validates an obs::FlightRecorder dump instead, which uses
// "B"/"E" begin/end pairs (the rings truncate, so orphaned parents must
// not be fabricated as complete events) plus one "i" instant event named
// "flight.dump" carrying the dump reason:
//   1. every event is "B", "E", or "i" with name/ts/pid/tid and ts >= 0,
//   2. exactly one "flight.dump" instant event with a non-empty
//      args.reason,
//   3. per tid, timestamps are monotonic (non-decreasing) in file order,
//   4. per tid, "B"/"E" events match like parentheses with equal names
//      and an empty stack at end of file (so B count == E count),
//   5. with --max-events=N, at most N events total (the dump is bounded
//      by the recorder's per-thread ring capacity).
//
// Exits 0 when all checks pass; prints the first failure and exits 1
// otherwise.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "util/json.h"

namespace {

using tasti::json::Value;

int Fail(const std::string& message) {
  std::fprintf(stderr, "validate_trace: %s\n", message.c_str());
  return 1;
}

struct Interval {
  long long ts;
  long long end;
  std::string name;
};

/// Validates a flight-recorder dump (see the file comment). `max_events`
/// of 0 disables the bound check.
int ValidateFlight(const Value& events, size_t max_events) {
  size_t total = 0;
  size_t begins = 0;
  size_t ends = 0;
  size_t instants = 0;
  std::string reason;
  std::map<long long, long long> last_ts;
  std::map<long long, std::vector<std::string>> stacks;
  size_t index = 0;
  for (const Value& event : events.AsArray()) {
    const std::string at = "event " + std::to_string(index++);
    if (!event.is_object()) return Fail(at + ": not an object");
    const Value* name = event.Find("name");
    if (name == nullptr || !name->is_string() || name->AsString().empty()) {
      return Fail(at + ": missing name");
    }
    const std::string ph = event.GetStringOr("ph", "");
    if (ph != "B" && ph != "E" && ph != "i") {
      return Fail(at + " (" + name->AsString() + "): ph '" + ph +
                  "' is not B, E, or i");
    }
    for (const char* field : {"ts", "pid", "tid"}) {
      const Value* v = event.Find(field);
      if (v == nullptr || !v->is_number()) {
        return Fail(at + " (" + name->AsString() + "): missing numeric " +
                    field);
      }
    }
    ++total;
    const long long tid = static_cast<long long>(event.GetNumberOr("tid", 0.0));
    const long long ts = static_cast<long long>(event.GetNumberOr("ts", 0.0));
    if (ts < 0) {
      return Fail(at + " (" + name->AsString() +
                  "): negative ts (span opened before the trace's time zero)");
    }
    if (ph == "i") {
      ++instants;
      if (name->AsString() == "flight.dump") {
        const Value* args = event.Find("args");
        if (args != nullptr) reason = args->GetStringOr("reason", "");
        if (reason.empty()) {
          return Fail(at + ": flight.dump instant missing args.reason");
        }
      }
      continue;
    }
    auto [it, first] = last_ts.try_emplace(tid, ts);
    if (!first && ts < it->second) {
      return Fail("tid " + std::to_string(tid) + ": timestamp went backwards "
                  "at '" + name->AsString() + "' (" + std::to_string(ts) +
                  " < " + std::to_string(it->second) + ")");
    }
    it->second = ts;
    std::vector<std::string>& stack = stacks[tid];
    if (ph == "B") {
      ++begins;
      stack.push_back(name->AsString());
    } else {
      ++ends;
      if (stack.empty()) {
        return Fail("tid " + std::to_string(tid) + ": 'E' for '" +
                    name->AsString() + "' with no open span");
      }
      if (stack.back() != name->AsString()) {
        return Fail("tid " + std::to_string(tid) + ": 'E' for '" +
                    name->AsString() + "' but innermost open span is '" +
                    stack.back() + "'");
      }
      stack.pop_back();
    }
  }
  if (reason.empty()) return Fail("no flight.dump instant event");
  for (const auto& [tid, stack] : stacks) {
    if (!stack.empty()) {
      return Fail("tid " + std::to_string(tid) + ": " +
                  std::to_string(stack.size()) + " span(s) left open ('" +
                  stack.back() + "')");
    }
  }
  if (begins != ends) {
    return Fail("unbalanced spans: " + std::to_string(begins) + " B vs " +
                std::to_string(ends) + " E events");
  }
  if (max_events > 0 && total > max_events) {
    return Fail("dump has " + std::to_string(total) + " events, bound is " +
                std::to_string(max_events));
  }
  std::printf("validate_trace: flight OK (%zu events: %zu spans, %zu "
              "instants, %zu threads, reason \"%s\")\n",
              total, begins, instants, stacks.size(), reason.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: validate_trace trace.json [--require=name ...] "
                 "[--min-query-types=N]\n"
                 "       validate_trace flight.json --flight "
                 "[--max-events=N]\n");
    return 2;
  }
  std::vector<std::string> required;
  size_t min_query_types = 0;
  bool flight = false;
  size_t max_events = 0;
  for (int i = 2; i < argc; ++i) {
    if (std::strncmp(argv[i], "--require=", 10) == 0) {
      required.emplace_back(argv[i] + 10);
    } else if (std::strncmp(argv[i], "--min-query-types=", 18) == 0) {
      min_query_types = static_cast<size_t>(std::atol(argv[i] + 18));
    } else if (std::strcmp(argv[i], "--flight") == 0) {
      flight = true;
    } else if (std::strncmp(argv[i], "--max-events=", 13) == 0) {
      max_events = static_cast<size_t>(std::atol(argv[i] + 13));
    } else {
      return Fail(std::string("unknown flag: ") + argv[i]);
    }
  }

  std::ifstream in(argv[1]);
  if (!in) return Fail(std::string("cannot open ") + argv[1]);
  std::stringstream buffer;
  buffer << in.rdbuf();

  const tasti::Result<Value> doc = Value::Parse(buffer.str());
  if (!doc.ok()) return Fail("parse error: " + doc.status().ToString());
  const Value* events = doc->Find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    return Fail("missing traceEvents array");
  }
  if (flight) return ValidateFlight(*events, max_events);

  std::set<std::string> seen_names;
  std::set<std::string> query_families;
  std::map<long long, std::vector<Interval>> by_tid;
  size_t index = 0;
  for (const Value& event : events->AsArray()) {
    const std::string at = "event " + std::to_string(index++);
    if (!event.is_object()) return Fail(at + ": not an object");
    const Value* name = event.Find("name");
    if (name == nullptr || !name->is_string() || name->AsString().empty()) {
      return Fail(at + ": missing name");
    }
    if (event.GetStringOr("ph", "") != "X") {
      return Fail(at + " (" + name->AsString() + "): ph is not \"X\"");
    }
    for (const char* field : {"ts", "dur", "pid", "tid"}) {
      const Value* v = event.Find(field);
      if (v == nullptr || !v->is_number()) {
        return Fail(at + " (" + name->AsString() + "): missing numeric " +
                    field);
      }
    }
    if (event.GetNumberOr("dur", -1.0) < 0.0) {
      return Fail(at + " (" + name->AsString() + "): negative dur");
    }
    if (event.GetNumberOr("ts", -1.0) < 0.0) {
      return Fail(at + " (" + name->AsString() +
                  "): negative ts (span opened before the trace's time zero)");
    }
    seen_names.insert(name->AsString());
    if (name->AsString().rfind("query.", 0) == 0) {
      const std::string rest = name->AsString().substr(6);
      query_families.insert(rest.substr(0, rest.find('.')));
    }
    Interval interval;
    interval.ts = static_cast<long long>(event.GetNumberOr("ts", 0.0));
    interval.end =
        interval.ts + static_cast<long long>(event.GetNumberOr("dur", 0.0));
    interval.name = name->AsString();
    by_tid[static_cast<long long>(event.GetNumberOr("tid", 0.0))].push_back(
        interval);
  }

  // Nesting check per thread: sort by (ts asc, end desc) and walk a stack
  // of enclosing spans. A span starting before the innermost open span
  // ends must also end within it.
  for (auto& [tid, intervals] : by_tid) {
    std::sort(intervals.begin(), intervals.end(),
              [](const Interval& a, const Interval& b) {
                if (a.ts != b.ts) return a.ts < b.ts;
                return a.end > b.end;
              });
    std::vector<Interval> stack;
    for (const Interval& interval : intervals) {
      while (!stack.empty() && stack.back().end <= interval.ts) {
        stack.pop_back();
      }
      if (!stack.empty() && interval.end > stack.back().end) {
        return Fail("tid " + std::to_string(tid) + ": span '" + interval.name +
                    "' partially overlaps '" + stack.back().name + "'");
      }
      stack.push_back(interval);
    }
  }

  for (const std::string& name : required) {
    if (seen_names.count(name) == 0) {
      return Fail("required span missing: " + name);
    }
  }
  if (query_families.size() < min_query_types) {
    return Fail("expected >= " + std::to_string(min_query_types) +
                " distinct query span families, saw " +
                std::to_string(query_families.size()));
  }

  std::printf("validate_trace: OK (%zu events, %zu distinct spans, %zu "
              "threads)\n",
              index, seen_names.size(), by_tid.size());
  return 0;
}
