#include "eval/reporting.h"

#include <cstdarg>
#include <cstdio>
#include <vector>

#include "util/stats.h"

namespace tasti::eval {

namespace {
bool g_quiet = false;
}  // namespace

void PrintBanner(const std::string& title) {
  std::printf("\n== %s ==\n", title.c_str());
}

void PrintPaperReference(const std::string& text) {
  std::printf("paper:    %s\n", text.c_str());
}

void PrintTable(const TablePrinter& table) {
  std::printf("%s\n", table.ToString().c_str());
}

void PrintTakeaway(const std::string& text) {
  std::printf("measured: %s\n", text.c_str());
}

void SetQuiet(bool quiet) { g_quiet = quiet; }
bool Quiet() { return g_quiet; }

void Diag(const char* format, ...) {
  if (g_quiet) return;
  std::fputs("# ", stdout);
  va_list args;
  va_start(args, format);
  std::vprintf(format, args);
  va_end(args);
  std::fputc('\n', stdout);
}

void PrintQueryLog(const obs::QueryLog& log) {
  std::printf("index build: %s labeler calls, %ss\n",
              FmtCount(static_cast<long long>(log.index_invocations())).c_str(),
              Fmt(log.index_build_seconds(), 3).c_str());
  TablePrinter table({"query", "params", "calls", "proxy s", "algo s",
                      "oracle s", "crack s", "human cost"});
  for (const obs::QueryRecord& q : log.queries()) {
    table.AddRow({q.query_type, q.params,
                  FmtCount(static_cast<long long>(q.labeler_invocations)),
                  Fmt(q.phases.rep_score_seconds + q.phases.propagation_seconds,
                      3),
                  Fmt(q.phases.algorithm_seconds, 3),
                  Fmt(q.phases.oracle_seconds, 3),
                  Fmt(q.phases.crack_seconds, 3),
                  FmtDollars(q.human_dollars)});
  }
  PrintTable(table);
  std::printf("totals: %s labeler calls, %ss across %zu queries\n",
              FmtCount(static_cast<long long>(log.total_invocations())).c_str(),
              Fmt(log.total_query_seconds(), 3).c_str(), log.queries().size());
  if (log.queries().size() >= 2) {
    // Exact order statistics of the per-query totals.
    std::vector<double> ms;
    for (const obs::QueryRecord& q : log.queries()) {
      ms.push_back(q.phases.TotalSeconds() * 1000.0);
    }
    std::printf("latency:  p50=%sms p95=%sms p99=%sms\n",
                Fmt(Quantile(ms, 0.50), 2).c_str(),
                Fmt(Quantile(ms, 0.95), 2).c_str(),
                Fmt(Quantile(ms, 0.99), 2).c_str());
  }
}

}  // namespace tasti::eval
