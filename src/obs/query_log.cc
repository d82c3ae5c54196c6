#include "obs/query_log.h"

#include <cstdio>

namespace tasti::obs {

QueryPhaseTimes PhaseTimesFromSpans(const SpanTotals& spans) {
  const int64_t oracle_ns = spans.Nanos("oracle.call");
  QueryPhaseTimes phases;
  phases.rep_score_seconds = spans.Seconds("query.proxy.rep_scores") +
                             spans.Seconds("query.proxy.rep_scores_delta");
  phases.propagation_seconds = spans.Seconds("query.proxy.propagate") +
                               spans.Seconds("query.proxy.propagate_delta");
  phases.oracle_seconds = static_cast<double>(oracle_ns) * 1e-9;
  phases.algorithm_seconds =
      static_cast<double>(spans.Nanos("serve.execute") - oracle_ns) * 1e-9;
  phases.crack_seconds = spans.Seconds("serve.crack");
  return phases;
}

void QueryLog::RecordIndexBuild(size_t invocations, double seconds) {
  index_invocations_ += invocations;
  index_build_seconds_ += seconds;
}

void QueryLog::AddQuery(QueryRecord record) {
  using labeler::LabelerKind;
  record.human_dollars =
      cost_model_.LabelCost(LabelerKind::kHuman, record.labeler_invocations);
  record.mask_rcnn_seconds =
      cost_model_.LabelCost(LabelerKind::kMaskRCnn, record.labeler_invocations);
  record.ssd_seconds =
      cost_model_.LabelCost(LabelerKind::kSsd, record.labeler_invocations);
  queries_.push_back(std::move(record));
}

size_t QueryLog::total_invocations() const {
  size_t total = index_invocations_;
  for (const QueryRecord& query : queries_) {
    total += query.labeler_invocations;
  }
  return total;
}

double QueryLog::total_query_seconds() const {
  double total = 0.0;
  for (const QueryRecord& query : queries_) {
    total += query.phases.TotalSeconds();
  }
  return total;
}

void QueryLog::Clear() {
  index_invocations_ = 0;
  index_build_seconds_ = 0.0;
  queries_.clear();
}

namespace {
void AppendEscaped(const std::string& s, std::string* out) {
  for (char c : s) {
    if (c == '"' || c == '\\') out->push_back('\\');
    out->push_back(c);
  }
}

std::string Fmt(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}
}  // namespace

std::string QueryLog::ToJson() const {
  std::string out;
  out += "{\n  \"index\": {\"labeler_invocations\": " +
         std::to_string(index_invocations_) +
         ", \"build_seconds\": " + Fmt(index_build_seconds_) + "},\n";
  out += "  \"queries\": [\n";
  for (size_t i = 0; i < queries_.size(); ++i) {
    const QueryRecord& q = queries_[i];
    out += "    {\"query_type\": \"";
    AppendEscaped(q.query_type, &out);
    out += "\", \"params\": \"";
    AppendEscaped(q.params, &out);
    out += "\",\n     \"labeler_invocations\": " +
           std::to_string(q.labeler_invocations) +
           ", \"cracked_representatives\": " +
           std::to_string(q.cracked_representatives) +
           ", \"failed_oracle_calls\": " +
           std::to_string(q.failed_oracle_calls) +
           ", \"repaired_representatives\": " +
           std::to_string(q.repaired_representatives) +
           ", \"proxy_source\": \"";
    AppendEscaped(q.proxy_source, &out);
    out += "\", \"proxy_delta_rows\": " +
           std::to_string(q.proxy_delta_rows) + ",\n";
    out += "     \"phase_seconds\": {\"rep_score\": " +
           Fmt(q.phases.rep_score_seconds) +
           ", \"propagation\": " + Fmt(q.phases.propagation_seconds) +
           ", \"algorithm\": " + Fmt(q.phases.algorithm_seconds) +
           ", \"oracle\": " + Fmt(q.phases.oracle_seconds) +
           ", \"crack\": " + Fmt(q.phases.crack_seconds) +
           ", \"total\": " + Fmt(q.phases.TotalSeconds()) + "},\n";
    out += "     \"cost\": {\"human_dollars\": " + Fmt(q.human_dollars) +
           ", \"mask_rcnn_seconds\": " + Fmt(q.mask_rcnn_seconds) +
           ", \"ssd_seconds\": " + Fmt(q.ssd_seconds) + "}}";
    out += i + 1 < queries_.size() ? ",\n" : "\n";
  }
  out += "  ],\n";
  out += "  \"totals\": {\"labeler_invocations\": " +
         std::to_string(total_invocations()) +
         ", \"query_seconds\": " + Fmt(total_query_seconds()) + "}\n}\n";
  return out;
}

Status QueryLog::WriteJson(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IOError("cannot open " + path);
  const std::string json = ToJson();
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  if (written != json.size()) return Status::IOError("short write to " + path);
  return Status::OK();
}

}  // namespace tasti::obs
