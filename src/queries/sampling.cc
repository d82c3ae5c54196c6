#include "queries/sampling.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

namespace tasti::queries {

std::vector<size_t> DrawWithReplacement(const std::vector<double>& prefix,
                                        double total_weight, size_t count,
                                        Rng* rng) {
  std::vector<size_t> draws(count);
  for (size_t& record : draws) {
    const double target = rng->Uniform() * total_weight;
    const auto first = std::lower_bound(prefix.begin(), prefix.end(), target);
    record = std::min(static_cast<size_t>(first - prefix.begin()),
                      prefix.size() - 1);
  }
  return draws;
}

std::vector<Result<data::LabelerOutput>> LabelInRuns(
    labeler::FallibleLabeler* oracle, const std::vector<size_t>& records,
    const serve::Deadline& deadline) {
  std::vector<Result<data::LabelerOutput>> results;
  results.reserve(records.size());
  std::vector<size_t> run;
  std::unordered_set<size_t> in_run;
  size_t next = 0;
  while (next < records.size() && !deadline.exhausted()) {
    run.clear();
    in_run.clear();
    while (next < records.size() && in_run.insert(records[next]).second) {
      run.push_back(records[next++]);
    }
    std::vector<Result<data::LabelerOutput>> labels =
        oracle->TryLabelBatch(run);
    const bool cut = labels.size() < run.size();
    for (Result<data::LabelerOutput>& label : labels) {
      results.push_back(std::move(label));
    }
    if (cut) break;
  }
  return results;
}

size_t NextStoppingCheck(size_t taken, size_t min_samples,
                         size_t check_interval) {
  if (taken < min_samples) return min_samples;
  return min_samples +
         ((taken - min_samples) / check_interval + 1) * check_interval;
}

}  // namespace tasti::queries
