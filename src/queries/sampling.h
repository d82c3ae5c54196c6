#ifndef TASTI_QUERIES_SAMPLING_H_
#define TASTI_QUERIES_SAMPLING_H_

/// \file sampling.h
/// Sampling steps shared by the query algorithms: drawing importance
/// samples, and handing samples to the oracle in rounds — one
/// TryLabelBatch per round, so a scheduler underneath can overlap the
/// calls of a round instead of waiting for them one at a time.

#include <cstddef>
#include <vector>

#include "data/schema.h"
#include "labeler/labeler.h"
#include "serve/deadline.h"
#include "util/random.h"
#include "util/status.h"

namespace tasti::queries {

/// `count` records drawn with replacement, record i with probability
/// proportional to its weight: an inverse-CDF draw over `prefix`, the
/// running sums of the weights, whose last entry is `total_weight`. Takes
/// one rng->Uniform() per draw.
std::vector<size_t> DrawWithReplacement(const std::vector<double>& prefix,
                                        double total_weight, size_t count,
                                        Rng* rng);

/// Labels `records` in order, one TryLabelBatch per run of distinct
/// records. A run ends just before a record it already holds, so a record
/// drawn twice is asked for again only after its first call returned — a
/// cache hit if that call succeeded, a fresh call if it failed — and the
/// calls, their order and their outcomes are those of a loop of TryLabel
/// calls. `deadline` is checked before each run.
///
/// Returns one result per labeled position, in order. A result shorter
/// than `records` means the deadline stopped the labeling, either before
/// a run or inside one (a DeadlineOracle admits only a prefix); the
/// positions past its end were not attempted.
std::vector<Result<data::LabelerOutput>> LabelInRuns(
    labeler::FallibleLabeler* oracle, const std::vector<size_t>& records,
    const serve::Deadline& deadline);

/// Sample count at the stopping check after `taken` samples, for a rule
/// that first checks at `min_samples` and then every `check_interval`
/// samples (the EBS schedule).
size_t NextStoppingCheck(size_t taken, size_t min_samples,
                         size_t check_interval);

}  // namespace tasti::queries

#endif  // TASTI_QUERIES_SAMPLING_H_
