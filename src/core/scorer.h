#ifndef TASTI_CORE_SCORER_H_
#define TASTI_CORE_SCORER_H_

/// \file scorer.h
/// Query-specific scoring functions (paper Section 4.2):
/// labeler output -> score. TASTI evaluates a scorer exactly on the
/// cluster representatives and propagates the scores to all other records.
///
/// Implementing a new query type is a few lines:
///
///   core::LambdaScorer at_least_five(
///       [](const data::LabelerOutput& out) {
///         return data::CountClass(out, data::ObjectClass::kCar) >= 5 ? 1.0
///                                                                    : 0.0;
///       },
///       /*categorical=*/true, "at_least_five_cars");

#include <functional>
#include <memory>
#include <string>

#include "data/schema.h"

namespace tasti::core {

/// A query-specific scoring function over target labeler outputs.
class Scorer {
 public:
  virtual ~Scorer() = default;

  /// Maps one labeler output to a numeric score.
  virtual double Score(const data::LabelerOutput& output) const = 0;

  /// Descriptive only: true when the scorer emits a small discrete set of
  /// values (0/1 predicates, class ids). Propagation never reads it; every
  /// scorer propagates by inverse-distance-weighted mean (Section 4.3),
  /// which beat a majority vote on categorical scorers (EXPERIMENTS.md).
  virtual bool categorical() const { return false; }

  virtual std::string Name() const = 0;
};

/// Number of boxes of a class ("count the cars per frame", BlazeIt-style
/// aggregation).
class CountScorer : public Scorer {
 public:
  explicit CountScorer(data::ObjectClass cls) : cls_(cls) {}
  double Score(const data::LabelerOutput& output) const override {
    return data::CountClass(output, cls_);
  }
  std::string Name() const override {
    return "count(" + data::ObjectClassName(cls_) + ")";
  }

 private:
  data::ObjectClass cls_;
};

/// 1 if any box of the class is present, else 0 (selection predicates).
class PresenceScorer : public Scorer {
 public:
  explicit PresenceScorer(data::ObjectClass cls) : cls_(cls) {}
  double Score(const data::LabelerOutput& output) const override {
    return data::CountClass(output, cls_) > 0 ? 1.0 : 0.0;
  }
  bool categorical() const override { return true; }
  std::string Name() const override {
    return "has(" + data::ObjectClassName(cls_) + ")";
  }

 private:
  data::ObjectClass cls_;
};

/// 1 if any box of the class sits in the left half of the frame
/// (the position-predicate query of paper Section 6.4, Figure 7).
class LeftPresenceScorer : public Scorer {
 public:
  explicit LeftPresenceScorer(data::ObjectClass cls) : cls_(cls) {}
  double Score(const data::LabelerOutput& output) const override {
    return data::HasClassOnLeft(output, cls_) ? 1.0 : 0.0;
  }
  bool categorical() const override { return true; }
  std::string Name() const override {
    return "has_left(" + data::ObjectClassName(cls_) + ")";
  }

 private:
  data::ObjectClass cls_;
};

/// Mean x-position of boxes of the class (the regression query of paper
/// Section 6.4, Figure 8). Empty frames score 0.5 (frame center).
class MeanXScorer : public Scorer {
 public:
  explicit MeanXScorer(data::ObjectClass cls) : cls_(cls) {}
  double Score(const data::LabelerOutput& output) const override {
    return data::MeanXPosition(output, cls_);
  }
  std::string Name() const override {
    return "mean_x(" + data::ObjectClassName(cls_) + ")";
  }

 private:
  data::ObjectClass cls_;
};

/// Number of predicates of a parsed question (WikiSQL aggregation).
class PredicateCountScorer : public Scorer {
 public:
  double Score(const data::LabelerOutput& output) const override {
    const auto* text = std::get_if<data::TextLabel>(&output);
    return text != nullptr ? text->num_predicates : 0.0;
  }
  std::string Name() const override { return "num_predicates"; }
};

/// 1 if the question parses to the given SQL operator (WikiSQL selection:
/// the paper selects "star operators", i.e. plain SELECTs).
class SqlOpScorer : public Scorer {
 public:
  explicit SqlOpScorer(data::SqlOp op) : op_(op) {}
  double Score(const data::LabelerOutput& output) const override {
    const auto* text = std::get_if<data::TextLabel>(&output);
    return (text != nullptr && text->op == op_) ? 1.0 : 0.0;
  }
  bool categorical() const override { return true; }
  std::string Name() const override { return "op=" + data::SqlOpName(op_); }

 private:
  data::SqlOp op_;
};

/// 1 for male speakers (Common Voice aggregation and selection).
class MaleScorer : public Scorer {
 public:
  double Score(const data::LabelerOutput& output) const override {
    const auto* speech = std::get_if<data::SpeechLabel>(&output);
    return (speech != nullptr && speech->gender == data::Gender::kMale) ? 1.0
                                                                        : 0.0;
  }
  bool categorical() const override { return true; }
  std::string Name() const override { return "gender=male"; }
};

/// 1 if the frame contains at least `threshold` boxes of the class (limit
/// queries hunting rare events, paper Section 6.3).
class AtLeastCountScorer : public Scorer {
 public:
  AtLeastCountScorer(data::ObjectClass cls, int threshold)
      : cls_(cls), threshold_(threshold) {}
  double Score(const data::LabelerOutput& output) const override {
    return data::CountClass(output, cls_) >= threshold_ ? 1.0 : 0.0;
  }
  bool categorical() const override { return true; }
  std::string Name() const override {
    return "count(" + data::ObjectClassName(cls_) +
           ")>=" + std::to_string(threshold_);
  }

 private:
  data::ObjectClass cls_;
  int threshold_;
};

/// Wraps an arbitrary function as a scorer (the custom-score API of paper
/// Section 4.2). The name is required because it keys cached proxy scores:
/// two different functions under one name would share a cache entry.
class LambdaScorer : public Scorer {
 public:
  using Fn = std::function<double(const data::LabelerOutput&)>;

  LambdaScorer(Fn fn, bool categorical, std::string name)
      : fn_(std::move(fn)), categorical_(categorical), name_(std::move(name)) {}

  double Score(const data::LabelerOutput& output) const override {
    return fn_(output);
  }
  bool categorical() const override { return categorical_; }
  std::string Name() const override { return name_; }

 private:
  Fn fn_;
  bool categorical_;
  std::string name_;
};

}  // namespace tasti::core

#endif  // TASTI_CORE_SCORER_H_
