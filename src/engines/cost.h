#ifndef IDEBENCH_ENGINES_COST_H_
#define IDEBENCH_ENGINES_COST_H_

/// \file cost.h
/// The virtual-time cost model.
///
/// The paper evaluates at 100 M – 1 B tuples on a fixed testbed; this
/// reproduction materializes a scaled-down table and charges engines a
/// calibrated per-*nominal*-row cost, so time requirements behave as they
/// would at paper scale while answers are computed over real data.
/// Calibration targets (documented in EXPERIMENTS.md):
///
///   engine        | path                | cost / nominal row
///   --------------|---------------------|-------------------
///   blocking      | sequential scan+agg | ~5 ns
///   online (XDB)  | online sample       | ~3 µs, fallback scan ~24 ns
///   progressive   | online sample       | ~2 µs
///   stratified    | sample scan         | ~80 ns over the 1 % sample
///
/// A query's effective per-row cost is the base cost times a complexity
/// multiplier derived from its shape (extra aggregates, second binning
/// dimension, predicates, joins).

#include "query/spec.h"

namespace idebench::engines {

/// Complexity surcharges (fractions of the base per-row cost).
struct CostFactors {
  double extra_aggregate = 0.25;  // each aggregate beyond the first
  double second_dimension = 0.35; // 2-D binning
  double per_predicate = 0.08;    // each filter predicate
  double per_join = 0.50;         // each dimension join probed per row
  double avg_aggregate = 0.15;    // AVG needs two accumulators
};

/// Multiplier >= 1 for the query's shape.
double ComplexityMultiplier(const query::QuerySpec& spec, int num_joins,
                            const CostFactors& factors);

}  // namespace idebench::engines

#endif  // IDEBENCH_ENGINES_COST_H_
