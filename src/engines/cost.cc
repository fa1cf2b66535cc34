#include "engines/cost.h"

namespace idebench::engines {

double ComplexityMultiplier(const query::QuerySpec& spec, int num_joins,
                            const CostFactors& factors) {
  double mult = 1.0;
  const int num_aggs = static_cast<int>(spec.aggregates.size());
  if (num_aggs > 1) {
    mult *= 1.0 + factors.extra_aggregate * static_cast<double>(num_aggs - 1);
  }
  for (const query::AggregateSpec& agg : spec.aggregates) {
    if (agg.type == query::AggregateType::kAvg) {
      mult *= 1.0 + factors.avg_aggregate;
    }
  }
  if (spec.two_dimensional()) mult *= 1.0 + factors.second_dimension;
  mult *= 1.0 + factors.per_predicate *
                    static_cast<double>(spec.filter.predicates().size());
  if (num_joins > 0) {
    mult *= 1.0 + factors.per_join * static_cast<double>(num_joins);
  }
  return mult;
}

}  // namespace idebench::engines
