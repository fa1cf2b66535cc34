#ifndef IDEBENCH_AQP_CONFIDENCE_H_
#define IDEBENCH_AQP_CONFIDENCE_H_

/// \file confidence.h
/// Normal-distribution helpers for confidence-interval computation.
///
/// AQP systems report margins of error at a configured confidence level
/// (IDEBench default: 95 %, paper §4.6).  The margin for a CLT-normal
/// estimator is z * stderr where z is the standard-normal quantile of
/// (1 + level) / 2.

namespace idebench::aqp {

/// Standard normal cumulative distribution function.
double NormalCdf(double x);

/// Inverse standard normal CDF (Acklam's rational approximation; relative
/// error < 1.15e-9 over (0, 1)).
double NormalQuantile(double p);

/// Two-sided z-score for a confidence level in (0, 1); e.g. 0.95 -> 1.96.
double ZScoreForConfidence(double confidence_level);

/// The one confidence level: engines compute every margin of error at it,
/// and every pushed update and wire `update` frame carries it.
inline constexpr double kConfidenceLevel = 0.95;

}  // namespace idebench::aqp

#endif  // IDEBENCH_AQP_CONFIDENCE_H_
