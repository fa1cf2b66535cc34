#ifndef IDEBENCH_WORKFLOW_GENERATOR_H_
#define IDEBENCH_WORKFLOW_GENERATOR_H_

/// \file generator.h
/// The IDEBench workflow generator (paper §4.3).
///
/// Workflows are modeled as Markov chains: at each step the next
/// interaction kind is sampled from a per-workflow-type transition
/// distribution, and its parameters (binned columns, bin counts,
/// aggregate functions, filter predicates and selectivities) are sampled
/// from distributions estimated on the dataset itself — so generated
/// filters reference real attribute values and quantile-calibrated
/// ranges.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "storage/table.h"
#include "workflow/viz_graph.h"
#include "workflow/workflow.h"

namespace idebench::workflow {

/// Tunables of the workflow generator.  Defaults reflect the interaction
/// mix observed in the user studies the paper cites (drill-down-heavy,
/// COUNT/AVG-dominated).
struct GeneratorConfig {
  int min_interactions = 14;
  int max_interactions = 24;

  /// Probability that a new viz bins on two dimensions (heat map).
  double two_dim_prob = 0.2;

  /// Aggregate-function mix (normalized internally).  AVG-heavy, as in
  /// the paper's workloads (Table 1), which is also what drives XDB's
  /// ~66 % blocking-fallback share.
  double count_weight = 0.24;
  double avg_weight = 0.58;
  double sum_weight = 0.18;

  /// Probability that a viz carries a second aggregate.
  double second_agg_prob = 0.18;

  /// Filter selectivity is drawn uniformly from [min, max].
  double min_filter_selectivity = 0.01;
  double max_filter_selectivity = 0.5;

  /// Selection (brush) selectivity range — brushes are narrower.
  double min_selection_selectivity = 0.02;
  double max_selection_selectivity = 0.2;

  /// Maximum number of live visualizations on the dashboard.
  int max_vizs = 8;

  /// Sample size used to estimate column quantiles.
  int64_t stats_sample = 4000;
};

/// Generates workflows of all types against one dataset.
class WorkflowGenerator {
 public:
  /// `table` is the de-normalized dataset the workflows will refer to; it
  /// must outlive the generator.
  WorkflowGenerator(const storage::Table* table, GeneratorConfig config,
                    uint64_t seed);

  /// Generates one workflow of `type` named `name`.
  Result<Workflow> Generate(WorkflowType type, const std::string& name);

  /// Generates `per_type` workflows of each of `types`, in that order,
  /// named `<type>_<i>` for i in [0, per_type).
  Result<std::vector<Workflow>> GenerateSuite(
      const std::vector<WorkflowType>& types, int per_type);

 private:
  struct ColumnStats {
    std::string name;
    bool nominal = false;
    double weight = 1.0;                 // selection probability weight
    std::vector<double> quantile_values; // sorted sample (quantitative)
    std::vector<std::string> labels;     // nominal string labels
    std::vector<double> codes;           // nominal numeric-view values
  };

  void BuildStats(int64_t sample_size);
  const ColumnStats& PickColumn(bool prefer_quantitative);
  double Quantile(const ColumnStats& stats, double u) const;

  query::VizSpec MakeVizSpec(const std::string& name);
  expr::Predicate MakeFilterPredicate(double min_sel, double max_sel);
  expr::FilterExpr MakeSelectionFor(const query::VizSpec& viz);

  Status GenerateIndependent(VizGraph* graph, Workflow* out, int target);
  Status GenerateSequential(VizGraph* graph, Workflow* out, int target);
  Status GenerateOneToN(VizGraph* graph, Workflow* out, int target);
  Status GenerateNToOne(VizGraph* graph, Workflow* out, int target);
  Status GenerateMixed(VizGraph* graph, Workflow* out, int target);

  /// Applies `interaction` to the shadow graph; on success appends it to
  /// the workflow.
  Status Emit(VizGraph* graph, Workflow* out, Interaction interaction);

  const storage::Table* table_;
  GeneratorConfig config_;
  Rng rng_;
  std::vector<ColumnStats> columns_;
  int next_viz_id_ = 0;
};

}  // namespace idebench::workflow

#endif  // IDEBENCH_WORKFLOW_GENERATOR_H_
