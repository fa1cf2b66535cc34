#include "workflow/generator.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"

namespace idebench::workflow {

using expr::CompareOp;
using expr::FilterExpr;
using expr::Predicate;
using query::AggregateSpec;
using query::AggregateType;
using query::BinDimension;
using query::BinningMode;
using query::VizSpec;

WorkflowGenerator::WorkflowGenerator(const storage::Table* table,
                                     GeneratorConfig config, uint64_t seed)
    : table_(table), config_(config), rng_(seed) {
  BuildStats(config_.stats_sample);
}

void WorkflowGenerator::BuildStats(int64_t sample_size) {
  // Column weights tuned to the exploration behavior in the user studies:
  // delay/time/distance attributes and the small nominal attributes are
  // browsed far more often than identifiers.
  struct Weighted {
    const char* name;
    double weight;
  };
  static const Weighted kPreferred[] = {
      {"dep_delay", 3.0},   {"arr_delay", 3.0},  {"distance", 2.5},
      {"air_time", 2.0},    {"dep_time", 2.5},   {"arr_time", 1.0},
      {"taxi_in", 0.6},     {"taxi_out", 0.6},   {"flight_date", 1.2},
      {"day_of_week", 2.0}, {"carrier", 3.0},    {"origin_state", 1.5},
      {"origin_airport", 0.7}, {"dest_airport", 0.5},
  };

  // Custom datasets won't match the flights attribute list; fall back to
  // every column with uniform weight so the generator stays schema-
  // agnostic (paper §3.2: customizability).
  std::vector<Weighted> columns;
  for (const Weighted& w : kPreferred) {
    if (table_->ColumnByName(w.name) != nullptr) columns.push_back(w);
  }
  if (columns.empty()) {
    for (const storage::Field& field : table_->schema().fields()) {
      columns.push_back({field.name.c_str(), 1.0});
    }
  }

  const int64_t n = table_->num_rows();
  const int64_t m = std::min(sample_size, n);
  for (const Weighted& w : columns) {
    const storage::Column* col = table_->ColumnByName(w.name);
    if (col == nullptr) continue;
    ColumnStats stats;
    stats.name = w.name;
    stats.weight = w.weight;
    stats.nominal = col->field().kind == storage::AttributeKind::kNominal;
    if (stats.nominal) {
      if (col->type() == storage::DataType::kString) {
        const auto& dict = col->dictionary();
        for (int64_t code = 0; code < dict.size(); ++code) {
          stats.labels.push_back(dict.At(code));
          stats.codes.push_back(static_cast<double>(code));
        }
      } else {
        // Integer-coded nominal: enumerate the distinct values from a
        // scan (cheap; the domain is tiny, e.g. day_of_week).
        std::vector<double> distinct;
        for (int64_t r = 0; r < n; ++r) {
          const double v = col->ValueAsDouble(r);
          if (std::find(distinct.begin(), distinct.end(), v) ==
              distinct.end()) {
            distinct.push_back(v);
          }
          if (distinct.size() > 64) break;  // domain too large; keep prefix
        }
        std::sort(distinct.begin(), distinct.end());
        stats.codes = distinct;
      }
    } else {
      stats.quantile_values.reserve(static_cast<size_t>(m));
      const int64_t stride = std::max<int64_t>(1, n / std::max<int64_t>(m, 1));
      for (int64_t r = 0; r < n; r += stride) {
        stats.quantile_values.push_back(col->ValueAsDouble(r));
      }
      std::sort(stats.quantile_values.begin(), stats.quantile_values.end());
    }
    columns_.push_back(std::move(stats));
  }
}

const WorkflowGenerator::ColumnStats& WorkflowGenerator::PickColumn(
    bool prefer_quantitative) {
  std::vector<double> weights(columns_.size());
  for (size_t i = 0; i < columns_.size(); ++i) {
    weights[i] = columns_[i].weight;
    if (prefer_quantitative && columns_[i].nominal) weights[i] *= 0.4;
  }
  const int64_t idx = rng_.Categorical(weights);
  return columns_[static_cast<size_t>(std::max<int64_t>(idx, 0))];
}

double WorkflowGenerator::Quantile(const ColumnStats& stats, double u) const {
  if (stats.quantile_values.empty()) return 0.0;
  const size_t idx = std::min(
      stats.quantile_values.size() - 1,
      static_cast<size_t>(u * static_cast<double>(stats.quantile_values.size())));
  return stats.quantile_values[idx];
}

VizSpec WorkflowGenerator::MakeVizSpec(const std::string& name) {
  VizSpec viz;
  viz.name = name;
  viz.source = table_->name();

  const bool two_d = rng_.Bernoulli(config_.two_dim_prob);
  const int dims = two_d ? 2 : 1;
  for (int d = 0; d < dims; ++d) {
    const ColumnStats* stats = &PickColumn(/*prefer_quantitative=*/two_d);
    // Avoid binning twice on the same column.
    int guard = 0;
    while (d == 1 && stats->name == viz.bins[0].column && guard++ < 8) {
      stats = &PickColumn(two_d);
    }
    BinDimension bin;
    bin.column = stats->name;
    if (stats->nominal) {
      bin.mode = BinningMode::kNominal;
    } else if (rng_.Bernoulli(0.75)) {
      bin.mode = BinningMode::kFixedCount;
      static const int64_t kChoices1D[] = {10, 25, 50, 100};
      static const int64_t kChoices2D[] = {10, 15, 20, 25};
      bin.requested_bins = two_d
                               ? kChoices2D[rng_.UniformInt(0, 3)]
                               : kChoices1D[rng_.UniformInt(0, 3)];
    } else {
      bin.mode = BinningMode::kFixedWidth;
      const double span = Quantile(*stats, 0.999) - Quantile(*stats, 0.001);
      const double target_bins =
          static_cast<double>(rng_.UniformInt(10, two_d ? 25 : 60));
      bin.width = std::max(span / target_bins, 1e-6);
      bin.origin = 0.0;
    }
    viz.bins.push_back(std::move(bin));
  }

  // Aggregates.
  auto draw_agg = [&]() {
    AggregateSpec agg;
    const int64_t pick = rng_.Categorical(
        {config_.count_weight, config_.avg_weight, config_.sum_weight});
    agg.type = pick == 0   ? AggregateType::kCount
               : pick == 1 ? AggregateType::kAvg
                           : AggregateType::kSum;
    if (agg.type != AggregateType::kCount) {
      const ColumnStats* stats = &PickColumn(/*prefer_quantitative=*/true);
      int guard = 0;
      while (stats->nominal && guard++ < 16) stats = &PickColumn(true);
      if (stats->nominal) {
        // No quantitative column drawn; take the first one in the stats,
        // or degrade to COUNT on all-nominal schemas.
        for (const ColumnStats& candidate : columns_) {
          if (!candidate.nominal) {
            stats = &candidate;
            break;
          }
        }
      }
      if (stats->nominal) {
        agg.type = AggregateType::kCount;
      } else {
        agg.column = stats->name;
      }
    }
    return agg;
  };
  viz.aggregates.push_back(draw_agg());
  if (rng_.Bernoulli(config_.second_agg_prob)) {
    AggregateSpec second = draw_agg();
    if (!(second == viz.aggregates[0])) {
      viz.aggregates.push_back(std::move(second));
    }
  }
  return viz;
}

expr::Predicate WorkflowGenerator::MakeFilterPredicate(double min_sel,
                                                       double max_sel) {
  const ColumnStats& stats = PickColumn(/*prefer_quantitative=*/false);
  Predicate p;
  p.column = stats.name;
  if (stats.nominal) {
    const int64_t domain = static_cast<int64_t>(
        stats.labels.empty() ? stats.codes.size() : stats.labels.size());
    if (domain == 0) {
      // Degenerate; fall back to a tautology-ish range filter.
      p.op = CompareOp::kGe;
      p.value = 0.0;
      return p;
    }
    p.op = CompareOp::kIn;
    const int64_t take = std::min<int64_t>(domain, rng_.UniformInt(1, 3));
    std::vector<int64_t> chosen;
    int guard = 0;
    while (static_cast<int64_t>(chosen.size()) < take && guard++ < 64) {
      // Zipf-skewed choice mirrors real exploration: popular values are
      // selected more often.
      const int64_t idx = rng_.Zipf(domain, 0.8);
      if (std::find(chosen.begin(), chosen.end(), idx) == chosen.end()) {
        chosen.push_back(idx);
      }
    }
    for (int64_t idx : chosen) {
      p.set_values.push_back(stats.codes[static_cast<size_t>(idx)]);
      if (!stats.labels.empty()) {
        p.string_values.push_back(stats.labels[static_cast<size_t>(idx)]);
      }
    }
  } else {
    p.op = CompareOp::kRange;
    const double sel = rng_.Uniform(min_sel, max_sel);
    const double u_lo = rng_.Uniform(0.0, 1.0 - sel);
    p.lo = Quantile(stats, u_lo);
    p.hi = Quantile(stats, u_lo + sel);
    if (p.hi <= p.lo) p.hi = p.lo + 1e-6;
  }
  return p;
}

expr::FilterExpr WorkflowGenerator::MakeSelectionFor(const VizSpec& viz) {
  // Brush the first binning dimension of the viz.
  const std::string& column = viz.bins[0].column;
  const ColumnStats* stats = nullptr;
  for (const ColumnStats& s : columns_) {
    if (s.name == column) {
      stats = &s;
      break;
    }
  }
  FilterExpr out;
  if (stats == nullptr) return out;
  Predicate p;
  p.column = column;
  if (stats->nominal) {
    const int64_t domain = static_cast<int64_t>(
        stats->labels.empty() ? stats->codes.size() : stats->labels.size());
    if (domain == 0) return out;
    p.op = CompareOp::kIn;
    const int64_t idx = rng_.Zipf(domain, 0.8);
    p.set_values.push_back(stats->codes[static_cast<size_t>(idx)]);
    if (!stats->labels.empty()) {
      p.string_values.push_back(stats->labels[static_cast<size_t>(idx)]);
    }
  } else {
    p.op = CompareOp::kRange;
    const double sel = rng_.Uniform(config_.min_selection_selectivity,
                                    config_.max_selection_selectivity);
    const double u_lo = rng_.Uniform(0.0, 1.0 - sel);
    p.lo = Quantile(*stats, u_lo);
    p.hi = Quantile(*stats, u_lo + sel);
    if (p.hi <= p.lo) p.hi = p.lo + 1e-6;
  }
  out.And(std::move(p));
  return out;
}

Status WorkflowGenerator::Emit(VizGraph* graph, Workflow* out,
                               Interaction interaction) {
  std::vector<std::string> affected;
  IDB_RETURN_NOT_OK(graph->Apply(interaction, &affected));
  out->interactions.push_back(std::move(interaction));
  return Status::OK();
}

Status WorkflowGenerator::GenerateIndependent(VizGraph* graph, Workflow* out,
                                              int target) {
  while (static_cast<int>(out->interactions.size()) < target) {
    const int live = static_cast<int>(graph->VizNames().size());
    if (live == 0 || (live < config_.max_vizs && rng_.Bernoulli(0.45))) {
      IDB_RETURN_NOT_OK(Emit(graph, out,
                             Interaction::CreateViz(MakeVizSpec(
                                 "viz_" + std::to_string(next_viz_id_++)))));
    } else {
      const std::vector<std::string> names = graph->VizNames();
      const std::string& viz =
          names[static_cast<size_t>(rng_.UniformInt(0, live - 1))];
      FilterExpr f;
      f.And(MakeFilterPredicate(config_.min_filter_selectivity,
                                config_.max_filter_selectivity));
      IDB_RETURN_NOT_OK(Emit(graph, out, Interaction::SetFilter(viz, f)));
    }
  }
  return Status::OK();
}

Status WorkflowGenerator::GenerateSequential(VizGraph* graph, Workflow* out,
                                             int target) {
  // Seed the chain.
  std::string tail = "viz_" + std::to_string(next_viz_id_++);
  IDB_RETURN_NOT_OK(Emit(graph, out, Interaction::CreateViz(MakeVizSpec(tail))));

  while (static_cast<int>(out->interactions.size()) < target) {
    const std::vector<std::string> names = graph->VizNames();
    const int live = static_cast<int>(names.size());
    const double roll = rng_.NextDouble();
    if ((roll < 0.40 && live < config_.max_vizs) || live < 2) {
      // Extend the chain: create + link (two interactions).
      const std::string next = "viz_" + std::to_string(next_viz_id_++);
      IDB_RETURN_NOT_OK(
          Emit(graph, out, Interaction::CreateViz(MakeVizSpec(next))));
      IDB_RETURN_NOT_OK(Emit(graph, out, Interaction::Link(tail, next)));
      tail = next;
    } else if (roll < 0.72) {
      // Drill down: brush a viz in the chain (not the tail, so the brush
      // propagates somewhere).
      const std::string& viz =
          names[static_cast<size_t>(rng_.UniformInt(0, live - 1))];
      IDB_ASSIGN_OR_RETURN(query::VizSpec spec, graph->GetViz(viz));
      const FilterExpr sel = MakeSelectionFor(spec);
      if (sel.empty()) continue;
      IDB_RETURN_NOT_OK(Emit(graph, out, Interaction::SetSelection(viz, sel)));
    } else {
      const std::string& viz =
          names[static_cast<size_t>(rng_.UniformInt(0, live - 1))];
      FilterExpr f;
      f.And(MakeFilterPredicate(config_.min_filter_selectivity,
                                config_.max_filter_selectivity));
      IDB_RETURN_NOT_OK(Emit(graph, out, Interaction::SetFilter(viz, f)));
    }
  }
  return Status::OK();
}

Status WorkflowGenerator::GenerateOneToN(VizGraph* graph, Workflow* out,
                                         int target) {
  const std::string hub = "viz_" + std::to_string(next_viz_id_++);
  IDB_RETURN_NOT_OK(Emit(graph, out, Interaction::CreateViz(MakeVizSpec(hub))));

  // Fan out 2-4 targets.
  const int64_t fan = rng_.UniformInt(2, 4);
  std::vector<std::string> targets;
  for (int64_t i = 0; i < fan; ++i) {
    const std::string t = "viz_" + std::to_string(next_viz_id_++);
    IDB_RETURN_NOT_OK(Emit(graph, out, Interaction::CreateViz(MakeVizSpec(t))));
    IDB_RETURN_NOT_OK(Emit(graph, out, Interaction::Link(hub, t)));
    targets.push_back(t);
  }

  while (static_cast<int>(out->interactions.size()) < target) {
    const double roll = rng_.NextDouble();
    if (roll < 0.55) {
      IDB_ASSIGN_OR_RETURN(query::VizSpec spec, graph->GetViz(hub));
      const FilterExpr sel = MakeSelectionFor(spec);
      if (sel.empty()) continue;
      IDB_RETURN_NOT_OK(Emit(graph, out, Interaction::SetSelection(hub, sel)));
    } else if (roll < 0.75) {
      FilterExpr f;
      f.And(MakeFilterPredicate(config_.min_filter_selectivity,
                                config_.max_filter_selectivity));
      IDB_RETURN_NOT_OK(Emit(graph, out, Interaction::SetFilter(hub, f)));
    } else if (static_cast<int>(graph->VizNames().size()) < config_.max_vizs) {
      const std::string t = "viz_" + std::to_string(next_viz_id_++);
      IDB_RETURN_NOT_OK(
          Emit(graph, out, Interaction::CreateViz(MakeVizSpec(t))));
      IDB_RETURN_NOT_OK(Emit(graph, out, Interaction::Link(hub, t)));
      targets.push_back(t);
    } else {
      // Dashboard full: refine a random target's own filter instead.
      const std::string& t =
          targets[static_cast<size_t>(rng_.UniformInt(
              0, static_cast<int64_t>(targets.size()) - 1))];
      FilterExpr f;
      f.And(MakeFilterPredicate(config_.min_filter_selectivity,
                                config_.max_filter_selectivity));
      IDB_RETURN_NOT_OK(Emit(graph, out, Interaction::SetFilter(t, f)));
    }
  }
  return Status::OK();
}

Status WorkflowGenerator::GenerateNToOne(VizGraph* graph, Workflow* out,
                                         int target) {
  // N filter vizs feeding one target viz.
  const int64_t n_sources = rng_.UniformInt(2, 4);
  std::vector<std::string> sources;
  for (int64_t i = 0; i < n_sources; ++i) {
    const std::string s = "viz_" + std::to_string(next_viz_id_++);
    IDB_RETURN_NOT_OK(Emit(graph, out, Interaction::CreateViz(MakeVizSpec(s))));
    sources.push_back(s);
  }
  const std::string sink = "viz_" + std::to_string(next_viz_id_++);
  IDB_RETURN_NOT_OK(Emit(graph, out, Interaction::CreateViz(MakeVizSpec(sink))));
  for (const std::string& s : sources) {
    IDB_RETURN_NOT_OK(Emit(graph, out, Interaction::Link(s, sink)));
  }

  while (static_cast<int>(out->interactions.size()) < target) {
    const std::string& s = sources[static_cast<size_t>(
        rng_.UniformInt(0, static_cast<int64_t>(sources.size()) - 1))];
    if (rng_.Bernoulli(0.6)) {
      IDB_ASSIGN_OR_RETURN(query::VizSpec spec, graph->GetViz(s));
      const FilterExpr sel = MakeSelectionFor(spec);
      if (sel.empty()) continue;
      IDB_RETURN_NOT_OK(Emit(graph, out, Interaction::SetSelection(s, sel)));
    } else {
      FilterExpr f;
      f.And(MakeFilterPredicate(config_.min_filter_selectivity,
                                config_.max_filter_selectivity));
      IDB_RETURN_NOT_OK(Emit(graph, out, Interaction::SetFilter(s, f)));
    }
  }
  return Status::OK();
}

Status WorkflowGenerator::GenerateMixed(VizGraph* graph, Workflow* out,
                                        int target) {
  while (static_cast<int>(out->interactions.size()) < target) {
    const std::vector<std::string> names = graph->VizNames();
    const int live = static_cast<int>(names.size());
    const double roll = rng_.NextDouble();
    if (live == 0 || (roll < 0.30 && live < config_.max_vizs)) {
      const std::string v = "viz_" + std::to_string(next_viz_id_++);
      IDB_RETURN_NOT_OK(
          Emit(graph, out, Interaction::CreateViz(MakeVizSpec(v))));
      // Half of new vizs get linked to an existing one.
      if (live >= 1 && rng_.Bernoulli(0.5)) {
        const std::string& from =
            names[static_cast<size_t>(rng_.UniformInt(0, live - 1))];
        Status st = Emit(graph, out, Interaction::Link(from, v));
        if (!st.ok()) continue;  // cycle rejected; skip the link
      }
    } else if (roll < 0.58) {
      const std::string& viz =
          names[static_cast<size_t>(rng_.UniformInt(0, live - 1))];
      FilterExpr f;
      f.And(MakeFilterPredicate(config_.min_filter_selectivity,
                                config_.max_filter_selectivity));
      IDB_RETURN_NOT_OK(Emit(graph, out, Interaction::SetFilter(viz, f)));
    } else if (roll < 0.85) {
      const std::string& viz =
          names[static_cast<size_t>(rng_.UniformInt(0, live - 1))];
      IDB_ASSIGN_OR_RETURN(query::VizSpec spec, graph->GetViz(viz));
      const FilterExpr sel = MakeSelectionFor(spec);
      if (sel.empty()) continue;
      IDB_RETURN_NOT_OK(Emit(graph, out, Interaction::SetSelection(viz, sel)));
    } else if (roll < 0.95 && live >= 2) {
      const std::string& from =
          names[static_cast<size_t>(rng_.UniformInt(0, live - 1))];
      const std::string& to =
          names[static_cast<size_t>(rng_.UniformInt(0, live - 1))];
      if (from == to) continue;
      Status st = Emit(graph, out, Interaction::Link(from, to));
      if (!st.ok()) continue;  // duplicate or cycle; try something else
    } else if (live >= 3) {
      const std::string& viz =
          names[static_cast<size_t>(rng_.UniformInt(0, live - 1))];
      IDB_RETURN_NOT_OK(Emit(graph, out, Interaction::Discard(viz)));
    }
  }
  return Status::OK();
}

Result<Workflow> WorkflowGenerator::Generate(WorkflowType type,
                                             const std::string& name) {
  Workflow out;
  out.name = name;
  out.type = type;
  next_viz_id_ = 0;
  VizGraph graph;
  const int target = static_cast<int>(
      rng_.UniformInt(config_.min_interactions, config_.max_interactions));
  Status st;
  switch (type) {
    case WorkflowType::kIndependent:
      st = GenerateIndependent(&graph, &out, target);
      break;
    case WorkflowType::kSequential:
      st = GenerateSequential(&graph, &out, target);
      break;
    case WorkflowType::kOneToN:
      st = GenerateOneToN(&graph, &out, target);
      break;
    case WorkflowType::kNToOne:
      st = GenerateNToOne(&graph, &out, target);
      break;
    case WorkflowType::kMixed:
      st = GenerateMixed(&graph, &out, target);
      break;
  }
  IDB_RETURN_NOT_OK(st);
  return out;
}

Result<std::vector<Workflow>> WorkflowGenerator::GenerateSuite(
    const std::vector<WorkflowType>& types, int per_type) {
  std::vector<Workflow> out;
  for (WorkflowType type : types) {
    for (int i = 0; i < per_type; ++i) {
      const std::string name =
          std::string(WorkflowTypeName(type)) + "_" + std::to_string(i);
      IDB_ASSIGN_OR_RETURN(Workflow w, Generate(type, name));
      out.push_back(std::move(w));
    }
  }
  return out;
}

}  // namespace idebench::workflow
