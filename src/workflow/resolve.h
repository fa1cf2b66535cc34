#ifndef IDEBENCH_WORKFLOW_RESOLVE_H_
#define IDEBENCH_WORKFLOW_RESOLVE_H_

/// \file resolve.h
/// Catalog-aware interaction replay: the single definition of "which
/// executable queries does an interaction trigger".  Shared by the
/// benchmark driver's ground-truth warm-up, the session serving layer
/// (session/session.h), and the test harnesses, so their query
/// enumeration can never drift apart.

#include <functional>
#include <vector>

#include "common/result.h"
#include "query/spec.h"
#include "storage/catalog.h"
#include "workflow/viz_graph.h"
#include "workflow/workflow.h"

namespace idebench::workflow {

/// Resolves an executable query against `catalog`: resolves bin
/// boundaries and rewrites nominal predicates expressed as string labels
/// into the owning column's dictionary codes (workflow files are portable
/// across catalog layouts; codes are not).
Status ResolveQueryAgainst(const storage::Catalog& catalog,
                           query::QuerySpec* spec);

/// Applies one interaction to `graph` and appends the resolved executable
/// query of every affected viz to `specs` (each spec carries its viz
/// name), in the graph's deterministic update order.  The per-interaction
/// core of `ForEachInteraction`, exposed so incremental clients (sessions)
/// trigger exactly the queries a batch replay would.
Status ApplyInteraction(const storage::Catalog& catalog,
                        const Interaction& interaction, VizGraph* graph,
                        std::vector<query::QuerySpec>* specs);

/// Replays `wf`'s interactions on a fresh dashboard graph and invokes
/// `fn(interaction, interaction_id, specs)` once per interaction in
/// driver order, where `specs` holds the resolved executable query of
/// every affected viz.
Status ForEachInteraction(
    const storage::Catalog& catalog, const Workflow& wf,
    const std::function<Status(const Interaction& interaction,
                               int64_t interaction_id,
                               std::vector<query::QuerySpec>& specs)>& fn);

}  // namespace idebench::workflow

#endif  // IDEBENCH_WORKFLOW_RESOLVE_H_
