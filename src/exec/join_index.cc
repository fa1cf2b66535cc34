#include "exec/join_index.h"

#include <cmath>
#include <limits>
#include <string>

#include "common/logging.h"
#include "exec/bound_query.h"

namespace idebench::exec {
namespace {

struct FkColumns {
  const storage::Column* fk = nullptr;
  const storage::Column* pk = nullptr;
  const storage::Table* dim = nullptr;
};

Result<FkColumns> ResolveFk(const storage::Catalog& catalog,
                            const storage::ForeignKey& fk) {
  const storage::Table* fact = catalog.fact_table();
  if (fact == nullptr) return Status::Invalid("catalog has no fact table");
  const storage::Table* dim = catalog.GetTable(fk.dimension_table);
  if (dim == nullptr) {
    return Status::KeyError("no dimension table '" + fk.dimension_table + "'");
  }
  FkColumns out;
  out.fk = fact->ColumnByName(fk.fact_column);
  out.pk = dim->ColumnByName(fk.dimension_key);
  out.dim = dim;
  if (out.fk == nullptr || out.pk == nullptr) {
    return Status::KeyError("foreign key columns not found for dimension '" +
                            fk.dimension_table + "'");
  }
  return out;
}

/// The integer-keyed index requires double-typed key columns to hold
/// integral values (truncating ValueAsInt would otherwise silently merge
/// distinct fractional keys); enforce the documented constraint.
Status CheckIntegralKeys(const storage::Column& col, const char* side) {
  if (col.type() != storage::DataType::kDouble) return Status::OK();
  const double* data = col.DoubleData();
  const int64_t n = col.size();
  for (int64_t r = 0; r < n; ++r) {
    const double v = data[r];
    if (!(v == std::floor(v)) ||
        std::fabs(v) > 9.007199254740992e15) {  // 2^53: exact int range
      return Status::Invalid(std::string(side) + " key column '" +
                             col.name() + "' holds non-integral value " +
                             std::to_string(v) +
                             "; join keys must be integers");
    }
  }
  return Status::OK();
}

}  // namespace

Result<JoinIndex> JoinIndex::Build(const storage::Catalog& catalog,
                                   const storage::ForeignKey& fk) {
  IDB_ASSIGN_OR_RETURN(FkColumns cols, ResolveFk(catalog, fk));
  IDB_RETURN_NOT_OK(CheckIntegralKeys(*cols.pk, "dimension"));
  IDB_RETURN_NOT_OK(CheckIntegralKeys(*cols.fk, "fact"));

  // Hash the dimension's primary key on its integer view: exact integer
  // equality, one cheap int64 hash per probe.
  std::unordered_map<int64_t, int32_t> pk_index;
  const int64_t dim_rows = cols.dim->num_rows();
  if (dim_rows > std::numeric_limits<int32_t>::max()) {
    return Status::Invalid("dimension '" + fk.dimension_table +
                           "' exceeds the int32 row-id range of the flat "
                           "join mapping");
  }
  pk_index.reserve(static_cast<size_t>(dim_rows));
  for (int64_t r = 0; r < dim_rows; ++r) {
    pk_index.emplace(cols.pk->ValueAsInt(r), static_cast<int32_t>(r));
  }

  JoinIndex out;
  out.dimension_table_ = fk.dimension_table;
  const int64_t fact_rows = catalog.fact_table()->num_rows();
  out.mapping_.resize(static_cast<size_t>(fact_rows), -1);
  for (int64_t r = 0; r < fact_rows; ++r) {
    auto it = pk_index.find(cols.fk->ValueAsInt(r));
    if (it != pk_index.end()) {
      out.mapping_[static_cast<size_t>(r)] = it->second;
    } else {
      ++out.miss_count_;
    }
  }
  return out;
}

Result<std::vector<const JoinIndex*>> JoinIndexCache::For(
    const query::QuerySpec& spec) {
  IDB_ASSIGN_OR_RETURN(std::vector<std::string> dims,
                       BoundQuery::RequiredJoins(spec, *catalog_));
  std::vector<const JoinIndex*> joins;
  for (const std::string& dim : dims) {
    auto it = indexes_.find(dim);
    if (it == indexes_.end()) {
      const storage::ForeignKey* fk = catalog_->FindForeignKey(dim);
      if (fk == nullptr) {
        return Status::KeyError("no foreign key to dimension '" + dim + "'");
      }
      IDB_ASSIGN_OR_RETURN(JoinIndex index, JoinIndex::Build(*catalog_, *fk));
      it = indexes_.emplace(dim, std::move(index)).first;
    }
    joins.push_back(&it->second);
  }
  return joins;
}

}  // namespace idebench::exec
