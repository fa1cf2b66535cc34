#include "storage/table.h"

#include "common/logging.h"

namespace idebench::storage {

Table::Table(std::string name, Schema schema)
    : name_(std::move(name)), schema_(std::move(schema)) {
  columns_.reserve(static_cast<size_t>(schema_.num_fields()));
  for (const Field& f : schema_.fields()) {
    columns_.push_back(std::make_unique<Column>(f));
  }
}

int64_t Table::num_rows() const {
  return columns_.empty() ? 0 : columns_[0]->size();
}

const Column* Table::ColumnByName(const std::string& name) const {
  const int idx = schema_.FieldIndex(name);
  return idx < 0 ? nullptr : columns_[static_cast<size_t>(idx)].get();
}

Column* Table::MutableColumnByName(const std::string& name) {
  const int idx = schema_.FieldIndex(name);
  return idx < 0 ? nullptr : columns_[static_cast<size_t>(idx)].get();
}

void Table::Reserve(int64_t n) {
  for (auto& col : columns_) col->Reserve(n);
}

std::shared_ptr<Table> Table::Prefix(int64_t rows) const {
  IDB_CHECK(rows >= 0 && rows <= num_rows());
  auto copy = std::make_shared<Table>(name_, schema_);
  for (int c = 0; c < num_columns(); ++c) {
    for (int64_t r = 0; r < rows; ++r) {
      copy->columns_[static_cast<size_t>(c)]->AppendFrom(column(c), r);
    }
  }
  return copy;
}

Status Table::Validate() const {
  const int64_t n = num_rows();
  for (const auto& col : columns_) {
    if (col->size() != n) {
      return Status::Invalid("column '" + col->name() +
                             "' length mismatch: " + std::to_string(col->size()) +
                             " vs " + std::to_string(n));
    }
  }
  return Status::OK();
}

void Table::BeginIngest() {
  if (ingest_enabled_) return;
  ingest_enabled_ = true;
  epoch_rows_ = {num_rows()};
  for (auto& col : columns_) col->PublishStats();
}

int64_t Table::PublishEpoch() {
  IDB_CHECK(ingest_enabled_);
  const int64_t n = num_rows();
  if (n > epoch_rows_.back()) {
    epoch_rows_.push_back(n);
    for (auto& col : columns_) col->PublishStats();
  }
  return epoch_rows_.back();
}

std::string Table::RowToString(int64_t i) const {
  std::string out;
  for (int c = 0; c < num_columns(); ++c) {
    if (c > 0) out += ",";
    out += column(c).ValueAsString(i);
  }
  return out;
}

}  // namespace idebench::storage
