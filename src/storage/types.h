#ifndef IDEBENCH_STORAGE_TYPES_H_
#define IDEBENCH_STORAGE_TYPES_H_

/// \file types.h
/// Logical column types for the in-memory column store.
///
/// The flights schema (paper Figure 2) needs three physical types:
/// 64-bit integers (counts, codes, dates), doubles (delays, distances) and
/// dictionary-encoded strings (airport/carrier names).  Nominal attributes
/// are always dictionary-encoded so group-by on them is an integer
/// operation, as in columnar engines like MonetDB.

#include <cstdint>
#include <string>

namespace idebench::storage {

/// Physical type of a column.
enum class DataType : uint8_t {
  kInt64 = 0,
  kDouble = 1,
  kString = 2,  // dictionary-encoded
};

/// Returns a lower-case type name ("int64", "double", "string").
const char* DataTypeName(DataType type);

/// Statistical role of an attribute, used by binning and the data
/// generator (paper: nominal vs. quantitative binning).
enum class AttributeKind : uint8_t {
  kQuantitative = 0,  // continuous or discrete numeric; range-binned
  kNominal = 1,       // categorical; one bin per distinct value
};

/// A named, typed column descriptor.
struct Field {
  std::string name;
  DataType type = DataType::kDouble;
  AttributeKind kind = AttributeKind::kQuantitative;

  bool operator==(const Field& other) const {
    return name == other.name && type == other.type && kind == other.kind;
  }
};

}  // namespace idebench::storage

#endif  // IDEBENCH_STORAGE_TYPES_H_
