#include "storage/types.h"

namespace idebench::storage {

const char* DataTypeName(DataType type) {
  switch (type) {
    case DataType::kInt64:
      return "int64";
    case DataType::kDouble:
      return "double";
    case DataType::kString:
      return "string";
  }
  return "unknown";
}

}  // namespace idebench::storage
