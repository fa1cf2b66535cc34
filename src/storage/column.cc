#include "storage/column.h"

#include "common/logging.h"
#include "common/string_util.h"

namespace idebench::storage {

int64_t Dictionary::GetOrInsert(const std::string& value) {
  auto it = index_.find(value);
  if (it != index_.end()) return it->second;
  const int64_t code = static_cast<int64_t>(values_.size());
  values_.push_back(value);
  index_.emplace(value, code);
  return code;
}

int64_t Dictionary::Lookup(const std::string& value) const {
  auto it = index_.find(value);
  return it == index_.end() ? -1 : it->second;
}

const std::string& Dictionary::At(int64_t code) const {
  IDB_CHECK(code >= 0 && code < size());
  return values_[static_cast<size_t>(code)];
}

Column::Column(Field field) : field_(std::move(field)) {
  if (field_.type == DataType::kString) {
    field_.kind = AttributeKind::kNominal;
  }
}

int64_t Column::size() const {
  return field_.type == DataType::kDouble
             ? static_cast<int64_t>(doubles_.size())
             : static_cast<int64_t>(ints_.size());
}

void Column::AppendInt(int64_t v) {
  IDB_CHECK(field_.type == DataType::kInt64);
  ints_.push_back(v);
  UpdateStats(static_cast<double>(v));
}

void Column::AppendDouble(double v) {
  IDB_CHECK(field_.type == DataType::kDouble);
  doubles_.push_back(v);
  UpdateStats(v);
}

void Column::AppendString(const std::string& v) {
  IDB_CHECK(field_.type == DataType::kString);
  const int64_t code = dict_.GetOrInsert(v);
  ints_.push_back(code);
  UpdateStats(static_cast<double>(code));
}

void Column::AppendCode(int64_t code) {
  IDB_CHECK(field_.type == DataType::kString);
  IDB_CHECK(code >= 0 && code < dict_.size());
  ints_.push_back(code);
  UpdateStats(static_cast<double>(code));
}

Status Column::AppendParsed(const std::string& text) {
  // Strict, locale-independent parsing (common/string_util.h): the whole
  // trimmed token must form one value.  strtod/strtoll would accept
  // trailing garbage ("12abc"), consult the C locale for the decimal
  // separator, and silently clamp out-of-range input to ±HUGE_VAL /
  // LLONG_MAX — clamped values would then poison min/max and zone maps.
  switch (field_.type) {
    case DataType::kInt64: {
      int64_t v = 0;
      switch (ParseInt64Strict(Trim(text), &v)) {
        case StrictParseResult::kOk:
          break;
        case StrictParseResult::kOutOfRange:
          return Status::Invalid("int64 out of range: '" + text + "'");
        case StrictParseResult::kInvalid:
          return Status::Invalid("cannot parse int64 from '" + text + "'");
      }
      ints_.push_back(v);
      UpdateStats(static_cast<double>(v));
      return Status::OK();
    }
    case DataType::kDouble: {
      double v = 0.0;
      switch (ParseDoubleStrict(Trim(text), &v)) {
        case StrictParseResult::kOk:
          break;
        case StrictParseResult::kOutOfRange:
          return Status::Invalid("double out of range: '" + text + "'");
        case StrictParseResult::kInvalid:
          return Status::Invalid("cannot parse double from '" + text + "'");
      }
      doubles_.push_back(v);
      UpdateStats(v);
      return Status::OK();
    }
    case DataType::kString: {
      const int64_t code = dict_.GetOrInsert(text);
      ints_.push_back(code);
      UpdateStats(static_cast<double>(code));
      return Status::OK();
    }
  }
  return Status::Invalid("unknown column type");
}

void Column::AppendFrom(const Column& other, int64_t row) {
  IDB_CHECK(other.field_.type == field_.type);
  switch (field_.type) {
    case DataType::kInt64: {
      const int64_t v = other.ints_[static_cast<size_t>(row)];
      ints_.push_back(v);
      UpdateStats(static_cast<double>(v));
      return;
    }
    case DataType::kDouble: {
      const double v = other.doubles_[static_cast<size_t>(row)];
      doubles_.push_back(v);
      UpdateStats(v);
      return;
    }
    case DataType::kString: {
      const int64_t code = dict_.GetOrInsert(
          other.dict_.At(other.ints_[static_cast<size_t>(row)]));
      ints_.push_back(code);
      UpdateStats(static_cast<double>(code));
      return;
    }
  }
}

void Column::Reserve(int64_t n) {
  if (field_.type == DataType::kDouble) {
    doubles_.reserve(static_cast<size_t>(n));
  } else {
    ints_.reserve(static_cast<size_t>(n));
  }
}

double Column::ValueAsDouble(int64_t i) const {
  return field_.type == DataType::kDouble
             ? doubles_[static_cast<size_t>(i)]
             : static_cast<double>(ints_[static_cast<size_t>(i)]);
}

int64_t Column::ValueAsInt(int64_t i) const {
  return field_.type == DataType::kDouble
             ? static_cast<int64_t>(doubles_[static_cast<size_t>(i)])
             : ints_[static_cast<size_t>(i)];
}

std::string Column::ValueAsString(int64_t i) const {
  switch (field_.type) {
    case DataType::kInt64:
      return std::to_string(ints_[static_cast<size_t>(i)]);
    case DataType::kDouble:
      return FormatDouble(doubles_[static_cast<size_t>(i)], 6);
    case DataType::kString:
      return dict_.At(ints_[static_cast<size_t>(i)]);
  }
  return {};
}

}  // namespace idebench::storage
