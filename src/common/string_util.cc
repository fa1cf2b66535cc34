#include "common/string_util.h"

#include <cctype>
#include <charconv>
#include <cstdarg>
#include <cstdio>
#include <system_error>

namespace idebench {

std::vector<std::string> Split(const std::string& s, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    const size_t pos = s.find(delim, start);
    if (pos == std::string::npos) {
      out.push_back(s.substr(start));
      return out;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string Join(const std::vector<std::string>& parts,
                 const std::string& sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string Trim(const std::string& s) {
  size_t begin = 0;
  size_t end = s.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(s[begin]))) {
    ++begin;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  return s.substr(begin, end - begin);
}

std::string ToLower(const std::string& s) {
  std::string out = s;
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() && s.compare(0, prefix.size(), prefix) == 0;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

std::string StringPrintf(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  va_list ap_copy;
  va_copy(ap_copy, ap);
  const int needed = std::vsnprintf(nullptr, 0, fmt, ap);
  va_end(ap);
  if (needed < 0) {
    va_end(ap_copy);
    return {};
  }
  std::string out(static_cast<size_t>(needed), '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, ap_copy);
  va_end(ap_copy);
  return out;
}

std::string FormatDouble(double value, int decimals) {
  return StringPrintf("%.*f", decimals, value);
}

std::string FormatPercent(double ratio, int decimals) {
  return StringPrintf("%.*f%%", decimals, ratio * 100.0);
}

std::string HumanCount(int64_t n) {
  const char* suffix = "";
  double v = static_cast<double>(n);
  if (n >= 1'000'000'000 && n % 100'000'000 == 0) {
    v /= 1e9;
    suffix = "B";
  } else if (n >= 1'000'000 && n % 100'000 == 0) {
    v /= 1e6;
    suffix = "M";
  } else if (n >= 1'000 && n % 100 == 0) {
    v /= 1e3;
    suffix = "K";
  } else {
    return std::to_string(n);
  }
  if (v == static_cast<int64_t>(v)) {
    return StringPrintf("%lld%s", static_cast<long long>(v), suffix);
  }
  return StringPrintf("%.1f%s", v, suffix);
}

std::string DataSizeLabel(int64_t nominal_rows) {
  return ToLower(HumanCount(nominal_rows));
}

namespace {

/// std::from_chars does not accept a leading '+' (strtol/strtod do);
/// tolerate exactly one so previously-valid inputs keep parsing.
std::string_view StripLeadingPlus(std::string_view s) {
  if (s.size() > 1 && s.front() == '+') s.remove_prefix(1);
  return s;
}

}  // namespace

StrictParseResult ParseInt64Strict(std::string_view s, int64_t* out) {
  s = StripLeadingPlus(s);
  if (s.empty()) return StrictParseResult::kInvalid;
  int64_t v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec == std::errc::result_out_of_range) {
    return StrictParseResult::kOutOfRange;
  }
  if (ec != std::errc() || ptr != s.data() + s.size()) {
    return StrictParseResult::kInvalid;
  }
  *out = v;
  return StrictParseResult::kOk;
}

StrictParseResult ParseDoubleStrict(std::string_view s, double* out) {
  s = StripLeadingPlus(s);
  if (s.empty()) return StrictParseResult::kInvalid;
  double v = 0.0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec == std::errc::result_out_of_range) {
    // Overflow *and* underflow: a value strtod would clamp to ±HUGE_VAL
    // or round to zero while setting ERANGE.  Subnormals that from_chars
    // can represent parse fine and do not land here.
    return StrictParseResult::kOutOfRange;
  }
  if (ec != std::errc() || ptr != s.data() + s.size()) {
    return StrictParseResult::kInvalid;
  }
  *out = v;
  return StrictParseResult::kOk;
}

}  // namespace idebench
