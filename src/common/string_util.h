#ifndef IDEBENCH_COMMON_STRING_UTIL_H_
#define IDEBENCH_COMMON_STRING_UTIL_H_

/// \file string_util.h
/// Small string helpers used across modules (CSV parsing, SQL generation,
/// report formatting).

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace idebench {

/// Splits `s` on `delim`; keeps empty fields ("a,,b" -> {"a","","b"}).
std::vector<std::string> Split(const std::string& s, char delim);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts,
                 const std::string& sep);

/// Removes leading/trailing ASCII whitespace.
std::string Trim(const std::string& s);

/// ASCII lower-casing.
std::string ToLower(const std::string& s);

/// True when `s` starts with `prefix`.
bool StartsWith(const std::string& s, const std::string& prefix);

/// True when `s` ends with `suffix`.
bool EndsWith(const std::string& s, const std::string& suffix);

/// printf-style formatting into a std::string.
std::string StringPrintf(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Formats a double with `decimals` fraction digits.
std::string FormatDouble(double value, int decimals);

/// Formats a ratio in [0,1] as a percentage string, e.g. "12.3%".
std::string FormatPercent(double ratio, int decimals = 1);

/// Renders row counts like 100000000 as "100M", 1500 as "1.5K".
std::string HumanCount(int64_t n);

/// Report label for a nominal dataset size: `HumanCount` in lower case
/// ("100m", "500m", "1b").
std::string DataSizeLabel(int64_t nominal_rows);

/// Outcome of the strict scalar parsers below.  `kOutOfRange` flags text
/// that *is* a well-formed number but does not fit the target type —
/// exactly the case `strtod`/`strtoll` silently clamp to ±HUGE_VAL /
/// LLONG_MAX (and zone maps would then ingest the clamped garbage).
enum class StrictParseResult : uint8_t {
  kOk = 0,
  kInvalid = 1,      // empty, trailing garbage, or not a number at all
  kOutOfRange = 2,   // well-formed but outside the representable range
};

/// Strict, locale-independent scalar parsing built on std::from_chars:
/// the *entire* string must form one value (no leading/trailing junk; a
/// single leading '+' is tolerated for compatibility with strtol-parsed
/// inputs).  Unlike strtod, never consults the C locale and never clamps
/// out-of-range input to ±HUGE_VAL.  `*out` is written only on `kOk`.
StrictParseResult ParseInt64Strict(std::string_view s, int64_t* out);
StrictParseResult ParseDoubleStrict(std::string_view s, double* out);

}  // namespace idebench

#endif  // IDEBENCH_COMMON_STRING_UTIL_H_
