#include "net/protocol.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "aqp/confidence.h"

namespace idebench::net {

JsonValue QueryResultToJson(const query::QueryResult& result) {
  JsonValue j = JsonValue::Object();
  j.Set("available", result.available);
  j.Set("exact", result.exact);
  j.Set("progress", result.progress);
  j.Set("rows", result.rows_processed);
  std::vector<int64_t> keys;
  keys.reserve(result.bins.size());
  for (const auto& [key, bin] : result.bins) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  JsonValue bins = JsonValue::Array();
  for (const int64_t key : keys) {
    const query::BinResult& bin = result.bins.at(key);
    JsonValue entry = JsonValue::Array();
    entry.Append(key);
    JsonValue values = JsonValue::Array();
    for (const query::AggValue& v : bin.values) {
      JsonValue pair = JsonValue::Array();
      pair.Append(v.estimate);
      pair.Append(v.margin);
      values.Append(std::move(pair));
    }
    entry.Append(std::move(values));
    bins.Append(std::move(entry));
  }
  j.Set("bins", std::move(bins));
  return j;
}

Result<query::QueryResult> QueryResultFromJson(const JsonValue& j) {
  if (!j.is_object()) return Status::Invalid("result must be an object");
  query::QueryResult result;
  result.available = j.GetBool("available", false);
  result.exact = j.GetBool("exact", false);
  result.progress = j.GetDouble("progress", 0.0);
  result.rows_processed = j.GetInt("rows", 0);
  const JsonValue& bins = j.Get("bins");
  if (!bins.is_array()) return Status::Invalid("result.bins must be an array");
  for (size_t i = 0; i < bins.size(); ++i) {
    const JsonValue& entry = bins.at(i);
    if (!entry.is_array() || entry.size() != 2 || !entry.at(0).is_number() ||
        !entry.at(1).is_array()) {
      return Status::Invalid("malformed result bin entry");
    }
    query::BinResult bin;
    const JsonValue& values = entry.at(1);
    for (size_t v = 0; v < values.size(); ++v) {
      const JsonValue& pair = values.at(v);
      if (!pair.is_array() || pair.size() != 2 || !pair.at(0).is_number() ||
          !pair.at(1).is_number()) {
        return Status::Invalid("malformed aggregate value pair");
      }
      bin.values.push_back({pair.at(0).AsDouble(), pair.at(1).AsDouble()});
    }
    result.bins.emplace(entry.at(0).AsInt(), std::move(bin));
  }
  return result;
}

JsonValue UpdateToJson(const session::ProgressiveUpdate& update) {
  JsonValue j = JsonValue::Object();
  j.Set("type", "update");
  j.Set("session", update.session_id);
  j.Set("query", update.query_id);
  j.Set("interaction", update.interaction_id);
  j.Set("viz", update.viz_name);
  j.Set("confidence", aqp::kConfidenceLevel);
  j.Set("progress", update.progress);
  j.Set("virtual_time", update.virtual_time);
  j.Set("consumed", update.consumed);
  j.Set("budget", update.budget);
  j.Set("final", update.final_update);
  j.Set("completed", update.completed);
  j.Set("cancelled", update.cancelled);
  j.Set("unsupported", update.unsupported);
  j.Set("failed", update.failed);
  j.Set("result", QueryResultToJson(update.result));
  return j;
}

Result<session::ProgressiveUpdate> UpdateFromJson(const JsonValue& j) {
  if (!j.is_object() || MessageType(j) != "update") {
    return Status::Invalid("not an update message");
  }
  session::ProgressiveUpdate u;
  u.session_id = j.GetInt("session", 0);
  u.query_id = j.GetInt("query", 0);
  u.interaction_id = j.GetInt("interaction", 0);
  u.viz_name = j.GetString("viz", "");
  u.progress = j.GetDouble("progress", 0.0);
  u.virtual_time = j.GetInt("virtual_time", 0);
  u.consumed = j.GetInt("consumed", 0);
  u.budget = j.GetInt("budget", 0);
  u.final_update = j.GetBool("final", false);
  u.completed = j.GetBool("completed", false);
  u.cancelled = j.GetBool("cancelled", false);
  u.unsupported = j.GetBool("unsupported", false);
  u.failed = j.GetBool("failed", false);
  IDB_ASSIGN_OR_RETURN(u.result, QueryResultFromJson(j.Get("result")));
  return u;
}

JsonValue MakeHello(const std::string& tenant) {
  JsonValue j = JsonValue::Object();
  j.Set("type", "hello");
  j.Set("tenant", tenant);
  j.Set("protocol", kProtocolVersion);
  return j;
}

JsonValue MakeError(const Status& status) {
  JsonValue j = JsonValue::Object();
  j.Set("type", "error");
  j.Set("code", StatusCodeToString(status.code()));
  j.Set("message", status.message());
  return j;
}

std::string MessageType(const JsonValue& message) {
  if (!message.is_object()) return "";
  const JsonValue& type = message.Get("type");
  return type.is_string() ? type.AsString() : "";
}

}  // namespace idebench::net
