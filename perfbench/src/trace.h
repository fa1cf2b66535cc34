#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

/// \file trace.h
/// In-memory spans taken around the benchmark's own calls into each layer's
/// public interface, plus the forwarding `Engine` decorator that times the
/// engine interface.  Recording is off unless `Tracer::SetEnabled(true)`;
/// spans are collected and written out when the run ends.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "engines/engine.h"

namespace perfbench {

/// What a span times.  The names are the layer boundaries of README.md.
enum class SpanKind : uint8_t {
  kInteraction = 0,   // submit to last terminal update (in-process)
  kSessionSubmit,     // SessionManager: ExplorationSession::SubmitInteraction
  kSessionStep,       // SessionManager::StepUntilEvent
  kEngineSubmit,      // Engine::Submit
  kEngineRun,         // Engine::RunFor
  kEnginePoll,        // Engine::PollResult
  kEngineCancel,      // Engine::Cancel
  kClientInteraction, // client frame written to last terminal update
  kClientAppend,      // append frame round trip
  kCount
};

const char* SpanKindName(SpanKind kind);

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Spans of one interaction share this id (in-process); engine spans on
  /// the server thread carry the session id, client spans the request id.
  int64_t id = -1;
  SpanKind kind = SpanKind::kInteraction;
  uint16_t thread = 0;
};

/// Monotonic nanoseconds.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Process-wide span store: one buffer per recording thread.
class Tracer {
 public:
  static bool enabled() { return enabled_.load(std::memory_order_relaxed); }
  static void SetEnabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  static void Record(const Span& span);
  /// Every span recorded so far, ordered by thread then start.
  static std::vector<Span> Collect();
  static void Clear();

 private:
  static std::atomic<bool> enabled_;
};

/// Records one span over its lifetime when tracing is on.
class ScopedSpan {
 public:
  ScopedSpan(SpanKind kind, int64_t id)
      : kind_(kind), id_(id), start_(Tracer::enabled() ? NowNs() : -1) {}
  ~ScopedSpan() {
    if (start_ >= 0) Tracer::Record({start_, NowNs(), id_, kind_, 0});
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanKind kind_;
  int64_t id_;
  int64_t start_;
};

/// Forwards every call to the wrapped engine, recording a span around
/// Submit, RunFor, PollResult and Cancel.  Engine spans carry the id set
/// with `set_default_id` (the in-process runner's interaction) or, when
/// none is set, the session id parsed from the qualified viz name
/// "s<session>/<viz>" the session manager submits (serve_ingest).
class TracingEngine : public idebench::engines::Engine {
 public:
  explicit TracingEngine(idebench::engines::Engine* inner) : inner_(inner) {}

  /// Id stamped on the spans of queries submitted from now on, in place of
  /// their session (the in-process runner sets the current interaction).
  void set_default_id(int64_t id) { default_id_ = id; }

  const std::string& name() const override { return inner_->name(); }
  idebench::Result<idebench::Micros> Prepare(
      std::shared_ptr<const idebench::storage::Catalog> catalog) override {
    return inner_->Prepare(std::move(catalog));
  }
  idebench::Result<idebench::engines::QueryHandle> Submit(
      const idebench::query::QuerySpec& spec) override;
  idebench::Micros RunFor(idebench::engines::QueryHandle handle,
                          idebench::Micros budget) override;
  bool IsDone(idebench::engines::QueryHandle handle) const override {
    return inner_->IsDone(handle);
  }
  idebench::Result<idebench::query::QueryResult> PollResult(
      idebench::engines::QueryHandle handle) override;
  void Cancel(idebench::engines::QueryHandle handle) override;
  void LinkVizs(const std::string& from, const std::string& to) override {
    inner_->LinkVizs(from, to);
  }
  void DiscardViz(const std::string& viz) override { inner_->DiscardViz(viz); }
  void OnThink(idebench::Micros duration) override { inner_->OnThink(duration); }
  void WorkflowStart() override { inner_->WorkflowStart(); }
  void WorkflowEnd() override { inner_->WorkflowEnd(); }
  idebench::metrics::ReuseCacheStats reuse_cache_stats() const override {
    return inner_->reuse_cache_stats();
  }

 private:
  int64_t IdOf(idebench::engines::QueryHandle handle) const;

  idebench::engines::Engine* inner_;
  int64_t default_id_ = -1;
  /// Session of each live handle; touched only by the thread driving the
  /// engine (the session manager's scheduling thread).
  std::unordered_map<idebench::engines::QueryHandle, int64_t> session_of_;
};

/// Writes `spans` as text lines "kind id thread start_ns end_ns" after a
/// header line holding `meta_json`.
bool WriteTrace(const std::string& path, const std::string& meta_json,
                const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
