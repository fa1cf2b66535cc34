#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <mutex>

namespace perfbench {

using idebench::Micros;
using idebench::Result;
using idebench::engines::QueryHandle;

std::atomic<bool> Tracer::enabled_{false};

namespace {

/// One recording thread's spans.  Its own mutex is uncontended except
/// while `Collect` reads it, so recording never waits on other threads.
struct ThreadBuffer {
  std::mutex mu;
  std::vector<Span> spans;
  uint16_t thread = 0;
};

std::mutex registry_mu;
std::vector<std::unique_ptr<ThreadBuffer>>& Registry() {
  static auto* buffers = new std::vector<std::unique_ptr<ThreadBuffer>>();
  return *buffers;
}

ThreadBuffer* LocalBuffer() {
  // Buffers live until process exit, so a span recorded by a thread that
  // has already ended is still collected.
  thread_local ThreadBuffer* local = [] {
    std::lock_guard<std::mutex> lock(registry_mu);
    auto buffer = std::make_unique<ThreadBuffer>();
    buffer->thread = static_cast<uint16_t>(Registry().size());
    Registry().push_back(std::move(buffer));
    return Registry().back().get();
  }();
  return local;
}

}  // namespace

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kInteraction: return "interaction";
    case SpanKind::kSessionSubmit: return "session.submit_interaction";
    case SpanKind::kSessionStep: return "session.step_until_event";
    case SpanKind::kEngineSubmit: return "engine.submit";
    case SpanKind::kEngineRun: return "engine.run_for";
    case SpanKind::kEnginePoll: return "engine.poll_result";
    case SpanKind::kEngineCancel: return "engine.cancel";
    case SpanKind::kClientInteraction: return "client.interaction";
    case SpanKind::kClientAppend: return "client.append";
    case SpanKind::kCount: break;
  }
  return "unknown";
}

void Tracer::Record(const Span& span) {
  ThreadBuffer* buffer = LocalBuffer();
  std::lock_guard<std::mutex> lock(buffer->mu);
  buffer->spans.push_back(span);
  buffer->spans.back().thread = buffer->thread;
}

std::vector<Span> Tracer::Collect() {
  std::vector<Span> all;
  std::lock_guard<std::mutex> lock(registry_mu);
  for (const auto& buffer : Registry()) {
    std::lock_guard<std::mutex> inner(buffer->mu);
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  std::stable_sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.thread != b.thread ? a.thread < b.thread : a.start_ns < b.start_ns;
  });
  return all;
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(registry_mu);
  for (const auto& buffer : Registry()) {
    std::lock_guard<std::mutex> inner(buffer->mu);
    buffer->spans.clear();
  }
}

Result<QueryHandle> TracingEngine::Submit(
    const idebench::query::QuerySpec& spec) {
  // The interaction id set by the in-process runner, if any; otherwise
  // the session of "s<session>/<viz>" as qualified by the session manager.
  int64_t id = default_id_;
  const std::string& viz = spec.viz_name;
  const size_t slash = viz.find('/');
  if (id < 0 && viz.size() > 1 && viz[0] == 's' && slash != std::string::npos) {
    id = std::strtoll(viz.c_str() + 1, nullptr, 10);
  }
  Result<QueryHandle> handle = [&] {
    ScopedSpan span(SpanKind::kEngineSubmit, id);
    return inner_->Submit(spec);
  }();
  if (handle.ok()) session_of_[*handle] = id;
  return handle;
}

int64_t TracingEngine::IdOf(QueryHandle handle) const {
  const auto it = session_of_.find(handle);
  return it != session_of_.end() ? it->second : default_id_;
}

Micros TracingEngine::RunFor(QueryHandle handle, Micros budget) {
  ScopedSpan span(SpanKind::kEngineRun, IdOf(handle));
  return inner_->RunFor(handle, budget);
}

Result<idebench::query::QueryResult> TracingEngine::PollResult(
    QueryHandle handle) {
  ScopedSpan span(SpanKind::kEnginePoll, IdOf(handle));
  return inner_->PollResult(handle);
}

void TracingEngine::Cancel(QueryHandle handle) {
  {
    ScopedSpan span(SpanKind::kEngineCancel, IdOf(handle));
    inner_->Cancel(handle);
  }
  session_of_.erase(handle);
}

bool WriteTrace(const std::string& path, const std::string& meta_json,
                const std::vector<Span>& spans) {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "# %s\n# kind id thread start_ns end_ns\n",
               meta_json.c_str());
  for (const Span& s : spans) {
    std::fprintf(out, "%s %lld %u %lld %lld\n", SpanKindName(s.kind),
                 static_cast<long long>(s.id), static_cast<unsigned>(s.thread),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
