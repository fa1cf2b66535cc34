#include "engines/registry.h"

#include "engines/blocking_engine.h"
#include "engines/frontend_engine.h"
#include "engines/online_engine.h"
#include "engines/progressive_engine.h"
#include "engines/stratified_engine.h"

namespace idebench::engines {

const std::vector<std::string>& BuiltinEngineNames() {
  static const std::vector<std::string> kNames = {
      "blocking", "online", "progressive", "stratified", "frontend"};
  return kNames;
}

Result<std::unique_ptr<Engine>> CreateEngine(const std::string& name,
                                             uint64_t seed, int threads,
                                             bool reuse_cache, int sessions) {
  if (threads < 0) {
    return Status::Invalid("threads must be >= 0 (0 = hardware concurrency)");
  }
  if (sessions < 1) {
    return Status::Invalid("sessions must be >= 1");
  }
  // The engine-wide arguments, applied once; `seed` offsets each
  // engine's own default seed.
  const auto configured = [&](auto config) {
    config.seed += seed;
    config.execution_threads = threads;
    config.reuse_cache = reuse_cache;
    config.expected_sessions = sessions;
    return config;
  };
  if (name == "blocking") {
    return std::unique_ptr<Engine>(
        new BlockingEngine(configured(BlockingEngineConfig{})));
  }
  if (name == "online") {
    return std::unique_ptr<Engine>(
        new OnlineEngine(configured(OnlineEngineConfig{})));
  }
  if (name == "progressive") {
    return std::unique_ptr<Engine>(
        new ProgressiveEngine(configured(ProgressiveEngineConfig{})));
  }
  if (name == "stratified") {
    return std::unique_ptr<Engine>(
        new StratifiedEngine(configured(StratifiedEngineConfig{})));
  }
  if (name == "frontend") {
    FrontendEngineConfig config;
    config.seed += seed;
    return std::unique_ptr<Engine>(new FrontendEngine(
        std::make_unique<BlockingEngine>(configured(BlockingEngineConfig{})),
        config));
  }
  return Status::KeyError("unknown engine '" + name + "'");
}

}  // namespace idebench::engines
