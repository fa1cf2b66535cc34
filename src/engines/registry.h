#ifndef IDEBENCH_ENGINES_REGISTRY_H_
#define IDEBENCH_ENGINES_REGISTRY_H_

/// \file registry.h
/// Engine construction by name, the way the benchmark driver's `--driver`
/// flag selects a system adapter in the paper's harness.

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "engines/engine.h"

namespace idebench::engines {

/// Names of all built-in engines:
/// "blocking", "online", "progressive", "stratified", "frontend".
const std::vector<std::string>& BuiltinEngineNames();

/// Creates an engine by name with default configuration.  "frontend"
/// layers the rendering delay over a blocking backend (as in Exp. 5).
/// The other arguments set the engine's `EngineOptions`
/// (engines/engine_base.h): `seed` offsets its default seed, `threads`
/// is its `execution_threads` (1 = single-threaded path, 0 = hardware
/// concurrency), `reuse_cache` turns the cross-interaction reuse cache on
/// (physical work only, results unchanged), and `sessions` is its
/// `expected_sessions` (sizes the cache, never changes results).
Result<std::unique_ptr<Engine>> CreateEngine(const std::string& name,
                                             uint64_t seed = 0,
                                             int threads = 1,
                                             bool reuse_cache = false,
                                             int sessions = 1);

}  // namespace idebench::engines

#endif  // IDEBENCH_ENGINES_REGISTRY_H_
