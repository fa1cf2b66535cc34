#include "driver/settings.h"

namespace idebench::driver {

Status Settings::Validate() const {
  if (time_requirement <= 0) {
    return Status::Invalid("time_requirement must be positive");
  }
  if (think_time < 0) return Status::Invalid("think_time must be >= 0");
  if (concurrency_penalty < 0.0) {
    return Status::Invalid("concurrency_penalty must be >= 0");
  }
  if (threads < 0) {
    return Status::Invalid("threads must be >= 0 (0 = hardware concurrency)");
  }
  if (sessions < 1) {
    return Status::Invalid("sessions must be >= 1");
  }
  return Status::OK();
}

}  // namespace idebench::driver
