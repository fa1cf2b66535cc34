#ifndef IDEBENCH_NET_CLIENT_H_
#define IDEBENCH_NET_CLIENT_H_

/// \file client.h
/// Blocking client for the serving front-end (net/server.h): connects,
/// performs the hello handshake, and exchanges framed JSON messages.
///
/// The protocol is asynchronous — `update` frames interleave with
/// request replies — so the core surface is just `Send` plus a blocking
/// `Next` with a timeout; `WaitFor` drains to a specific reply type
/// while buffering everything else for later `Next` calls (arrival
/// order is preserved).  Used by idebench_serve's ingest feeder,
/// perfbench's serving workload and the loopback tests;
/// single-threaded, one instance per connection.

#include <cstdint>
#include <deque>
#include <memory>
#include <string>

#include "common/clock.h"
#include "common/result.h"
#include "net/frame.h"

namespace idebench::net {

class Client {
 public:
  /// Connects and completes the hello handshake as `tenant`.  Fails with
  /// IOError when the server refuses the connection (overload-refused
  /// accepts surface here, not as hangs).
  static Result<std::unique_ptr<Client>> Connect(
      const std::string& host, int port, const std::string& tenant,
      Micros timeout = 5 * kMicrosPerSecond);

  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Sends one message frame (blocking until fully written).
  Status Send(const JsonValue& message);

  /// Waits up to `timeout` for the next message.  Returns true with
  /// `*out` filled, false on timeout; a Status error on EOF, socket
  /// error, or framing violation (the connection is unusable after).
  Result<bool> Next(JsonValue* out, Micros timeout);

  /// Drains messages until one with `type` arrives (returned), buffering
  /// everything else for later Next calls.  Times out with an error.
  Result<JsonValue> WaitFor(const std::string& type, Micros timeout);

  /// Convenience wrappers over Send/WaitFor.
  Result<int64_t> OpenSession(Micros timeout = 5 * kMicrosPerSecond);
  Status CloseSession(int64_t session, Micros timeout = 5 * kMicrosPerSecond);

 private:
  explicit Client(int fd) : fd_(fd) {}

  /// Reads more bytes into the decoder (blocking up to the deadline).
  /// Returns true when bytes arrived, false on timeout.
  Result<bool> FillUntil(Micros deadline_wall);

  int fd_;
  FrameDecoder decoder_;
  std::deque<JsonValue> buffered_;
  WallClock wall_;
};

}  // namespace idebench::net

#endif  // IDEBENCH_NET_CLIENT_H_
