#ifndef IDEBENCH_NET_SERVER_H_
#define IDEBENCH_NET_SERVER_H_

/// \file server.h
/// The overload-hardened serving front-end: a single-threaded poll()
/// event loop that multiplexes any number of TCP connections onto one
/// `session::SessionManager`, speaking the length-prefixed JSON frame
/// protocol (net/frame.h, net/protocol.h).
///
/// The four defenses the chaos/overload tests pin down:
///
///  * *Wall-clock pacing.*  In wall mode the scheduler's virtual clock
///    chases real elapsed time, advancing at most `max_catchup` per loop
///    pass so one pass can never stall the socket loop for long.  The
///    resulting lag (wall - virtual) is the backlog signal the
///    ratekeeper degrades and eventually rejects on.  The loop reads the
///    wall clock once per pass, so a clock scripted by pass (the test
///    seam of `Create`) replays a wall-paced run exactly.  Virtual mode
///    (wall_pacing = false) instead advances `virtual_step` per pass
///    while queries are live.
///
///  * *Admission control.*  Every `interaction` request passes through
///    the `Ratekeeper` before touching the scheduler; refusals are
///    explicit `rejected` frames carrying a reason and a retry hint —
///    never silent drops.
///
///  * *Graceful degradation.*  Between healthy and full the ratekeeper
///    shrinks per-query sample budgets (`budget_scale` through
///    `SubmitInteraction`) and stretches the per-query partial-update
///    cadence, so quality and chatter give way before availability.
///
///  * *Backpressure.*  Per-connection write queues are bounded: a slow
///    client's partial updates coalesce in place (newest replaces the
///    queued one for the same query) and are dropped past the soft
///    limit; terminal updates always enqueue, and a client that cannot
///    even drain those is disconnected — explicitly counted, sessions
///    drained — rather than buffered without bound.  One stuck
///    connection never stalls the loop or other sessions.  Updates wait
///    in the queue unencoded and become bytes only at its head, so a
///    coalesced partial costs a copy, never a JSON encode.
///
/// Threading: the loop, the manager and the ratekeeper live on the
/// thread calling Serve().  `RequestStop` is the only cross-thread entry
/// point; read stats after Serve returns.

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "ingest/ingest.h"
#include "net/frame.h"
#include "net/ratekeeper.h"
#include "session/session.h"

namespace idebench::net {

struct ServerOptions {
  std::string host = "127.0.0.1";
  int port = 0;  // 0 = ephemeral; the bound port is Server::port()

  int max_connections = 64;
  size_t max_frame_bytes = kDefaultMaxFrameBytes;

  /// Backpressure bounds, in queued frames per connection.  Partials
  /// coalesce/drop at the soft limit; breaching the hard limit (which
  /// only terminal frames can) disconnects the client.
  size_t write_queue_soft_limit = 64;
  size_t write_queue_hard_limit = 1024;

  /// Wall-clock pacing (see file doc).  Virtual mode instead advances
  /// `virtual_step` per pass while queries are live.
  bool wall_pacing = true;
  Micros max_catchup = 50'000;
  Micros virtual_step = 50'000;
  /// poll() timeout per pass (wall micros; floor 1ms).
  Micros poll_interval = 2'000;

  /// Engine label reported in hello_ok / stats (informational).
  std::string engine_label = "engine";

  session::SessionManagerOptions scheduler;
  RatekeeperOptions ratekeeper;
};

struct ServerStats {
  int64_t connections_accepted = 0;
  int64_t connections_closed = 0;
  int64_t accept_faults = 0;   // injected/spurious accept failures survived
  int64_t read_faults = 0;     // connections torn by read errors
  int64_t frames_received = 0;
  int64_t frames_sent = 0;
  int64_t updates_sent = 0;          // update frames fully written
  int64_t partials_coalesced = 0;    // replaced in-queue by a newer partial
  int64_t partials_dropped = 0;      // shed at the soft limit / cadence
  int64_t finals_after_disconnect = 0;  // terminal updates whose client was
                                        // already gone — counted, never silent
  int64_t slow_client_disconnects = 0;  // hard write-queue breaches
  int64_t protocol_errors = 0;
  Micros max_backlog = 0;  // peak wall-minus-virtual lag, as a pass's
                           // admissions see it (wall mode)
  int64_t appends_received = 0;   // append frames seen
  int64_t append_rows = 0;        // rows staged through append frames
  int64_t appends_rejected = 0;   // shed / failed / no-ingestor refusals
  int64_t epochs_published = 0;   // publishes requested over the wire
};

/// See file doc.  Create binds + listens; Serve runs the loop.
class Server {
 public:
  /// `engine` must be prepared against `catalog`; both must outlive the
  /// server.  `wall_clock` is the wall time wall mode paces against, in
  /// non-decreasing micros, read on the loop thread once per pass; null
  /// reads a `WallClock` started here.  Tests pass a scripted clock.
  static Result<std::unique_ptr<Server>> Create(
      ServerOptions options, engines::Engine* engine,
      std::shared_ptr<const storage::Catalog> catalog,
      std::function<Micros()> wall_clock = nullptr);

  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound listening port.
  int port() const { return port_; }

  /// Runs the event loop until RequestStop() or `until` (checked once
  /// per pass; null = run until stopped) returns false.  On return every
  /// connection has been drained and closed.
  Status Serve(const std::function<bool()>& until = nullptr);

  /// Thread-safe stop signal; the loop exits within one poll interval.
  void RequestStop() { stop_.store(true, std::memory_order_release); }

  /// Attaches the ingestor that `append` frames feed: they stage rows
  /// into its fact table (and optionally publish an epoch).  Must be
  /// called before Serve; the ingestor must feed the catalog this server
  /// serves and outlive it.  Without an ingestor, `append` frames are
  /// rejected with reason "no_ingestor".  The loop thread applies each
  /// append between scheduler calls — the Ingestor's single-writer
  /// protocol; the session manager never sees it — after
  /// `Ratekeeper::AdmitIngest`, so ingest sheds strictly before query
  /// traffic degrades.
  void AttachIngestor(ingest::Ingestor* ingestor) { ingestor_ = ingestor; }

  /// Loop-thread-only accessors (or after Serve returned).
  const ServerStats& stats() const { return stats_; }
  const Ratekeeper& ratekeeper() const { return ratekeeper_; }
  session::SessionManager& manager() { return *manager_; }

 private:
  struct Connection;

  /// Per-connection ResultSink: forwards every pushed update into the
  /// connection's write queue with coalescing + cadence + the explicit
  /// post-disconnect accounting.
  class ConnectionSink : public session::ResultSink {
   public:
    ConnectionSink(Server* server, Connection* conn)
        : server_(server), conn_(conn) {}
    void OnUpdate(const session::ProgressiveUpdate& update) override {
      server_->OnUpdate(conn_, update);
    }

   private:
    Server* server_;
    Connection* conn_;
  };

  /// One queued outbound frame.  Control frames are encoded into `bytes`
  /// when queued.  Update frames (`query_id >= 0`) keep their `update`
  /// with `bytes` empty until FlushWrites encodes them at the head of the
  /// queue; until then a newer partial for the same query replaces a
  /// non-final one in place.  Finals and control frames are never
  /// replaced.
  struct QueuedFrame {
    std::string bytes;  // the wire frame; empty = update not yet encoded
    int64_t query_id = -1;
    bool final_update = false;
    session::ProgressiveUpdate update;  // update frames only
  };

  /// Per-query streaming state while admitted (degraded cadence).
  struct QueryStream {
    Micros update_interval = 0;  // min virtual-time gap between partials
    Micros last_partial = -1;    // virtual time of the last queued partial
  };

  struct Connection {
    int fd = -1;
    std::string tenant = "anon";
    bool saw_hello = false;
    bool dead = false;  // swept (sessions closed, fd closed) post-pass
    FrameDecoder decoder;
    std::deque<QueuedFrame> write_queue;
    size_t front_written = 0;  // bytes of the front frame already sent
    std::unique_ptr<ConnectionSink> sink;
    /// Sessions opened by this connection (id -> handle).
    std::map<int64_t, session::ExplorationSession*> sessions;
  };

  Server(ServerOptions options, engines::Engine* engine,
         std::shared_ptr<const storage::Catalog> catalog,
         std::function<Micros()> wall_clock);

  Status Bind();
  void AcceptPending();
  void ReadFrom(Connection* conn);
  void HandleMessage(Connection* conn, const JsonValue& msg);
  void HandleInteraction(Connection* conn, const JsonValue& msg);
  void HandleAppend(Connection* conn, const JsonValue& msg);
  Status AdvanceScheduler();
  void FlushWrites(Connection* conn);
  void SweepDead();
  void CloseAll();

  void OnUpdate(Connection* conn, const session::ProgressiveUpdate& update);
  void EnqueueUpdate(Connection* conn,
                     const session::ProgressiveUpdate& update);
  void Enqueue(Connection* conn, QueuedFrame frame);
  void SendMessage(Connection* conn, const JsonValue& msg);
  void KillConnection(Connection* conn);

  /// `now` for the ratekeeper: wall elapsed in wall mode, virtual time
  /// otherwise.
  Micros RatekeeperNow() const;
  Micros Backlog() const;

  ServerOptions options_;
  engines::Engine* engine_;
  std::shared_ptr<const storage::Catalog> catalog_;
  std::unique_ptr<session::SessionManager> manager_;
  Ratekeeper ratekeeper_;
  ingest::Ingestor* ingestor_ = nullptr;
  std::function<Micros()> wall_clock_;
  Micros wall_now_ = 0;  // wall elapsed, sampled once per pass

  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stop_{false};
  std::vector<std::unique_ptr<Connection>> connections_;

  /// Admitted, not yet terminal queries: the ratekeeper's live set.
  std::unordered_map<int64_t, QueryStream> streams_;

  ServerStats stats_;
};

}  // namespace idebench::net

#endif  // IDEBENCH_NET_SERVER_H_
