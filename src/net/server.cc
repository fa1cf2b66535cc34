#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "chaos/fault_injector.h"
#include "net/protocol.h"
#include "workflow/interaction.h"

namespace idebench::net {

namespace {

Status Errno(const std::string& what) {
  return Status::IOError(what + ": " + std::strerror(errno));
}

Status SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Errno("fcntl(O_NONBLOCK)");
  }
  return Status::OK();
}

}  // namespace

Server::Server(ServerOptions options, engines::Engine* engine,
               std::shared_ptr<const storage::Catalog> catalog,
               std::function<Micros()> wall_clock)
    : options_(std::move(options)),
      engine_(engine),
      catalog_(std::move(catalog)),
      ratekeeper_(options_.ratekeeper),
      wall_clock_(std::move(wall_clock)) {
  manager_ = std::make_unique<session::SessionManager>(options_.scheduler,
                                                       engine_, catalog_);
  if (!wall_clock_) wall_clock_ = [wall = WallClock()] { return wall.Now(); };
}

Result<std::unique_ptr<Server>> Server::Create(
    ServerOptions options, engines::Engine* engine,
    std::shared_ptr<const storage::Catalog> catalog,
    std::function<Micros()> wall_clock) {
  auto server = std::unique_ptr<Server>(new Server(
      std::move(options), engine, std::move(catalog), std::move(wall_clock)));
  IDB_RETURN_NOT_OK(server->Bind());
  return server;
}

Server::~Server() { CloseAll(); }

Status Server::Bind() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Errno("socket");
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return Status::Invalid("bad listen address: " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return Errno("bind " + options_.host + ":" + std::to_string(options_.port));
  }
  if (::listen(listen_fd_, 64) < 0) return Errno("listen");
  IDB_RETURN_NOT_OK(SetNonBlocking(listen_fd_));

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) <
      0) {
    return Errno("getsockname");
  }
  port_ = ntohs(bound.sin_port);
  return Status::OK();
}

Micros Server::RatekeeperNow() const {
  return options_.wall_pacing ? wall_now_ : manager_->VirtualNow();
}

Micros Server::Backlog() const {
  if (!options_.wall_pacing) return 0;
  return std::max<Micros>(0, wall_now_ - manager_->VirtualNow());
}

Status Server::Serve(const std::function<bool()>& until) {
  while (!stop_.load(std::memory_order_acquire) && (!until || until())) {
    // poll over the listener + every live connection.
    std::vector<pollfd> fds;
    fds.reserve(connections_.size() + 1);
    fds.push_back({listen_fd_, POLLIN, 0});
    for (const auto& conn : connections_) {
      short events = POLLIN;
      if (!conn->write_queue.empty()) events |= POLLOUT;
      fds.push_back({conn->fd, events, 0});
    }
    const int timeout_ms = std::max(
        1, static_cast<int>(options_.poll_interval / 1000));
    const int ready = ::poll(fds.data(), fds.size(), timeout_ms);
    if (ready < 0 && errno != EINTR) return Errno("poll");

    // The pass's one clock reading.  Every admission of the pass sees
    // this backlog, so its peak is taken before the scheduler catches up.
    wall_now_ = wall_clock_();
    stats_.max_backlog = std::max(stats_.max_backlog, Backlog());
    if (ready > 0) {
      // AcceptPending() grows connections_, but fds was built before the
      // accept — connections beyond the polled count have no pollfd.
      const size_t polled = fds.size() - 1;
      if (fds[0].revents & POLLIN) AcceptPending();
      for (size_t i = 0; i < polled; ++i) {
        Connection* conn = connections_[i].get();
        const short revents = fds[i + 1].revents;
        if (conn->dead) continue;
        if (revents & (POLLERR | POLLHUP | POLLNVAL)) {
          KillConnection(conn);
          continue;
        }
        if (revents & POLLIN) ReadFrom(conn);
      }
    }

    IDB_RETURN_NOT_OK(AdvanceScheduler());

    for (const auto& conn : connections_) {
      if (!conn->dead) FlushWrites(conn.get());
    }
    SweepDead();
  }
  CloseAll();
  return Status::OK();
}

void Server::AcceptPending() {
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      // Transient accept failures (EMFILE, ECONNABORTED, injected
      // chaos): the listener must survive and keep serving.
      ++stats_.accept_faults;
      return;
    }
    if (chaos::FaultInjector::Fire(chaos::FaultSite::kNetAccept) ||
        static_cast<int>(connections_.size()) >= options_.max_connections) {
      // Refuse the connection outright; the client observes a close,
      // which is an explicit signal, not a hang.
      ++stats_.accept_faults;
      ::close(fd);
      continue;
    }
    if (!SetNonBlocking(fd).ok()) {
      ++stats_.accept_faults;
      ::close(fd);
      continue;
    }
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->decoder = FrameDecoder(options_.max_frame_bytes);
    conn->sink = std::make_unique<ConnectionSink>(this, conn.get());
    connections_.push_back(std::move(conn));
    ++stats_.connections_accepted;
  }
}

void Server::ReadFrom(Connection* conn) {
  char buf[64 * 1024];
  while (!conn->dead) {
    if (chaos::FaultInjector::Fire(chaos::FaultSite::kNetRead)) {
      // Injected read tear: the connection is gone mid-stream; its
      // sessions must drain cleanly (SweepDead).
      ++stats_.read_faults;
      KillConnection(conn);
      return;
    }
    const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n == 0) {  // orderly peer close
      KillConnection(conn);
      return;
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
      ++stats_.read_faults;
      KillConnection(conn);
      return;
    }
    conn->decoder.Feed(buf, static_cast<size_t>(n));
    while (!conn->dead) {
      JsonValue msg;
      auto next = conn->decoder.Next(&msg);
      if (!next.ok()) {
        // Framing violation: the stream is unsynchronized.  Tell the
        // peer why (best effort) and drop the connection.
        ++stats_.protocol_errors;
        SendMessage(conn, MakeError(next.status()));
        KillConnection(conn);
        return;
      }
      if (!*next) break;
      ++stats_.frames_received;
      HandleMessage(conn, msg);
    }
    if (n < static_cast<ssize_t>(sizeof(buf))) return;  // drained for now
  }
}

void Server::HandleMessage(Connection* conn, const JsonValue& msg) {
  const std::string type = MessageType(msg);
  if (type == "hello") {
    const int64_t version = msg.GetInt("protocol", 0);
    if (version != kProtocolVersion) {
      ++stats_.protocol_errors;
      SendMessage(conn, MakeError(Status::Invalid(
                            "unsupported protocol version " +
                            std::to_string(version))));
      KillConnection(conn);
      return;
    }
    conn->tenant = msg.GetString("tenant", "anon");
    conn->saw_hello = true;
    JsonValue reply = JsonValue::Object();
    reply.Set("type", "hello_ok");
    reply.Set("protocol", kProtocolVersion);
    reply.Set("engine", options_.engine_label);
    SendMessage(conn, reply);
    return;
  }
  if (type == "open_session") {
    auto created = manager_->CreateSession(conn->sink.get());
    if (!created.ok()) {
      ++stats_.protocol_errors;
      SendMessage(conn, MakeError(created.status()));
      return;
    }
    conn->sessions[(*created)->id()] = *created;
    JsonValue reply = JsonValue::Object();
    reply.Set("type", "session_opened");
    reply.Set("session", (*created)->id());
    SendMessage(conn, reply);
    return;
  }
  if (type == "interaction") {
    HandleInteraction(conn, msg);
    return;
  }
  if (type == "append") {
    HandleAppend(conn, msg);
    return;
  }
  if (type == "cancel") {
    auto it = conn->sessions.find(msg.GetInt("session", -1));
    if (it == conn->sessions.end()) {
      ++stats_.protocol_errors;
      SendMessage(conn, MakeError(Status::KeyError("unknown session")));
      return;
    }
    const Status st = it->second->Cancel(msg.GetInt("query", -1));
    if (!st.ok()) SendMessage(conn, MakeError(st));
    return;
  }
  if (type == "think") {
    auto it = conn->sessions.find(msg.GetInt("session", -1));
    if (it != conn->sessions.end()) {
      it->second->Think(std::max<int64_t>(0, msg.GetInt("micros", 0)));
    }
    return;
  }
  if (type == "close_session") {
    const int64_t id = msg.GetInt("session", -1);
    auto it = conn->sessions.find(id);
    if (it == conn->sessions.end()) {
      ++stats_.protocol_errors;
      SendMessage(conn, MakeError(Status::KeyError("unknown session")));
      return;
    }
    // Terminal cancelled updates for live queries enqueue first (through
    // the sink), then the close confirmation — the client never sees the
    // close overtake a terminal.
    const Status st = manager_->CloseSession(it->second);
    conn->sessions.erase(it);
    if (!st.ok()) {
      SendMessage(conn, MakeError(st));
      return;
    }
    JsonValue reply = JsonValue::Object();
    reply.Set("type", "session_closed");
    reply.Set("session", id);
    SendMessage(conn, reply);
    return;
  }
  if (type == "stats") {
    const session::SchedulerStats ss = manager_->stats();
    const RatekeeperStats rs = ratekeeper_.stats();
    JsonValue scheduler = JsonValue::Object();
    scheduler.Set("submitted", ss.queries_submitted);
    scheduler.Set("completed", ss.completed);
    scheduler.Set("deadline_cancelled", ss.deadline_cancelled);
    scheduler.Set("client_cancelled", ss.client_cancelled);
    scheduler.Set("unsupported", ss.unsupported);
    scheduler.Set("failed", ss.failed);
    scheduler.Set("updates_pushed", ss.updates_pushed);
    scheduler.Set("max_deadline_overshoot", ss.max_deadline_overshoot);
    scheduler.Set("virtual_now", ss.virtual_now);
    JsonValue keeper = JsonValue::Object();
    keeper.Set("admitted", rs.admitted);
    keeper.Set("degraded", rs.degraded);
    keeper.Set("throttled", rs.throttled);
    keeper.Set("rejected", rs.rejected);
    keeper.Set("max_level_seen", rs.max_level_seen);
    keeper.Set("min_budget_scale_granted", rs.min_budget_scale_granted);
    keeper.Set("live", rs.live);
    keeper.Set("peak_live", rs.peak_live);
    JsonValue server = JsonValue::Object();
    server.Set("connections_accepted", stats_.connections_accepted);
    server.Set("connections_closed", stats_.connections_closed);
    server.Set("accept_faults", stats_.accept_faults);
    server.Set("read_faults", stats_.read_faults);
    server.Set("frames_received", stats_.frames_received);
    server.Set("frames_sent", stats_.frames_sent);
    server.Set("updates_sent", stats_.updates_sent);
    server.Set("partials_coalesced", stats_.partials_coalesced);
    server.Set("partials_dropped", stats_.partials_dropped);
    server.Set("finals_after_disconnect", stats_.finals_after_disconnect);
    server.Set("slow_client_disconnects", stats_.slow_client_disconnects);
    server.Set("protocol_errors", stats_.protocol_errors);
    server.Set("max_backlog", stats_.max_backlog);
    server.Set("appends_received", stats_.appends_received);
    server.Set("append_rows", stats_.append_rows);
    server.Set("appends_rejected", stats_.appends_rejected);
    server.Set("epochs_published", stats_.epochs_published);
    if (ingestor_ != nullptr && ingestor_->wal() != nullptr) {
      const ingest::WalStats& ws = ingestor_->wal()->stats();
      server.Set("wal_batches_logged", ws.batches_logged);
      server.Set("wal_commits_logged", ws.commits_logged);
      server.Set("wal_syncs", ws.syncs);
      server.Set("wal_bytes", ws.bytes_logged);
      server.Set("wal_rollback_bytes", ws.rollback_bytes);
      server.Set("wal_durable", ingestor_->durable());
    }
    keeper.Set("ingest_admitted", rs.ingest_admitted);
    keeper.Set("ingest_shed", rs.ingest_shed);
    JsonValue reply = JsonValue::Object();
    reply.Set("type", "stats_report");
    reply.Set("scheduler", std::move(scheduler));
    reply.Set("ratekeeper", std::move(keeper));
    reply.Set("server", std::move(server));
    SendMessage(conn, reply);
    return;
  }
  if (type == "ping") {
    JsonValue reply = JsonValue::Object();
    reply.Set("type", "pong");
    reply.Set("id", msg.GetInt("id", 0));
    SendMessage(conn, reply);
    return;
  }
  ++stats_.protocol_errors;
  SendMessage(conn, MakeError(Status::Invalid("unknown message type: " +
                                              (type.empty() ? "<none>" : type))));
}

void Server::HandleInteraction(Connection* conn, const JsonValue& msg) {
  const int64_t session_id = msg.GetInt("session", -1);
  const int64_t request = msg.GetInt("request", -1);
  auto it = conn->sessions.find(session_id);

  const auto reject = [&](const char* reason, Micros retry_after, int level) {
    JsonValue reply = JsonValue::Object();
    reply.Set("type", "rejected");
    reply.Set("session", session_id);
    reply.Set("request", request);
    reply.Set("reason", reason);
    reply.Set("retry_after_ms", RetryAfterMillis(retry_after));
    reply.Set("degrade_level", level);
    SendMessage(conn, reply);
  };

  if (it == conn->sessions.end()) {
    ++stats_.protocol_errors;
    reject("unknown_session", 0, 0);
    return;
  }

  const AdmitDecision decision =
      ratekeeper_.Admit(conn->tenant, RatekeeperNow(), Backlog());
  if (!decision.admitted()) {
    reject(decision.reason, decision.retry_after, decision.degrade_level);
    return;
  }

  auto interaction = workflow::Interaction::FromJson(msg.Get("interaction"));
  if (!interaction.ok()) {
    ++stats_.protocol_errors;
    reject("invalid_interaction", 0, 0);
    return;
  }
  auto batch =
      it->second->SubmitInteraction(*interaction, decision.budget_scale);
  if (!batch.ok()) {
    // Submission-time refusal (closed session, resolve failure): still
    // an explicit rejection, never a dropped request.
    reject("submit_failed", 0, decision.degrade_level);
    return;
  }

  int live = 0;
  JsonValue queries = JsonValue::Array();
  for (const session::SubmittedQuery& sq : *batch) {
    JsonValue q = JsonValue::Object();
    q.Set("query", sq.query_id);
    q.Set("viz", sq.spec.viz_name);
    q.Set("unsupported", sq.unsupported);
    queries.Append(std::move(q));
    if (sq.unsupported) continue;  // already terminal, never live
    ++live;
    streams_[sq.query_id] =
        QueryStream{decision.update_interval, /*last_partial=*/-1};
  }
  ratekeeper_.OnAdmitted(live);

  JsonValue reply = JsonValue::Object();
  reply.Set("type", "submitted");
  reply.Set("session", session_id);
  reply.Set("request", request);
  reply.Set("degrade_level", decision.degrade_level);
  reply.Set("budget_scale", decision.budget_scale);
  reply.Set("queries", std::move(queries));
  SendMessage(conn, reply);
}

void Server::HandleAppend(Connection* conn, const JsonValue& msg) {
  const int64_t request = msg.GetInt("request", -1);
  ++stats_.appends_received;

  const auto reject = [&](const char* reason, Micros retry_after, int level) {
    ++stats_.appends_rejected;
    JsonValue reply = JsonValue::Object();
    reply.Set("type", "rejected");
    reply.Set("request", request);
    reply.Set("reason", reason);
    reply.Set("retry_after_ms", RetryAfterMillis(retry_after));
    reply.Set("degrade_level", level);
    SendMessage(conn, reply);
  };

  if (ingestor_ == nullptr) {
    reject("no_ingestor", 0, 0);
    return;
  }
  // Ingest is the lowest-priority traffic class: shed at any degradation
  // level, so query quality never pays for fresh rows.
  const AdmitDecision decision = ratekeeper_.AdmitIngest(Backlog());
  if (!decision.admitted()) {
    reject(decision.reason, decision.retry_after, decision.degrade_level);
    return;
  }

  // rows: [[field, ...], ...] — every field a wire string in fact-schema
  // column order, the same text contract as CSV load.
  const JsonValue& rows = msg.Get("rows");
  ingest::RowBatch batch;
  if (rows.is_array()) {
    batch.rows.reserve(rows.size());
    for (size_t r = 0; r < rows.size(); ++r) {
      const JsonValue& row = rows.at(r);
      if (!row.is_array()) {
        ++stats_.protocol_errors;
        reject("invalid_rows", 0, 0);
        return;
      }
      std::vector<std::string> fields;
      fields.reserve(row.size());
      for (size_t f = 0; f < row.size(); ++f) {
        const JsonValue& field = row.at(f);
        if (!field.is_string()) {
          ++stats_.protocol_errors;
          reject("invalid_rows", 0, 0);
          return;
        }
        fields.push_back(field.AsString());
      }
      batch.rows.push_back(std::move(fields));
    }
  } else if (!rows.is_null()) {
    ++stats_.protocol_errors;
    reject("invalid_rows", 0, 0);
    return;
  }

  // HandleMessage runs on the loop thread with no engine call in flight,
  // so applying here honors the Ingestor's single-writer protocol.
  // All-or-nothing: a failed append stages nothing.
  if (!batch.empty()) {
    const Status st = ingestor_->Append(batch);
    if (!st.ok()) {
      const char* reason =
          st.code() == StatusCode::kResourceExhausted ? "ingest_capacity"
          : st.code() == StatusCode::kIoError         ? "ingest_fault"
                                                      : "invalid_rows";
      reject(reason, options_.ratekeeper.reject_retry_after, 0);
      return;
    }
    stats_.append_rows += batch.size();
  }

  bool published = false;
  if (msg.GetBool("publish", false)) {
    const int64_t before = ingestor_->visible_rows();
    auto watermark = ingestor_->Publish();
    // A failed publish (injected fault) is not a failed append: the rows
    // are staged and a later publish picks them up.  The reply reports
    // published=false so the client can retry the publish alone.
    published = watermark.ok() && *watermark > before;
    if (published) ++stats_.epochs_published;
  }

  JsonValue reply = JsonValue::Object();
  reply.Set("type", "appended");
  reply.Set("request", request);
  reply.Set("staged", ingestor_->staged_rows());
  reply.Set("watermark", ingestor_->visible_rows());
  reply.Set("published", published);
  // Durability report: true when a WAL is attached and everything logged
  // so far is fsynced — i.e. the rows in this reply would survive a
  // crash right now.  Volatile ingestors always report false; a grouped
  // sync policy reports false between group boundaries.
  reply.Set("durable", ingestor_->durable());
  SendMessage(conn, reply);
}

Status Server::AdvanceScheduler() {
  if (options_.wall_pacing) {
    // Chase the wall clock, at most max_catchup per pass so a deep
    // backlog can never wedge the socket loop inside AdvanceTo.
    const Micros now = manager_->VirtualNow();
    const Micros target =
        std::min(wall_now_, now + std::max<Micros>(1, options_.max_catchup));
    if (target > now) IDB_RETURN_NOT_OK(manager_->AdvanceTo(target));
    return Status::OK();
  }
  if (manager_->HasLive()) {
    IDB_RETURN_NOT_OK(
        manager_->AdvanceTo(manager_->VirtualNow() + options_.virtual_step));
  }
  return Status::OK();
}

void Server::OnUpdate(Connection* conn,
                      const session::ProgressiveUpdate& update) {
  if (update.final_update) {
    // The ratekeeper's live count tracks admitted queries to their
    // terminal update, whatever path delivered it.
    if (streams_.erase(update.query_id) > 0) ratekeeper_.OnFinalized(1);
    if (conn->dead) {
      // The client is gone; its admitted queries still finalize.  This
      // is the one place a terminal update misses the wire, and it is
      // counted, never silent.
      ++stats_.finals_after_disconnect;
      return;
    }
    EnqueueUpdate(conn, update);
    return;
  }
  if (conn->dead) return;  // partials to a gone client are worthless

  // Degraded cadence: at level > 0 a query streams at most one partial
  // per update_interval of virtual time.
  auto sit = streams_.find(update.query_id);
  if (sit != streams_.end() && sit->second.update_interval > 0 &&
      sit->second.last_partial >= 0 &&
      update.virtual_time - sit->second.last_partial <
          sit->second.update_interval) {
    ++stats_.partials_dropped;
    return;
  }

  // Coalescing: a queued, not-yet-sent partial for the same query is
  // replaced in place — a slow client sees the newest snapshot, and the
  // queue never grows because of one chatty query.  A front frame that
  // is partly written is never touched; an unwritten one may already be
  // encoded, so its bytes are cleared for FlushWrites to encode anew.
  const size_t first = conn->front_written == 0 ? 0 : 1;
  for (size_t i = conn->write_queue.size(); i-- > first;) {
    QueuedFrame& pending = conn->write_queue[i];
    if (pending.query_id == update.query_id && !pending.final_update) {
      pending.update = update;
      pending.bytes.clear();
      ++stats_.partials_coalesced;
      if (sit != streams_.end()) sit->second.last_partial = update.virtual_time;
      return;
    }
  }

  if (conn->write_queue.size() >= options_.write_queue_soft_limit) {
    // Soft limit: partials are best effort and shed first.
    ++stats_.partials_dropped;
    return;
  }
  if (sit != streams_.end()) sit->second.last_partial = update.virtual_time;
  EnqueueUpdate(conn, update);
}

void Server::EnqueueUpdate(Connection* conn,
                           const session::ProgressiveUpdate& update) {
  QueuedFrame frame;
  frame.query_id = update.query_id;
  frame.final_update = update.final_update;
  frame.update = update;
  Enqueue(conn, std::move(frame));
}

void Server::Enqueue(Connection* conn, QueuedFrame frame) {
  conn->write_queue.push_back(std::move(frame));
  if (conn->write_queue.size() > options_.write_queue_hard_limit) {
    // Only finals/control frames can breach the hard limit (partials
    // stop at the soft limit): this client cannot even drain terminal
    // updates.  Unbounded buffering is the one thing the server never
    // does — disconnect, explicitly counted; its sessions drain in
    // SweepDead and the remaining finals land in finals_after_disconnect.
    ++stats_.slow_client_disconnects;
    KillConnection(conn);
  }
}

void Server::SendMessage(Connection* conn, const JsonValue& msg) {
  if (conn->dead) return;
  QueuedFrame frame;
  frame.bytes = EncodeFrame(msg);
  Enqueue(conn, std::move(frame));
}

void Server::FlushWrites(Connection* conn) {
  if (conn->write_queue.empty()) return;
  if (chaos::FaultInjector::Fire(chaos::FaultSite::kNetWrite)) {
    // Injected write stall: the socket pretends to be unwritable this
    // pass.  The queue holds (bounded), coalescing absorbs the chatter.
    return;
  }
  while (!conn->write_queue.empty()) {
    QueuedFrame& front = conn->write_queue.front();
    // An update frame is encoded once, here, as it reaches the socket:
    // the partials coalesced away before this point never are.
    if (front.bytes.empty()) {
      front.bytes = EncodeFrame(UpdateToJson(front.update));
    }
    size_t remaining = front.bytes.size() - conn->front_written;
    if (chaos::FaultInjector::Fire(chaos::FaultSite::kNetPartialFrame)) {
      // Injected short write: at most half the frame leaves this pass,
      // exercising reassembly on the peer.
      remaining = std::max<size_t>(1, remaining / 2);
    }
    const ssize_t n = ::send(conn->fd, front.bytes.data() + conn->front_written,
                             remaining, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
      KillConnection(conn);
      return;
    }
    conn->front_written += static_cast<size_t>(n);
    if (conn->front_written < front.bytes.size()) return;  // partial write
    ++stats_.frames_sent;
    if (front.query_id >= 0 || front.final_update) ++stats_.updates_sent;
    conn->write_queue.pop_front();
    conn->front_written = 0;
  }
}

void Server::KillConnection(Connection* conn) {
  // Deferred: sinks may be mid-callback from the manager, so session
  // teardown happens in SweepDead after the pass.
  conn->dead = true;
}

void Server::SweepDead() {
  for (auto& conn : connections_) {
    if (!conn->dead || conn->fd < 0) continue;
    // One best-effort non-blocking flush so a queued error frame (the
    // reason for the kill) can still reach the peer before the close.
    FlushWrites(conn.get());
    // Draining the sessions pushes terminal cancelled updates through
    // the (dead) sink, which counts them explicitly.
    for (auto& [id, session] : conn->sessions) {
      const Status st = manager_->CloseSession(session);
      (void)st;  // idempotent; teardown must not abort the loop
    }
    conn->sessions.clear();
    ::close(conn->fd);
    conn->fd = -1;
    ++stats_.connections_closed;
  }
  connections_.erase(
      std::remove_if(connections_.begin(), connections_.end(),
                     [](const auto& c) { return c->dead; }),
      connections_.end());
}

void Server::CloseAll() {
  for (auto& conn : connections_) {
    if (conn->fd < 0) continue;
    conn->dead = true;
  }
  SweepDead();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

}  // namespace idebench::net
