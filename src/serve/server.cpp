#include "serve/server.h"

#include <chrono>
#include <sstream>
#include <thread>
#include <utility>

#include "serve/net.h"
#include "telemetry/metrics_registry.h"
#include "telemetry/trace.h"

namespace uavres::serve {

using telemetry::EncodeFrame;
using telemetry::RejectReason;
using telemetry::RequestState;
using telemetry::ResultSource;
using telemetry::SpecFrame;
using telemetry::SpecMsgType;
using telemetry::WireRequest;
using telemetry::WireSpec;

namespace {

std::string RejectFrame(std::uint64_t request_id, RejectReason reason,
                        const std::string& detail) {
  return EncodeFrame(SpecMsgType::kReject,
                     telemetry::EncodeReject(request_id, reason, detail));
}

std::string ProgressFrame(std::uint64_t request_id, RequestState state) {
  return EncodeFrame(SpecMsgType::kProgress, telemetry::EncodeProgress(request_id, state));
}

std::string ResultFrame(std::uint64_t request_id, ResultSource source,
                        const std::string& result_bytes) {
  return EncodeFrame(SpecMsgType::kResult,
                     telemetry::EncodeResult(request_id, source, result_bytes));
}

std::string SerializeResult(const core::MissionResult& result) {
  std::ostringstream bytes;
  core::WriteMissionResult(bytes, result);
  return bytes.str();
}

}  // namespace

/// One client connection. The reader thread owns the receive side; result
/// fan-out happens from worker threads, so every send serializes on
/// `write_mutex`. The fd is closed by the last shared_ptr owner — a waiter
/// completing after the peer hung up writes into a shut-down socket (a
/// benign error) rather than a recycled descriptor.
struct Server::Connection {
  std::uint64_t id{0};
  int fd{-1};
  std::mutex write_mutex;
  std::atomic<bool> alive{true};
  std::atomic<bool> reader_done{false};  ///< set as the reader thread exits
  bool hello_done{false};  ///< reader-thread only
  std::string peer_name;   ///< from Hello, for diagnostics

  ~Connection() {
    if (fd >= 0) ::close(fd);
  }
};

/// One in-flight experiment: the spec identity being simulated plus every
/// (connection, request) waiting on it. waiters[0] is the originator that
/// admitted the run; later entries attached via single-flight dedup.
struct Server::Flight {
  struct Waiter {
    std::shared_ptr<Connection> conn;
    std::uint64_t request_id{0};
  };

  std::uint64_t key{0};
  int mission_index{0};
  std::uint64_t seed_base{2024};
  bool recovery{false};
  std::optional<core::FaultSpec> fault;
  std::vector<Waiter> waiters;

  bool IsGold() const { return !fault.has_value(); }
};

Server::Server(ServerConfig cfg)
    : cfg_(std::move(cfg)),
      fleet_(core::SharedValenciaScenario()),
      store_(cfg_.cache_dir) {}

Server::~Server() {
  Stop();
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

bool Server::Start(std::string* error) {
  listen_fd_ = net::Listen(cfg_.host, cfg_.port, &port_, error);
  if (listen_fd_ < 0) return false;
  core::TaskPool::Options pool_opts;
  pool_opts.num_threads = cfg_.num_threads;
  pool_opts.queue_capacity = cfg_.queue_capacity;
  pool_ = std::make_unique<core::TaskPool>(pool_opts);
  return true;
}

void Server::Stop() {
  if (stopping_.exchange(true)) return;
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
}

void Server::Run() {
  // One reader thread per connection. Readers whose peer has gone are
  // joined and dropped on every pass, so a long-lived daemon holds fds and
  // thread stacks only for live connections.
  struct Reader {
    std::shared_ptr<Connection> conn;
    std::thread thread;
  };
  std::vector<Reader> readers;
  std::uint64_t next_conn_id = 1;
  while (!stopping_.load(std::memory_order_acquire)) {
    for (auto it = readers.begin(); it != readers.end();) {
      if (it->conn->reader_done.load(std::memory_order_acquire)) {
        it->thread.join();
        it = readers.erase(it);
      } else {
        ++it;
      }
    }
    const int fd = net::Accept(listen_fd_);
    if (fd < 0) {
      if (stopping_.load(std::memory_order_acquire)) break;
      // Out of descriptors: back off instead of spinning until a peer leaves.
      if (errno == EMFILE || errno == ENFILE) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      continue;  // transient accept failure (EINTR, peer gone mid-handshake)
    }
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    conn->id = next_conn_id++;
    readers.push_back({conn, std::thread([this, conn] { HandleConnection(conn); })});
    UAVRES_COUNT("serve.connections");
  }
  // Drain: admitted work completes and its results reach still-open
  // connections before the daemon exits.
  if (pool_) pool_->Drain();
  for (const auto& r : readers) {
    if (r.conn->alive.load()) ::shutdown(r.conn->fd, SHUT_RDWR);
  }
  for (auto& r : readers) r.thread.join();
}

void Server::SendLocked(Connection& conn, const std::string& frames) {
  if (!conn.alive.load(std::memory_order_acquire)) return;
  if (!net::SendAll(conn.fd, frames.data(), frames.size())) {
    conn.alive.store(false, std::memory_order_release);
  }
}

void Server::Send(const std::shared_ptr<Connection>& conn, const std::string& frames) {
  std::lock_guard<std::mutex> lock(conn->write_mutex);
  SendLocked(*conn, frames);
}

void Server::HandleConnection(const std::shared_ptr<Connection>& conn) {
  telemetry::FrameReader reader;
  char buf[16 * 1024];
  while (conn->alive.load(std::memory_order_acquire)) {
    const ssize_t got = net::RecvSome(conn->fd, buf, sizeof buf);
    if (got <= 0) break;
    if (!reader.Feed(buf, static_cast<std::size_t>(got))) break;
    while (auto frame = reader.Next()) {
      HandleFrame(conn, *frame);
      if (!conn->alive.load(std::memory_order_acquire)) break;
    }
    if (reader.corrupt()) {
      Send(conn, RejectFrame(0, RejectReason::kMalformed, "oversized or corrupt frame"));
      break;
    }
  }
  conn->alive.store(false, std::memory_order_release);
  ::shutdown(conn->fd, SHUT_RDWR);
  conn->reader_done.store(true, std::memory_order_release);
}

void Server::HandleFrame(const std::shared_ptr<Connection>& conn, const SpecFrame& frame) {
  // The handshake must come first: it pins the schema version before any
  // spec can be (mis)interpreted.
  if (!conn->hello_done) {
    std::uint32_t version = 0;
    std::string name;
    if (frame.type != SpecMsgType::kHello ||
        !telemetry::DecodeHello(frame.payload, version, name)) {
      Send(conn, RejectFrame(0, RejectReason::kMalformed, "expected Hello first"));
      conn->alive.store(false, std::memory_order_release);
      return;
    }
    if (version != telemetry::kSpecSchemaVersion) {
      Send(conn, RejectFrame(0, RejectReason::kVersionMismatch,
                             "server speaks spec schema v" +
                                 std::to_string(telemetry::kSpecSchemaVersion)));
      conn->alive.store(false, std::memory_order_release);
      return;
    }
    conn->hello_done = true;
    conn->peer_name = std::move(name);
    Send(conn, EncodeFrame(SpecMsgType::kHelloAck,
                           telemetry::EncodeHelloAck(telemetry::kSpecSchemaVersion)));
    return;
  }

  switch (frame.type) {
    case SpecMsgType::kSubmitBatch:
      HandleSubmit(conn, frame.payload);
      return;
    case SpecMsgType::kStats:
      SendStats(conn);
      return;
    case SpecMsgType::kShutdown:
      if (cfg_.allow_remote_shutdown) {
        UAVRES_COUNT("serve.shutdown-requests");
        Stop();
      } else {
        Send(conn, RejectFrame(0, RejectReason::kBadSpec, "remote shutdown disabled"));
      }
      return;
    default:
      Send(conn, RejectFrame(0, RejectReason::kMalformed, "unexpected message type"));
      conn->alive.store(false, std::memory_order_release);
      return;
  }
}

void Server::HandleSubmit(const std::shared_ptr<Connection>& conn,
                          const std::string& payload) {
  std::vector<WireRequest> batch;
  if (!telemetry::DecodeSubmitBatch(payload, batch)) {
    Send(conn, RejectFrame(0, RejectReason::kMalformed, "undecodable submit batch"));
    conn->alive.store(false, std::memory_order_release);
    return;
  }
  // The whole batch's admission frames, including every result already
  // known, leave in one write. The write lock is held across admission so
  // no worker can send a request's Running or Result before its
  // Queued/Attached frame. Lock order: write_mutex -> flight_mutex_ -> pool
  // and write_mutex -> gold_mutex_; nothing takes them in reverse.
  std::string frames;
  std::lock_guard<std::mutex> lock(conn->write_mutex);
  for (const auto& req : batch) SubmitOne(conn, req, frames);
  SendLocked(*conn, frames);
}

namespace {

/// Wire-spec validation: every enum in range, every number meaningful. The
/// server owns the scenario fleet, so a spec can only name missions by
/// index.
std::string ValidateSpec(const WireSpec& s, std::size_t fleet_size) {
  if (s.mission_index < 0 || static_cast<std::size_t>(s.mission_index) >= fleet_size) {
    return "mission_index out of range";
  }
  if (s.has_fault) {
    if (s.fault_type > static_cast<std::uint8_t>(core::FaultType::kDrift)) {
      return "unknown fault_type";
    }
    if (s.fault_target > static_cast<std::uint8_t>(core::FaultTarget::kImu)) {
      return "unknown fault_target";
    }
    if (!(s.duration_s > 0.0)) return "fault duration must be positive";
    if (!(s.start_time_s >= 0.0)) return "fault start must be >= 0";
    if (!(s.magnitude >= 0.0 && s.magnitude <= 1.0)) {
      return "fault magnitude must be in [0, 1]";
    }
  }
  return {};
}

}  // namespace

void Server::SubmitOne(const std::shared_ptr<Connection>& conn, const WireRequest& req,
                       std::string& frames) {
  UAVRES_COUNT("serve.requests");
  if (const std::string why = ValidateSpec(req.spec, fleet_.size()); !why.empty()) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    UAVRES_COUNT("serve.rejected.bad-spec");
    frames += RejectFrame(req.request_id, RejectReason::kBadSpec, why);
    return;
  }
  if (stopping_.load(std::memory_order_acquire)) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    frames += RejectFrame(req.request_id, RejectReason::kShuttingDown, "daemon is draining");
    return;
  }

  // Resolve the spec's identity key under the exact harness recipe the
  // offline campaign uses (gold runs record their trajectory, faulty runs
  // do not), so server and campaign hit the same store entries.
  api::RunConfig run_cfg = cfg_.run;
  run_cfg.recovery = req.spec.recovery;
  std::optional<core::FaultSpec> fault;
  if (req.spec.has_fault) {
    core::FaultSpec f;
    f.type = static_cast<core::FaultType>(req.spec.fault_type);
    f.target = static_cast<core::FaultTarget>(req.spec.fault_target);
    f.start_time_s = req.spec.start_time_s;
    f.duration_s = req.spec.duration_s;
    f.magnitude = req.spec.magnitude;
    fault = f;
    run_cfg.record_trajectory = false;
  }
  const std::size_t mission = static_cast<std::size_t>(req.spec.mission_index);
  const api::ExperimentSpec espec{fleet_[mission], req.spec.mission_index, fault,
                                  req.spec.seed_base};
  const std::uint64_t key = core::ExperimentCacheKey(run_cfg, espec);

  // Resolution, timed as the request's flight wherever it ends: attach to
  // a flight already open for the key, else answer a known result in this
  // batch's write, else open a flight on the pool.
  UAVRES_TRACE_SCOPE("serve/flight");
  const auto attach_locked = [&] {
    auto it = flights_.find(key);
    if (it == flights_.end()) return false;
    // Single-flight dedup: one run per key; this request rides along.
    it->second->waiters.push_back({conn, req.request_id});
    return true;
  };
  bool attached = false;
  bool overloaded = false;
  for (;;) {
    std::uint64_t retired = 0;
    {
      std::lock_guard<std::mutex> lock(flight_mutex_);
      attached = attach_locked();
      retired = retired_flights_;
    }
    if (attached) break;
    if (const auto known = KnownResult(key, !fault.has_value())) {
      accepted_.fetch_add(1, std::memory_order_relaxed);
      store_hits_.fetch_add(1, std::memory_order_relaxed);
      completed_.fetch_add(1, std::memory_order_relaxed);
      UAVRES_COUNT("serve.admitted");
      UAVRES_COUNT("serve.dedup.store-hits");
      UAVRES_COUNT("serve.completed");
      frames += ProgressFrame(req.request_id, RequestState::kQueued);
      frames += ProgressFrame(req.request_id, RequestState::kRunning);
      frames += ResultFrame(req.request_id, ResultSource::kStoreHit, SerializeResult(*known));
      return;
    }
    std::lock_guard<std::mutex> lock(flight_mutex_);
    attached = attach_locked();
    if (attached) break;
    if (retired_flights_ != retired) continue;  // its result may be known now
    auto flight = std::make_shared<Flight>();
    flight->key = key;
    flight->mission_index = req.spec.mission_index;
    flight->seed_base = req.spec.seed_base;
    flight->recovery = req.spec.recovery;
    flight->fault = fault;
    flight->waiters.push_back({conn, req.request_id});
    flights_.emplace(key, flight);
    // Admission control happens while the flight table is locked so a
    // rejected key is gone before any other client could attach to it.
    if (!pool_->TrySubmit(conn->id, [this, key] { RunFlight(key); })) {
      flights_.erase(key);
      overloaded = true;
    }
    break;
  }
  if (overloaded) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    UAVRES_COUNT("serve.rejected.overload");
    frames += RejectFrame(req.request_id, RejectReason::kRejectedOverload,
                          "admission queue full");
    return;
  }
  accepted_.fetch_add(1, std::memory_order_relaxed);
  if (attached) {
    singleflight_.fetch_add(1, std::memory_order_relaxed);
    UAVRES_COUNT("serve.dedup.singleflight");
    frames += ProgressFrame(req.request_id, RequestState::kAttached);
  } else {
    UAVRES_COUNT("serve.admitted");
    frames += ProgressFrame(req.request_id, RequestState::kQueued);
  }
}

std::optional<core::MissionResult> Server::KnownResult(std::uint64_t key, bool gold) {
  if (!gold) {
    if (auto cached = store_.Load(key)) return std::move(cached->result);
    return std::nullopt;
  }
  // Only the gold cache: a gold reference missing from it may be running
  // under gold_flight_, whose leader sends to connections while it holds it.
  std::lock_guard<std::mutex> lock(gold_mutex_);
  const auto it = gold_cache_.find(key);
  if (it == gold_cache_.end()) return std::nullopt;
  return it->second.result;
}

std::shared_ptr<const telemetry::Trajectory> Server::GoldTrajectory(
    int mission_index, std::uint64_t seed_base, bool recovery,
    core::MissionResult* result_out, const std::function<void()>& before_simulate) {
  api::RunConfig run_cfg = cfg_.run;
  run_cfg.recovery = recovery;
  const std::size_t mission = static_cast<std::size_t>(mission_index);
  const api::ExperimentSpec espec{fleet_[mission], mission_index, std::nullopt,
                                  seed_base};
  const std::uint64_t key = core::ExperimentCacheKey(run_cfg, espec);

  for (;;) {
    {
      std::lock_guard<std::mutex> lock(gold_mutex_);
      auto it = gold_cache_.find(key);
      if (it != gold_cache_.end()) {
        if (result_out) *result_out = it->second.result;
        return it->second.trajectory;
      }
    }
    if (gold_flight_.Begin(key) == core::SingleFlight::Role::kWaited) {
      continue;  // the leader populated (or failed to populate) the cache
    }
    // Leader: fill from the persistent store or simulate the reference run.
    GoldEntry entry;
    if (auto cached = store_.Load(key, /*require_trajectory=*/true)) {
      entry.result = cached->result;
      entry.trajectory = std::make_shared<const telemetry::Trajectory>(
          std::move(*cached->trajectory));
      UAVRES_COUNT("serve.gold.store-hits");
    } else {
      if (before_simulate) before_simulate();
      UAVRES_TRACE_SCOPE("serve/gold-run");
      const api::SimulationRunner runner(run_cfg);
      auto out = runner.Run(espec);
      entry.result = out.result;
      if (store_.enabled()) store_.Store(key, {out.result, out.trajectory});
      entry.trajectory =
          std::make_shared<const telemetry::Trajectory>(std::move(out.trajectory));
      gold_computed_.fetch_add(1, std::memory_order_relaxed);
      UAVRES_COUNT("serve.gold.computed");
    }
    {
      std::lock_guard<std::mutex> lock(gold_mutex_);
      gold_cache_.emplace(key, entry);
    }
    gold_flight_.Finish(key);
    if (result_out) *result_out = entry.result;
    return entry.trajectory;
  }
}

void Server::RunFlight(std::uint64_t key) {
  UAVRES_TRACE_SCOPE("serve/flight");
  std::shared_ptr<Flight> flight;
  {
    std::lock_guard<std::mutex> lock(flight_mutex_);
    auto it = flights_.find(key);
    if (it == flights_.end()) return;  // cannot happen; defensive
    flight = it->second;
  }
  // Running is announced only when the flight is about to simulate, to
  // everyone attached so far; later attachers already know they are riding
  // along. A gold flight resolved from the store or the gold cache instead
  // sends Running together with its Result, one write per waiter.
  bool announced = false;
  const auto announce_running = [&] {
    std::vector<Flight::Waiter> now;
    {
      std::lock_guard<std::mutex> lock(flight_mutex_);
      now = flight->waiters;
    }
    for (const auto& w : now) {
      Send(w.conn, ProgressFrame(w.request_id, RequestState::kRunning));
    }
    announced = true;
  };

  api::RunConfig run_cfg = cfg_.run;
  run_cfg.recovery = flight->recovery;
  ResultSource lead_source = ResultSource::kComputed;
  core::MissionResult result;

  if (flight->IsGold()) {
    const std::uint64_t before = gold_computed_.load(std::memory_order_relaxed);
    GoldTrajectory(flight->mission_index, flight->seed_base, flight->recovery, &result,
                   announce_running);
    lead_source = gold_computed_.load(std::memory_order_relaxed) > before
                      ? ResultSource::kComputed
                      : ResultSource::kStoreHit;
    if (lead_source == ResultSource::kStoreHit) {
      store_hits_.fetch_add(1, std::memory_order_relaxed);
      UAVRES_COUNT("serve.dedup.store-hits");
    }
  } else {
    run_cfg.record_trajectory = false;
    const std::size_t mission = static_cast<std::size_t>(flight->mission_index);
    api::ExperimentSpec espec{fleet_[mission], flight->mission_index, flight->fault,
                              flight->seed_base};
    // Admission found no store entry; one written since (by another
    // process) is recomputed to the same bytes and renamed over atomically.
    announce_running();
    // Bubble violations are counted against the mission's gold reference —
    // resolved through the gold cache so N dependent faulty runs trigger at
    // most one reference simulation.
    const auto gold = GoldTrajectory(flight->mission_index, flight->seed_base,
                                     flight->recovery, nullptr);
    espec.gold = gold.get();
    UAVRES_TRACE_SCOPE("serve/faulty-run");
    const api::SimulationRunner runner(run_cfg);
    thread_local uav::RunOutput scratch;
    runner.RunInto(espec, scratch);
    result = scratch.result;
    if (store_.enabled()) store_.Store(key, {result, std::nullopt});
    computed_.fetch_add(1, std::memory_order_relaxed);
    UAVRES_COUNT("serve.computed");
  }

  const std::string result_bytes = SerializeResult(result);

  // Retire the flight first, then fan out: a submit that misses the table
  // after this point finds the result at admission (in the gold cache, or
  // in the store when one is configured).
  std::vector<Flight::Waiter> waiters;
  {
    std::lock_guard<std::mutex> lock(flight_mutex_);
    flights_.erase(key);
    ++retired_flights_;
    waiters = std::move(flight->waiters);
  }
  for (std::size_t i = 0; i < waiters.size(); ++i) {
    const ResultSource source = i == 0 ? lead_source : ResultSource::kSingleFlight;
    // Count before the send: a client that receives this result and
    // immediately queries stats must see it reflected.
    completed_.fetch_add(1, std::memory_order_relaxed);
    UAVRES_COUNT("serve.completed");
    std::string frames;
    if (!announced) frames = ProgressFrame(waiters[i].request_id, RequestState::kRunning);
    frames += ResultFrame(waiters[i].request_id, source, result_bytes);
    Send(waiters[i].conn, frames);
  }
}

void Server::SendStats(const std::shared_ptr<Connection>& conn) {
  std::ostringstream json;
  telemetry::MetricsRegistry::Global().WriteJson(json);
  Send(conn, EncodeFrame(SpecMsgType::kStatsReply,
                         telemetry::EncodeStatsReply(stats(), json.str())));
}

telemetry::ServeStats Server::stats() const {
  telemetry::ServeStats s;
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.computed = computed_.load(std::memory_order_relaxed);
  s.store_hits = store_hits_.load(std::memory_order_relaxed);
  s.singleflight = singleflight_.load(std::memory_order_relaxed);
  s.gold_computed = gold_computed_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace uavres::serve
