// Serve daemon integration tests, all over real loopback sockets:
//
//   * single-flight dedup — N clients submitting the identical spec cause
//     exactly ONE simulation, N byte-identical results, and one store entry,
//   * admission control — a full queue rejects with kRejectedOverload and
//     never deadlocks the accepted work, while results already known (the
//     store, the gold cache) are answered at admission without the pool,
//   * the versioned handshake — a schema-skewed client is refused before
//     any spec is interpreted,
//   * byte-identity — a served result equals the offline library run,
//   * per-request frame order — Queued|Attached -> Running -> Result, never
//     anything after the terminal frame,
//   * transport — warm hits answer without a Nagle/delayed-ACK stall, and
//     closed connections release their descriptors.
#include "serve/server.h"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <map>
#include <optional>
#include <regex>
#include <set>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "serve/client.h"
#include "serve/net.h"

namespace uavres::serve {
namespace {

namespace fs = std::filesystem;
using telemetry::RejectReason;
using telemetry::SpecMsgType;
using telemetry::WireSpec;

std::string MakeCacheDir(const char* tag) {
  const std::string dir = ::testing::TempDir() + "uavres_serve_" + tag;
  fs::remove_all(dir);
  return dir;
}

WireSpec FaultySpec(int mission, std::uint8_t type = 3 /*kRandom*/,
                    double duration_s = 10.0) {
  WireSpec s;
  s.mission_index = mission;
  s.seed_base = 2024;
  s.has_fault = true;
  s.fault_type = type;
  s.fault_target = 2;  // kImu
  s.start_time_s = 90.0;
  s.duration_s = duration_s;
  s.magnitude = 1.0;
  return s;
}

WireSpec GoldSpec(int mission) {
  WireSpec s;
  s.mission_index = mission;
  s.seed_base = 2024;
  return s;
}

/// Eight distinct, quick specs: mission 0's gold run plus one 2 s fault of
/// each of the seven types.
std::vector<WireSpec> EightSpecs() {
  std::vector<WireSpec> specs{GoldSpec(0)};
  for (std::uint8_t type = 0; type < 7; ++type) specs.push_back(FaultySpec(0, type, 2.0));
  return specs;
}

/// Server on an ephemeral port with its accept loop on a background thread.
class TestServer {
 public:
  explicit TestServer(ServerConfig cfg) : server_(std::move(FixPort(cfg))) {
    std::string err;
    if (!server_.Start(&err)) {
      ADD_FAILURE() << "server start failed: " << err;
      return;
    }
    thread_ = std::thread([this] { server_.Run(); });
  }

  ~TestServer() {
    server_.Stop();
    if (thread_.joinable()) thread_.join();
  }

  Server& operator*() { return server_; }
  Server* operator->() { return &server_; }
  std::uint16_t port() { return server_.port(); }

 private:
  static ServerConfig FixPort(ServerConfig cfg) {
    cfg.port = 0;  // ephemeral; tests read it back
    return cfg;
  }
  Server server_;
  std::thread thread_;
};

Client::Options ClientOpts(std::uint16_t port, const std::string& name) {
  Client::Options o;
  o.port = port;
  o.name = name;
  return o;
}

TEST(ServeServer, SingleFlightNClientsOneSimulationOneStoreEntry) {
  ServerConfig cfg;
  cfg.cache_dir = MakeCacheDir("singleflight");
  cfg.num_threads = 1;  // serialize workers so overlapping submits share a flight
  TestServer server(cfg);

  // Four clients race the SAME spec, each submitting it twice in one batch
  // (the second copy lands while the first is still in flight, so at least
  // one attach is deterministic even if the clients themselves don't race).
  constexpr int kClients = 4;
  const WireSpec spec = FaultySpec(0);
  std::vector<std::vector<Client::Outcome>> outcomes(kClients);
  std::vector<std::string> errors(kClients);
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        Client client(ClientOpts(server.port(), "race-" + std::to_string(c)));
        if (!client.Connect(&errors[c])) return;
        client.SubmitAndWait({spec, spec}, outcomes[c], &errors[c]);
      });
    }
    for (auto& t : threads) t.join();
  }

  std::set<std::string> distinct_results;
  std::size_t ok = 0;
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(errors[c], "");
    for (const auto& o : outcomes[c]) {
      EXPECT_TRUE(o.ok);
      if (o.ok) {
        ++ok;
        distinct_results.insert(o.result_bytes);
      }
    }
  }
  ASSERT_EQ(ok, static_cast<std::size_t>(kClients) * 2);
  // N clients, N*2 requests, ONE result — byte-identical everywhere.
  EXPECT_EQ(distinct_results.size(), 1u);

  const auto stats = server->stats();
  EXPECT_EQ(stats.computed, 1u) << "identical specs must simulate exactly once";
  EXPECT_EQ(stats.gold_computed, 1u) << "one gold reference for the shared mission";
  EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(ok));
  EXPECT_GE(stats.singleflight, 1u) << "same-batch duplicate must attach, not rerun";

  // The store holds exactly the gold + the faulty entry; the key was
  // committed once (no duplicate or leftover temp files).
  int files = 0;
  for (const auto& e : fs::recursive_directory_iterator(cfg.cache_dir)) {
    files += e.is_regular_file() ? 1 : 0;
  }
  EXPECT_EQ(files, 2);
}

TEST(ServeServer, BackpressureRejectsOverloadWithoutDeadlock) {
  ServerConfig cfg;
  cfg.num_threads = 1;
  cfg.queue_capacity = 1;  // one admitted run at a time
  TestServer server(cfg);

  // Eight DISTINCT specs in one batch: the first is admitted, and while it
  // simulates the rest must bounce with kRejectedOverload immediately —
  // never queue unboundedly, never block the connection.
  std::vector<WireSpec> specs;
  for (int i = 0; i < 8; ++i) {
    specs.push_back(FaultySpec(i % 4, /*type=*/static_cast<std::uint8_t>(i % 7),
                               /*duration_s=*/2.0 + i));
  }
  Client client(ClientOpts(server.port(), "overload"));
  std::string err;
  ASSERT_TRUE(client.Connect(&err)) << err;
  std::vector<Client::Outcome> outcomes;
  ASSERT_TRUE(client.SubmitAndWait(specs, outcomes, &err)) << err;  // terminates: no deadlock

  std::size_t ok = 0, overloaded = 0;
  for (const auto& o : outcomes) {
    if (o.ok) {
      ++ok;
    } else {
      EXPECT_EQ(o.reject, RejectReason::kRejectedOverload) << o.reject_detail;
      ++overloaded;
    }
  }
  EXPECT_EQ(ok + overloaded, specs.size());
  EXPECT_GE(ok, 1u) << "the admitted run must still complete";
  EXPECT_GE(overloaded, 1u) << "a full queue must produce overload rejects";

  const auto stats = server->stats();
  EXPECT_EQ(stats.rejected, static_cast<std::uint64_t>(overloaded));
  EXPECT_EQ(stats.accepted, static_cast<std::uint64_t>(ok));

  // The daemon is still healthy after shedding load. The worker may not
  // have released its capacity slot the instant the last result arrived,
  // so admission can transiently refuse — poll briefly.
  bool recovered = false;
  for (int attempt = 0; attempt < 100 && !recovered; ++attempt) {
    std::vector<Client::Outcome> retry;
    ASSERT_TRUE(client.SubmitAndWait({FaultySpec(0)}, retry, &err)) << err;
    ASSERT_EQ(retry.size(), 1u);
    recovered = retry[0].ok;
    if (!recovered) {
      EXPECT_EQ(retry[0].reject, RejectReason::kRejectedOverload);
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  EXPECT_TRUE(recovered) << "daemon did not recover admission after overload";
}

TEST(ServeServer, SchemaVersionMismatchIsRejectedAtHandshake) {
  TestServer server(ServerConfig{});

  std::string err;
  const int fd = net::Connect("127.0.0.1", server.port(), &err);
  ASSERT_GE(fd, 0) << err;
  const std::string hello = telemetry::EncodeFrame(
      telemetry::SpecMsgType::kHello,
      telemetry::EncodeHello(telemetry::kSpecSchemaVersion + 1, "time-traveler"));
  ASSERT_TRUE(net::SendAll(fd, hello.data(), hello.size()));

  telemetry::FrameReader reader;
  char buf[4096];
  std::optional<telemetry::SpecFrame> frame;
  while (!frame) {
    const ssize_t got = net::RecvSome(fd, buf, sizeof buf);
    ASSERT_GT(got, 0) << "connection closed without a reject frame";
    ASSERT_TRUE(reader.Feed(buf, static_cast<std::size_t>(got)));
    frame = reader.Next();
  }
  ASSERT_EQ(frame->type, telemetry::SpecMsgType::kReject);
  std::uint64_t id = 0;
  RejectReason reason = RejectReason::kNone;
  std::string detail;
  ASSERT_TRUE(telemetry::DecodeReject(frame->payload, id, reason, detail));
  EXPECT_EQ(reason, RejectReason::kVersionMismatch);
  // The server then drops the connection: EOF, not a hung socket.
  EXPECT_EQ(net::RecvSome(fd, buf, sizeof buf), 0);
  ::close(fd);

  // A correctly versioned client on the same daemon still handshakes.
  Client good(ClientOpts(server.port(), "current"));
  EXPECT_TRUE(good.Connect(&err)) << err;
}

TEST(ServeServer, BadSpecIsRejectedWithoutKillingTheBatch) {
  TestServer server(ServerConfig{});
  Client client(ClientOpts(server.port(), "mixed"));
  std::string err;
  ASSERT_TRUE(client.Connect(&err)) << err;

  WireSpec bad = FaultySpec(0);
  bad.mission_index = 99;  // out of range
  std::vector<Client::Outcome> outcomes;
  ASSERT_TRUE(client.SubmitAndWait({bad, FaultySpec(1, /*type=*/0, 2.0)}, outcomes,
                                   &err))
      << err;
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_FALSE(outcomes[0].ok);
  EXPECT_EQ(outcomes[0].reject, RejectReason::kBadSpec);
  EXPECT_TRUE(outcomes[1].ok) << "valid spec must survive a bad sibling";
}

/// The offline recipe the daemon must reproduce bit-for-bit: gold reference
/// with the default harness, faulty run without trajectory recording.
/// Returns the serialized MissionResult of `wire`.
std::string OfflineResultBytes(const WireSpec& wire) {
  const auto& fleet = core::SharedValenciaScenario();
  const auto& drone = fleet[static_cast<std::size_t>(wire.mission_index)];
  const api::RunConfig run_cfg;
  const api::SimulationRunner gold_runner(run_cfg);
  const auto gold = gold_runner.Run({drone, wire.mission_index, std::nullopt, wire.seed_base});
  core::MissionResult result = gold.result;
  if (wire.has_fault) {
    core::FaultSpec fault;
    fault.type = static_cast<core::FaultType>(wire.fault_type);
    fault.target = static_cast<core::FaultTarget>(wire.fault_target);
    fault.start_time_s = wire.start_time_s;
    fault.duration_s = wire.duration_s;
    fault.magnitude = wire.magnitude;
    api::RunConfig faulty_cfg = run_cfg;
    faulty_cfg.record_trajectory = false;
    const api::SimulationRunner faulty_runner(faulty_cfg);
    result = faulty_runner
                 .Run({drone, wire.mission_index, fault, wire.seed_base, &gold.trajectory})
                 .result;
  }
  std::ostringstream os;
  core::WriteMissionResult(os, result);
  return os.str();
}

TEST(ServeServer, ServedResultIsByteIdenticalToOfflineRun) {
  TestServer server(ServerConfig{});
  const WireSpec wire = FaultySpec(2, /*type=*/1 /*kZeros*/, 5.0);

  Client client(ClientOpts(server.port(), "verify"));
  std::string err;
  ASSERT_TRUE(client.Connect(&err)) << err;
  std::vector<Client::Outcome> outcomes;
  ASSERT_TRUE(client.SubmitAndWait({wire}, outcomes, &err)) << err;
  ASSERT_EQ(outcomes.size(), 1u);
  ASSERT_TRUE(outcomes[0].ok);
  EXPECT_EQ(outcomes[0].result_bytes, OfflineResultBytes(wire));
}

TEST(ServeServer, StatsRequestReportsCountersAndMetrics) {
  TestServer server(ServerConfig{});
  Client client(ClientOpts(server.port(), "stats"));
  std::string err;
  ASSERT_TRUE(client.Connect(&err)) << err;
  std::vector<Client::Outcome> outcomes;
  ASSERT_TRUE(client.SubmitAndWait({FaultySpec(0)}, outcomes, &err)) << err;

  telemetry::ServeStats stats;
  std::string metrics_json;
  ASSERT_TRUE(client.QueryStats(stats, metrics_json, &err)) << err;
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_FALSE(metrics_json.empty());
  EXPECT_NE(metrics_json.find("serve."), std::string::npos)
      << "serve counters missing from the metrics registry dump";
}

/// A raw-socket client (no serve::Client in between) that records, per
/// request id, the frames the daemon sent as a string: Q(ueued),
/// A(ttached), R(unning), D (Result) and X (Reject).
class FrameRecorder {
 public:
  explicit FrameRecorder(std::uint16_t port) {
    fd_ = net::Connect("127.0.0.1", port, &error_);
    if (fd_ < 0) return;
    Write(SpecMsgType::kHello,
          telemetry::EncodeHello(telemetry::kSpecSchemaVersion, "recorder"));
    telemetry::SpecFrame frame;
    if (Read(frame) && frame.type != SpecMsgType::kHelloAck) error_ = "handshake refused";
  }
  ~FrameRecorder() {
    if (fd_ >= 0) ::close(fd_);
  }
  FrameRecorder(const FrameRecorder&) = delete;
  FrameRecorder& operator=(const FrameRecorder&) = delete;

  /// Submits `specs` as one batch and reads until every request is terminal.
  void SubmitBatch(const std::vector<WireSpec>& specs) {
    std::vector<telemetry::WireRequest> batch;
    std::set<std::uint64_t> pending;
    for (const auto& spec : specs) {
      batch.push_back({next_id_, spec});
      pending.insert(next_id_++);
    }
    Write(SpecMsgType::kSubmitBatch, telemetry::EncodeSubmitBatch(batch));
    while (!pending.empty() && error_.empty()) {
      telemetry::SpecFrame frame;
      if (!Read(frame)) return;
      if (const auto done = Record(frame)) pending.erase(*done);
    }
  }

  /// Round-trips a Stats request, so every frame the daemon sent before the
  /// reply is recorded.
  void Flush() {
    Write(SpecMsgType::kStats, std::string());
    telemetry::SpecFrame frame;
    while (error_.empty() && Read(frame) && frame.type != SpecMsgType::kStatsReply) {
      Record(frame);
    }
  }

  const std::string& error() const { return error_; }
  const std::map<std::uint64_t, std::string>& sequences() const { return sequences_; }
  /// Result source and serialized MissionResult per request id.
  const std::map<std::uint64_t, std::pair<telemetry::ResultSource, std::string>>& results()
      const {
    return results_;
  }

 private:
  void Write(SpecMsgType type, const std::string& payload) {
    const std::string frame = telemetry::EncodeFrame(type, payload);
    if (error_.empty() && !net::SendAll(fd_, frame.data(), frame.size())) {
      error_ = "send failed";
    }
  }

  bool Read(telemetry::SpecFrame& frame) {
    char buf[16 * 1024];
    for (;;) {
      if (auto next = reader_.Next()) {
        frame = std::move(*next);
        return true;
      }
      const ssize_t got = net::RecvSome(fd_, buf, sizeof buf);
      if (got <= 0 || !reader_.Feed(buf, static_cast<std::size_t>(got))) {
        error_ = "connection lost";
        return false;
      }
    }
  }

  /// Appends the frame's letter to its request; returns the id when the
  /// frame is terminal.
  std::optional<std::uint64_t> Record(const telemetry::SpecFrame& frame) {
    std::uint64_t id = 0;
    switch (frame.type) {
      case SpecMsgType::kProgress: {
        telemetry::RequestState state{};
        if (!telemetry::DecodeProgress(frame.payload, id, state)) break;
        sequences_[id] += state == telemetry::RequestState::kQueued     ? 'Q'
                          : state == telemetry::RequestState::kAttached ? 'A'
                                                                        : 'R';
        return std::nullopt;
      }
      case SpecMsgType::kResult: {
        telemetry::ResultSource source{};
        std::string bytes;
        if (!telemetry::DecodeResult(frame.payload, id, source, bytes)) break;
        sequences_[id] += 'D';
        results_[id] = {source, std::move(bytes)};
        return id;
      }
      case SpecMsgType::kReject: {
        RejectReason reason{};
        std::string detail;
        if (!telemetry::DecodeReject(frame.payload, id, reason, detail)) break;
        sequences_[id] += 'X';
        return id;
      }
      default:
        return std::nullopt;
    }
    error_ = "undecodable frame";
    return std::nullopt;
  }

  int fd_{-1};
  std::string error_;
  telemetry::FrameReader reader_;
  std::uint64_t next_id_{1};
  std::map<std::uint64_t, std::string> sequences_;
  std::map<std::uint64_t, std::pair<telemetry::ResultSource, std::string>> results_;
};

/// Exactly one Queued|Attached (or a lone Reject), at most one Running
/// after it, and exactly one terminal frame, which comes last.
void ExpectWellOrdered(const std::map<std::uint64_t, std::string>& sequences,
                       std::size_t requests) {
  static const std::regex kOrder("[QA]R?D|X");
  EXPECT_EQ(sequences.size(), requests);
  for (const auto& [id, seq] : sequences) {
    EXPECT_TRUE(std::regex_match(seq, kOrder)) << "request " << id << " got " << seq;
  }
}

TEST(ServeServer, PerRequestFrameOrderHolds) {
  ServerConfig cfg;
  cfg.cache_dir = MakeCacheDir("frame_order");
  TestServer server(cfg);
  const std::vector<WireSpec> specs = EightSpecs();

  // Cold batch with every spec twice: the second copy is admitted while the
  // first is still simulating, so it attaches (single-flight).
  FrameRecorder cold(server.port());
  ASSERT_EQ(cold.error(), "");
  std::vector<WireSpec> doubled = specs;
  doubled.insert(doubled.end(), specs.begin(), specs.end());
  cold.SubmitBatch(doubled);
  cold.Flush();
  ASSERT_EQ(cold.error(), "");
  ExpectWellOrdered(cold.sequences(), doubled.size());
  std::size_t attached = 0;
  for (const auto& [id, seq] : cold.sequences()) attached += seq.front() == 'A' ? 1 : 0;
  EXPECT_EQ(attached, specs.size());

  // Warm rounds from two connections at once: every flight is a store hit,
  // so workers race the connection's own admission frames. Each batch also
  // repeats two specs, which attach whenever their twin is still in flight.
  constexpr int kClients = 2;
  constexpr int kRounds = 150;
  std::vector<std::unique_ptr<FrameRecorder>> warm;
  for (int c = 0; c < kClients; ++c) {
    warm.push_back(std::make_unique<FrameRecorder>(server.port()));
    ASSERT_EQ(warm.back()->error(), "");
  }
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      for (int round = 0; round < kRounds; ++round) {
        std::vector<WireSpec> batch;
        for (std::size_t i = 0; i < specs.size(); ++i) {
          batch.push_back(specs[(i + static_cast<std::size_t>(round + c)) % specs.size()]);
        }
        batch.push_back(batch[0]);
        batch.push_back(batch[1]);
        warm[c]->SubmitBatch(batch);
      }
      warm[c]->Flush();
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& recorder : warm) {
    ASSERT_EQ(recorder->error(), "");
    ExpectWellOrdered(recorder->sequences(), kRounds * (specs.size() + 2));
    for (const auto& [id, seq] : recorder->sequences()) {
      EXPECT_NE(seq.back(), 'X') << "warm request " << id << " was rejected";
    }
  }
}

TEST(ServeServer, WarmStoreHitsDoNotStall) {
  ServerConfig cfg;
  cfg.cache_dir = MakeCacheDir("warm_stall");
  TestServer server(cfg);
  Client client(ClientOpts(server.port(), "warm"));
  std::string err;
  ASSERT_TRUE(client.Connect(&err)) << err;
  const std::vector<WireSpec> specs = EightSpecs();
  std::vector<Client::Outcome> outcomes;
  ASSERT_TRUE(client.SubmitAndWait(specs, outcomes, &err)) << err;  // fills the store

  // A Nagle / delayed-ACK stall costs ~40 ms per batch (50 batches ~2 s);
  // without it a warm batch is a few hundred microseconds.
  constexpr int kBatches = 50;
  const auto t0 = std::chrono::steady_clock::now();
  for (int b = 0; b < kBatches; ++b) {
    ASSERT_TRUE(client.SubmitAndWait(specs, outcomes, &err)) << err;
    for (const auto& o : outcomes) {
      ASSERT_TRUE(o.ok);
      EXPECT_EQ(o.source, telemetry::ResultSource::kStoreHit);
    }
  }
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  EXPECT_LT(elapsed_s, 1.0) << kBatches << " warm batches of " << specs.size();
}

/// Submits `spec` alone until the daemon admits it: a worker frees its
/// pool slot only after it has sent the previous result.
Client::Outcome SubmitUntilAdmitted(Client& client, const WireSpec& spec) {
  std::vector<Client::Outcome> out;
  for (int attempt = 0; attempt < 500; ++attempt) {
    std::string err;
    if (!client.SubmitAndWait({spec}, out, &err) || out.size() != 1) {
      ADD_FAILURE() << "submit failed: " << err;
      return {};
    }
    if (out[0].ok || out[0].reject != RejectReason::kRejectedOverload) return out[0];
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ADD_FAILURE() << "the daemon never admitted the spec";
  return out[0];
}

TEST(ServeServer, WarmHitsAnsweredWhilePoolIsFull) {
  ServerConfig cfg;
  cfg.cache_dir = MakeCacheDir("warm_full_pool");
  cfg.num_threads = 1;
  cfg.queue_capacity = 1;
  TestServer server(cfg);
  Client warm(ClientOpts(server.port(), "warm"));
  std::string err;
  ASSERT_TRUE(warm.Connect(&err)) << err;
  const std::vector<WireSpec> specs = EightSpecs();
  for (const auto& spec : specs) ASSERT_TRUE(SubmitUntilAdmitted(warm, spec).ok);

  // A cold spec of another mission (its gold reference, then a 30 s fault)
  // takes the only pool slot; the warm batch arrives while it simulates.
  const std::uint64_t accepted_before = server->stats().accepted;
  Client::Outcome cold_outcome;
  std::thread cold([&] {
    Client client(ClientOpts(server.port(), "cold"));
    std::string cold_err;
    if (client.Connect(&cold_err)) {
      cold_outcome = SubmitUntilAdmitted(client, FaultySpec(3, /*type=*/3, 30.0));
    }
  });
  for (int i = 0; i < 10000 && server->stats().accepted == accepted_before; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::vector<Client::Outcome> outcomes;
  const bool sent = warm.SubmitAndWait(specs, outcomes, &err);
  cold.join();
  ASSERT_TRUE(sent) << err;
  EXPECT_TRUE(cold_outcome.ok);
  ASSERT_EQ(outcomes.size(), specs.size());
  for (const auto& o : outcomes) {
    EXPECT_TRUE(o.ok) << "request " << o.request_id << " rejected: " << o.reject_detail;
    EXPECT_NE(o.reject, RejectReason::kRejectedOverload);
    EXPECT_EQ(o.source, telemetry::ResultSource::kStoreHit);
  }
}

TEST(ServeServer, MixedBatchAnswersKnownResultsAndQueuesMisses) {
  ServerConfig cfg;
  cfg.cache_dir = MakeCacheDir("mixed_batch");
  cfg.num_threads = 1;
  TestServer server(cfg);
  const WireSpec stored = FaultySpec(0, /*type=*/0, 2.0);
  const WireSpec cold = FaultySpec(0, /*type=*/1, 2.0);
  {
    // Puts `stored` in the store and mission 0's gold reference in the gold
    // cache.
    FrameRecorder warmup(server.port());
    warmup.SubmitBatch({stored});
    ASSERT_EQ(warmup.error(), "");
  }

  // A store hit, a gold-cache hit, a miss and the miss again.
  const std::vector<WireSpec> batch{stored, GoldSpec(0), cold, cold};
  FrameRecorder recorder(server.port());
  recorder.SubmitBatch(batch);
  recorder.Flush();
  ASSERT_EQ(recorder.error(), "");
  const auto& seq = recorder.sequences();
  ASSERT_EQ(seq.size(), batch.size());
  EXPECT_EQ(seq.at(1), "QRD");
  EXPECT_EQ(seq.at(2), "QRD");
  EXPECT_EQ(seq.at(3), "QRD");
  EXPECT_TRUE(std::regex_match(seq.at(4), std::regex("AR?D"))) << seq.at(4);

  using telemetry::ResultSource;
  const ResultSource expected[] = {ResultSource::kStoreHit, ResultSource::kStoreHit,
                                   ResultSource::kComputed, ResultSource::kSingleFlight};
  const auto& results = recorder.results();
  ASSERT_EQ(results.size(), batch.size());
  for (std::uint64_t id = 1; id <= batch.size(); ++id) {
    EXPECT_EQ(results.at(id).first, expected[id - 1]) << "request " << id;
    EXPECT_EQ(results.at(id).second, OfflineResultBytes(batch[id - 1])) << "request " << id;
  }

  // Warm-up: `stored` and mission 0's gold computed; batch: two hits at
  // admission, one simulation with one attached rider.
  const auto stats = server->stats();
  EXPECT_EQ(stats.computed, 2u);
  EXPECT_EQ(stats.gold_computed, 1u);
  EXPECT_EQ(stats.store_hits, 2u);
  EXPECT_EQ(stats.singleflight, 1u);
  EXPECT_EQ(stats.completed, 5u);
}

std::size_t OpenFdCount() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& e : fs::directory_iterator("/proc/self/fd")) ++n;
  return n;
}

TEST(ServeServer, ClosedConnectionsReleaseTheirDescriptors) {
  TestServer server(ServerConfig{});
  std::string err;
  {
    Client first(ClientOpts(server.port(), "first"));
    ASSERT_TRUE(first.Connect(&err)) << err;
  }
  const std::size_t before = OpenFdCount();
  for (int i = 0; i < 300; ++i) {
    Client client(ClientOpts(server.port(), "churn"));
    ASSERT_TRUE(client.Connect(&err)) << err;
  }
  // The daemon reaps a finished connection on its next accept, so only the
  // last few (whose reader had not exited yet) may still hold a descriptor.
  EXPECT_LE(OpenFdCount(), before + 16);
}

}  // namespace
}  // namespace uavres::serve
