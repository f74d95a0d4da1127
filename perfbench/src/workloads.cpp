// The three benchmark workloads: the paper's campaign grid, a convoy fleet
// and a warm serve daemon. Each one times a set-up phase several times,
// then passes of a fixed amount of work for --seconds, then checks what
// the work produced. A pass's work depends only on the seed, so the exact
// counts of one seed repeat pass after pass and run after run.

#include <algorithm>
#include <cmath>
#include <map>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>

#include "common.h"
#include "core/api.h"
#include "core/stats.h"
#include "serve/client.h"
#include "serve/server.h"
#include "telemetry/trace.h"
#include "uspace/fleet_experiment.h"

namespace perfbench {
namespace {

using namespace uavres;
namespace fs = std::filesystem;

/// Set-up samples; the report carries every sample and run.py reports
/// their median. A sample is the mean of a batch of back-to-back set-ups
/// (each timed on its own, clean-up excluded), so the µs-scale set-ups of
/// campaign and fleet are not lost in clock and scheduler noise. The
/// host's speed shifts from one second to the next, and samples taken
/// within one second all see one speed, so campaign and fleet take theirs
/// before the first pass and after every pass, over the whole run like the
/// passes; serve_warm, which has one long pass, takes all of them first.
constexpr int kServeSetupSamples = 41;
constexpr int kCampaignSetupSamplesPerGap = 8;  ///< 3-6 gaps per 25 s run
constexpr int kFleetSetupSamplesPerGap = 1;     ///< about 20 gaps per 25 s run

/// Campaign grid: the first mission of the paper's scenario (1 gold + 84
/// faulty runs per pass).
constexpr int kCampaignMissions = 1;

/// Fleet: a convoy of 32 drones (two full 16-lane groups), 100 m legs,
/// drone 16 carrying a 30 s accelerometer fault. A pass takes about a
/// second, so a run has a median over some twenty of them.
constexpr int kFleetDrones = 32;
constexpr double kFleetLegM = 100.0;
/// The timed fleet passes run on one worker. Every tracking interval ends
/// in a barrier across the groups, and on the 4-vCPU development VM a
/// second busy vCPU drew 12-17% steal from the host against about 1% for
/// one: at 2 workers the barrier turned that into a 28-42% run-to-run
/// spread in drone-steps/s, at 1 worker it stayed within 4%. Thread
/// scaling is measured in the traced run (uspace.fleet.thread_speedup).
constexpr int kFleetWorkers = 1;

/// Serve: two closed-loop clients, batches of 8.
constexpr int kServeClients = 2;
constexpr int kServeBatch = 8;
constexpr int kServeRequestsPerSecond = 320;
constexpr int kStatsRoundTrips = 50;

const std::vector<std::string> kCampaignLedger = {
    "sim.steps",           "sim.runs",          "sim.outcome.completed",
    "sim.outcome.crashed", "sim.outcome.failsafe", "sim.outcome.timeout",
    "ekf.predicts",        "cache.stores"};
const std::vector<std::string> kFleetLedger = {
    "uspace.fleet.drone_steps", "uspace.fleet.intervals",
    "uspace.conflict.pairs_evaluated", "uspace.fleet.relaunches"};
const std::vector<std::string> kServeLedger = {
    "serve.requests", "serve.completed", "serve.dedup.store-hits", "serve.computed",
    "cache.hits", "cache.misses"};

/// Appends `samples` set-up samples, 40 ms apart, to `out`.
template <class SetupFn>
void TimeSetup(int batch, int samples, SetupFn&& one_setup, std::vector<double>& out) {
  for (int k = 0; k < samples; ++k) {
    if (k > 0) std::this_thread::sleep_for(std::chrono::milliseconds(40));
    double total = 0.0;
    for (int b = 0; b < batch; ++b) total += one_setup();
    out.push_back(total / batch);
  }
}

/// Runs passes back to back for about --seconds: the next pass starts only
/// if, taking as long as the last one, at least half of it falls within
/// --seconds of the first one's start. At least one pass.
template <class PassFn>
void ForSeconds(const Options& opt, PassFn&& one_pass) {
  const double t0 = NowS();
  double last_s = 0.0;
  do {
    const double p0 = NowS();
    one_pass();
    last_s = NowS() - p0;
  } while (NowS() - t0 + last_s / 2 <= opt.seconds);
}

std::string Serialize(const core::MissionResult& r) {
  std::ostringstream os;
  core::WriteMissionResult(os, r);
  return os.str();
}

std::string SerializeEntry(std::uint64_t key, const core::StoredRun& run) {
  std::ostringstream os;
  core::WriteStoredRun(os, key, run);
  return os.str();
}

std::string FreshDir(const Options& opt, const std::string& name) {
  const fs::path dir = fs::path(opt.work_dir) / name;
  fs::remove_all(dir);
  return dir.string();
}

core::CampaignConfig CampaignCfg(const Options& opt, int missions, int threads,
                                 const std::string& cache_dir) {
  return core::CampaignConfig::Builder()
      .SeedBase(opt.seed)
      .Missions(missions)
      .Threads(threads)
      .Batch(1)
      .CacheDir(cache_dir)
      .Build();
}

/// Store keys of a campaign's grid, in CampaignResults order (gold per
/// mission, then the mission-major faulty grid) — the recipe Campaign::Run
/// and the serve daemon both use.
struct GridKeys {
  std::vector<std::uint64_t> gold;
  std::vector<std::uint64_t> faulty;
  std::vector<uav::ExperimentSpec> gold_specs;
  std::vector<uav::ExperimentSpec> faulty_specs;
};

GridKeys KeysOf(const core::Campaign& campaign, const core::CampaignConfig& cfg) {
  GridKeys k;
  uav::RunConfig faulty_run = cfg.run;
  faulty_run.record_trajectory = false;
  const auto grid = campaign.GridFaults();
  const auto& fleet = campaign.fleet();
  for (std::size_t m = 0; m < fleet.size(); ++m) {
    k.gold_specs.push_back({fleet[m], static_cast<int>(m), std::nullopt, cfg.seed_base});
    k.gold.push_back(core::ExperimentCacheKey(cfg.run, k.gold_specs.back()));
  }
  for (std::size_t m = 0; m < fleet.size(); ++m) {
    for (const auto& f : grid) {
      k.faulty_specs.push_back({fleet[m], static_cast<int>(m), f, cfg.seed_base});
      k.faulty.push_back(core::ExperimentCacheKey(faulty_run, k.faulty_specs.back()));
    }
  }
  return k;
}

/// Fingerprint of a whole campaign's output, gold trajectories included.
std::uint64_t Fingerprint(const core::CampaignResults& r) {
  std::uint64_t h = Fnv1a("");
  for (std::size_t i = 0; i < r.gold.size(); ++i) {
    h = Fnv1a(SerializeEntry(0, {r.gold[i], r.gold_trajectories[i]}), h);
  }
  for (const auto& f : r.faulty) h = Fnv1a(Serialize(f), h);
  return h;
}

/// Per-run wall latency from the campaign's progress callback. Workers run
/// grid jobs back to back, so the time between one worker's consecutive
/// completions is that run's latency (its first run counts from the start
/// of the pass).
struct RunLatencies {
  double t0{NowS()};
  std::mutex mutex;
  std::map<std::thread::id, double> last_done;
  std::vector<double> ms;

  void OnComplete() {
    const double now = NowS();
    std::lock_guard<std::mutex> lock(mutex);
    auto it = last_done.try_emplace(std::this_thread::get_id(), t0).first;
    ms.push_back((now - it->second) * 1e3);
    it->second = now;
  }
};

struct CampaignPass {
  double wall_s{0.0};
  double steps{0.0};  ///< simulated control steps of all runs (sim.steps)
  std::vector<double> run_ms;
  std::uint64_t fingerprint{0};
  Json ledger;
  double entry_bytes_mean{0.0};
};

/// One timed Campaign::Run into a fresh, empty store, then the checks:
/// grid-sized output, every result valid, every Store committed, every
/// entry reloading byte-equal to the in-memory result.
CampaignPass CampaignOnce(const Options& opt, const std::string& store_dir, Checks& checks) {
  const core::CampaignConfig cfg = CampaignCfg(opt, kCampaignMissions, opt.workers, store_dir);
  const core::Campaign campaign(cfg);
  const GridKeys keys = KeysOf(campaign, cfg);
  const std::size_t expected = keys.gold.size() + keys.faulty.size();
  // The paper's grid: per mission, 1 gold + 7 types x 3 targets x 4 durations.
  checks.Require(expected == static_cast<std::size_t>(kCampaignMissions) *
                                 (1 + core::kAllFaultTypes.size() * core::kAllFaultTargets.size() *
                                          core::kInjectionDurations.size()),
                 "campaign: grid is not the paper's 85 runs per mission");

  telemetry::MetricsRegistry::Global().ResetValues();
  RunLatencies lat;
  const core::CampaignResults results =
      campaign.Run([&](std::size_t, std::size_t) { lat.OnComplete(); });
  CampaignPass pass;
  pass.wall_s = NowS() - lat.t0;
  pass.steps = static_cast<double>(Counters()["sim.steps"]);
  pass.run_ms = std::move(lat.ms);
  pass.ledger = Ledger(kCampaignLedger);
  pass.fingerprint = Fingerprint(results);

  // Missing or invalid results.
  std::uint64_t invalid = 0;
  const auto grid = campaign.GridFaults();
  if (results.gold.size() != keys.gold.size() || results.faulty.size() != keys.faulty.size()) {
    checks.Ops(expected, expected, "campaign: result count differs from the grid size");
    return pass;
  }
  for (std::size_t i = 0; i < results.gold.size(); ++i) {
    const auto& g = results.gold[i];
    if (!g.is_gold || g.mission_index != static_cast<int>(i) ||
        results.gold_trajectories[i].Empty()) {
      ++invalid;
    }
  }
  for (std::size_t j = 0; j < results.faulty.size(); ++j) {
    const auto& f = results.faulty[j];
    const auto& want = grid[j % grid.size()];
    if (f.is_gold || f.mission_index != static_cast<int>(j / grid.size()) ||
        f.fault.type != want.type || f.fault.target != want.target ||
        f.fault.duration_s != want.duration_s || !std::isfinite(f.flight_duration_s)) {
      ++invalid;
    }
  }
  checks.Ops(expected, invalid, "campaign: missing or invalid results");
  checks.Ops(0, expected - std::min<std::uint64_t>(expected, results.cache.stores),
             "campaign: ResultStore::Store returned false");

  // Reload from the store the campaign committed to.
  core::ResultStore reader(store_dir);
  std::uint64_t mismatched = 0;
  double entry_bytes = 0.0;
  for (std::size_t i = 0; i < keys.gold.size(); ++i) {
    const auto loaded = reader.Load(keys.gold[i], /*require_trajectory=*/true);
    const core::StoredRun mem{results.gold[i], results.gold_trajectories[i]};
    if (!loaded || SerializeEntry(keys.gold[i], *loaded) != SerializeEntry(keys.gold[i], mem)) {
      ++mismatched;
    }
  }
  for (std::size_t j = 0; j < keys.faulty.size(); ++j) {
    const auto loaded = reader.Load(keys.faulty[j]);
    if (!loaded || loaded->trajectory || Serialize(loaded->result) != Serialize(results.faulty[j])) {
      ++mismatched;
    }
  }
  for (const auto* group : {&keys.gold, &keys.faulty}) {
    for (std::uint64_t key : *group) {
      std::error_code ec;
      entry_bytes += static_cast<double>(fs::file_size(reader.EntryPath(key), ec));
    }
  }
  pass.entry_bytes_mean = entry_bytes / static_cast<double>(expected);
  checks.Ops(0, mismatched, "campaign: store entry does not reload byte-equal");
  checks.Require(pass.steps > 0.0, "campaign: no simulation steps counted");
  return pass;
}

Json PassJson(double wall_s, double ops, const std::vector<double>& op_ms,
              const Json& ledger, std::uint64_t fingerprint) {
  Json j;
  j.Set("wall_s", Num(wall_s))
      .Set("ops", Num(ops))
      .Set("op_ms", Array(op_ms))
      .Set("ledger", ledger)
      .Set("fingerprint", Str(Hex(fingerprint)));
  return j;
}

std::string JoinPasses(const std::vector<Json>& passes) {
  std::string out = "[";
  for (std::size_t i = 0; i < passes.size(); ++i) {
    if (i) out += ',';
    out += passes[i].str();
  }
  return out + "]";
}

/// Requires every pass of a workload to have done exactly the same work.
void RequireSameWork(const std::vector<std::string>& ledgers,
                     const std::vector<std::uint64_t>& fingerprints, const std::string& name,
                     Checks& checks) {
  for (std::size_t i = 1; i < ledgers.size(); ++i) {
    checks.Require(ledgers[i] == ledgers[0], name + ": work ledger differs between passes");
    checks.Require(fingerprints[i] == fingerprints[0],
                   name + ": results differ between passes");
  }
}

}  // namespace

// --- campaign ---------------------------------------------------------------

std::uint64_t RunCampaign(const Options& opt, bool traced, Json& out, Checks& checks) {
  // Set-up: scenario build and campaign construction. The store itself is
  // created by Campaign::Run, inside the timed pass.
  const std::string store_dir = (fs::path(opt.work_dir) / "campaign_store").string();
  std::vector<double> setup;
  auto time_setup = [&] {
    TimeSetup(400, kCampaignSetupSamplesPerGap, [&] {
      const double t0 = NowS();
      const auto fleet = core::BuildValenciaScenario();
      const core::Campaign campaign(CampaignCfg(opt, kCampaignMissions, opt.workers, store_dir));
      const double t = NowS() - t0;
      checks.Require(!fleet.empty() && !campaign.fleet().empty(), "campaign: set-up failed");
      return t;
    }, setup);
  };
  time_setup();

  std::vector<Json> pass_json;
  std::vector<std::string> ledgers;
  std::vector<std::uint64_t> fingerprints;
  double entry_bytes_mean = 0.0;
  double peak_rss_mb = 0.0;
  auto one_pass = [&] {
    const std::string dir = FreshDir(opt, "campaign_store");
    if (traced) telemetry::TraceRecorder::Global().Enable();
    CampaignPass pass = CampaignOnce(opt, dir, checks);
    if (traced) {
      telemetry::TraceRecorder::Global().Disable();
      WriteTrace(opt, "campaign");
    }
    fs::remove_all(dir);
    ledgers.push_back(pass.ledger.str());
    fingerprints.push_back(pass.fingerprint);
    entry_bytes_mean = pass.entry_bytes_mean;
    pass_json.push_back(
        PassJson(pass.wall_s, pass.steps, pass.run_ms, pass.ledger, pass.fingerprint));
    if (pass_json.size() == 1) peak_rss_mb = PeakRssMiB();
  };
  if (traced) {
    one_pass();
  } else {
    ForSeconds(opt, [&] {
      one_pass();
      time_setup();
    });
  }
  RequireSameWork(ledgers, fingerprints, "campaign", checks);
  out.Set("setup_s", Array(setup))
      .Set("workers", Num(opt.workers))
      .Set("missions", Num(kCampaignMissions))
      .Set("passes", JoinPasses(pass_json))
      .Set("peak_rss_mb", Num(peak_rss_mb))
      .Set("entry_bytes_mean", Num(entry_bytes_mean));
  return fingerprints.back();
}

// --- fleet ------------------------------------------------------------------

namespace {

core::FleetExperimentSpec FleetSpec(const Options& opt) {
  core::FleetExperimentSpec spec;
  spec.scenario = core::FleetScenario::kConvoy;
  spec.num_drones = kFleetDrones;
  spec.leg_length_m = kFleetLegM;
  core::FaultSpec fault;
  fault.target = core::FaultTarget::kAccelerometer;
  fault.type = core::FaultType::kFixed;
  fault.duration_s = 30.0;
  spec.fault = fault;
  spec.faulted_drone = kFleetDrones / 2;
  spec.seed_base = opt.seed;
  return spec;
}

uspace::FleetExecutionKnobs FleetKnobs(int threads) {
  uspace::FleetExecutionKnobs knobs;
  knobs.num_threads = threads;
  knobs.batch_size = uav::BatchedUav::kMaxLanes;
  knobs.broadphase = uspace::BroadphaseMode::kUniformGrid;
  return knobs;
}

/// Per-drone outcomes and durations plus every conflict event, bit-exact.
std::uint64_t Fingerprint(const uspace::FleetRunOutput& out) {
  std::ostringstream os;
  os.precision(17);
  for (const auto& d : out.drones) {
    os << d.drone_id << ' ' << static_cast<int>(d.outcome) << ' ' << d.flight_duration_s
       << ' ' << d.launch_time_s << ';';
  }
  for (const auto& e : out.events) {
    os << e.drone_a << ' ' << e.drone_b << ' ' << e.start_time << ' ' << e.end_time << ' '
       << e.min_separation_m << ' ' << static_cast<int>(e.severity) << ';';
  }
  os << out.conflicts.conflicts << ' ' << out.conflicts.alerts << ' '
     << out.conflicts.pairs_evaluated << ' ' << out.conflicts.pairs_culled;
  return Fnv1a(os.str());
}

struct FleetPass {
  double wall_s{0.0};
  double drone_steps{0.0};
  std::uint64_t fingerprint{0};
  Json ledger;
  uspace::ConflictStats conflicts;
  std::size_t drones{0};
};

FleetPass FleetOnce(const Options& opt, int threads, Checks& checks) {
  const core::FleetExperimentSpec spec = FleetSpec(opt);
  const auto fleet = uspace::BuildFleetScenario(spec);
  const auto cfg = uspace::MakeFleetRunConfig(spec, FleetKnobs(threads));
  telemetry::MetricsRegistry::Global().ResetValues();
  const double t0 = NowS();
  const uspace::FleetRunOutput run = uspace::FleetRunner(cfg).Run(fleet, spec.seed_base);
  FleetPass pass;
  pass.wall_s = NowS() - t0;
  pass.ledger = Ledger(kFleetLedger);
  pass.drone_steps = static_cast<double>(Counters()["uspace.fleet.drone_steps"]);
  pass.fingerprint = Fingerprint(run);
  pass.conflicts = run.conflicts;
  pass.drones = run.drones.size();
  std::uint64_t missing = 0;
  if (run.drones.size() != fleet.size()) {
    missing = fleet.size();
  } else {
    for (std::size_t i = 0; i < run.drones.size(); ++i) {
      const auto& d = run.drones[i];
      if (d.drone_id != static_cast<int>(i) || !std::isfinite(d.flight_duration_s) ||
          d.flight_duration_s <= 0.0) {
        ++missing;
      }
    }
  }
  checks.Ops(fleet.size(), missing, "fleet: missing or invalid drone results");
  checks.Require(pass.drone_steps > 0.0, "fleet: no drone steps counted");
  return pass;
}

}  // namespace

std::uint64_t RunFleet(const Options& opt, bool traced, Json& out, Checks& checks) {
  std::vector<double> setup;
  auto time_setup = [&] {
    TimeSetup(400, kFleetSetupSamplesPerGap, [&] {
      const double t0 = NowS();
      const core::FleetExperimentSpec spec = FleetSpec(opt);
      const auto fleet = uspace::BuildFleetScenario(spec);
      const auto cfg = uspace::MakeFleetRunConfig(spec, FleetKnobs(kFleetWorkers));
      const double t = NowS() - t0;
      checks.Require(fleet.size() == static_cast<std::size_t>(kFleetDrones) &&
                         cfg.batch_size == uav::BatchedUav::kMaxLanes,
                     "fleet: set-up failed");
      return t;
    }, setup);
  };
  time_setup();

  std::vector<Json> pass_json;
  std::vector<std::string> ledgers;
  std::vector<std::uint64_t> fingerprints;
  std::uint64_t fingerprint = 0;
  double peak_rss_mb = 0.0;
  if (traced) {
    // The traced run: the timed configuration, then the same fleet on
    // opt.workers workers, whose wall ratio exposes the serial boundary
    // phase and the barrier at the end of every interval.
    auto& rec = telemetry::TraceRecorder::Global();
    rec.Enable();
    FleetPass one = FleetOnce(opt, kFleetWorkers, checks);
    rec.Disable();
    WriteTrace(opt, "fleet");
    rec.Enable();
    FleetPass many = FleetOnce(opt, opt.workers, checks);
    rec.Disable();
    WriteTrace(opt, "fleet_" + std::to_string(opt.workers) + "workers");
    checks.Require(one.fingerprint == many.fingerprint && one.ledger.str() == many.ledger.str(),
                   "fleet: runs on different worker counts differ");
    out.Set("thread_speedup", Num(one.wall_s / many.wall_s))
        .Set("pairs_evaluated", Num(one.conflicts.pairs_evaluated))
        .Set("pairs_culled", Num(one.conflicts.pairs_culled))
        .Set("lanes_provisioned",
             Num(((one.drones + uav::BatchedUav::kMaxLanes - 1) / uav::BatchedUav::kMaxLanes) *
                 uav::BatchedUav::kMaxLanes))
        .Set("steps_per_interval", Num(std::lround(FleetSpec(opt).tracking_interval_s *
                                                   uav::UavConfig{}.control_rate_hz)));
    pass_json.push_back(PassJson(one.wall_s, one.drone_steps, {one.wall_s * 1e3}, one.ledger,
                                 one.fingerprint));
    fingerprint = one.fingerprint;
  } else {
    FleetOnce(opt, kFleetWorkers, checks);  // warm-up: first-touch allocations
    ForSeconds(opt, [&] {
      FleetPass pass = FleetOnce(opt, kFleetWorkers, checks);
      ledgers.push_back(pass.ledger.str());
      fingerprints.push_back(pass.fingerprint);
      pass_json.push_back(PassJson(pass.wall_s, pass.drone_steps, {pass.wall_s * 1e3},
                                   pass.ledger, pass.fingerprint));
      if (pass_json.size() == 1) peak_rss_mb = PeakRssMiB();
      time_setup();
    });
    RequireSameWork(ledgers, fingerprints, "fleet", checks);
    fingerprint = fingerprints.front();
  }
  out.Set("setup_s", Array(setup))
      .Set("workers", Num(kFleetWorkers))
      .Set("drones", Num(kFleetDrones))
      .Set("passes", JoinPasses(pass_json))
      .Set("peak_rss_mb", Num(peak_rss_mb));
  return fingerprint;
}

// --- serve_warm ---------------------------------------------------------------

namespace {

/// The experiment universe the warm store holds: one mission's grid,
/// computed once per process through the offline campaign path.
struct Universe {
  std::vector<telemetry::WireSpec> specs;
  std::vector<std::uint64_t> keys;
  std::vector<core::StoredRun> entries;
  std::vector<std::string> bytes;  ///< offline serialization per spec
};

Universe BuildUniverse(const Options& opt) {
  // opt.workers, not nproc: the build's thread stacks stay cached after it,
  // and the serving peak starts from that resident size.
  const core::CampaignConfig cfg = CampaignCfg(opt, kCampaignMissions, opt.workers, "");
  const core::Campaign campaign(cfg);
  const core::CampaignResults results = campaign.Run();
  const GridKeys keys = KeysOf(campaign, cfg);
  Universe u;
  auto add = [&](const uav::ExperimentSpec& s, std::uint64_t key, core::StoredRun run) {
    telemetry::WireSpec w;
    w.mission_index = s.mission_index;
    w.seed_base = s.seed_base;
    w.has_fault = s.fault.has_value();
    if (s.fault) {
      w.fault_type = static_cast<std::uint8_t>(s.fault->type);
      w.fault_target = static_cast<std::uint8_t>(s.fault->target);
      w.start_time_s = s.fault->start_time_s;
      w.duration_s = s.fault->duration_s;
      w.magnitude = s.fault->magnitude;
    }
    u.specs.push_back(w);
    u.keys.push_back(key);
    u.bytes.push_back(Serialize(run.result));
    u.entries.push_back(std::move(run));
  };
  for (std::size_t i = 0; i < keys.gold.size(); ++i) {
    add(keys.gold_specs[i], keys.gold[i], {results.gold[i], results.gold_trajectories[i]});
  }
  for (std::size_t j = 0; j < keys.faulty.size(); ++j) {
    add(keys.faulty_specs[j], keys.faulty[j], {results.faulty[j], std::nullopt});
  }
  return u;
}

/// Fills a fresh store with every universe entry; returns the Store calls
/// that failed.
std::uint64_t Populate(const Universe& u, const std::string& dir) {
  core::ResultStore store(dir);
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < u.keys.size(); ++i) {
    if (!store.Store(u.keys[i], u.entries[i])) ++failed;
  }
  return failed;
}

/// A started daemon and its accept loop.
struct WarmServer {
  std::unique_ptr<serve::Server> server;
  std::thread loop;

  WarmServer() = default;
  WarmServer(const WarmServer&) = delete;
  WarmServer& operator=(const WarmServer&) = delete;
  ~WarmServer() { Stop(); }
  bool Start(const Options& opt, const std::string& dir, std::string* err) {
    serve::ServerConfig cfg;
    cfg.host = "127.0.0.1";
    cfg.port = 0;
    cfg.num_threads = opt.workers;
    cfg.cache_dir = dir;
    cfg.allow_remote_shutdown = false;
    server = std::make_unique<serve::Server>(cfg);
    if (!server->Start(err)) {
      server.reset();
      return false;
    }
    serve::Server* s = server.get();
    loop = std::thread([s] { s->Run(); });
    return true;
  }
  void Stop() {
    if (server) server->Stop();
    if (loop.joinable()) loop.join();
    server.reset();
  }
};

struct ClientTally {
  std::vector<double> latency_ms;
  std::uint64_t ok{0};
  std::uint64_t bad{0};  ///< rejected, unanswered, mismatched or not a store hit
  std::string error;
};

/// One closed-loop client: cycles over its own share of the universe
/// (every kServeClients-th spec from `client`), so two clients never race
/// for one key and every request is a plain store hit. Sends a batch, waits
/// for all of its results, checks each against the offline bytes.
void ClosedLoop(const Universe& u, int client, int requests, serve::Client* conn,
                ClientTally& t) {
  std::vector<std::size_t> mine;
  for (std::size_t i = static_cast<std::size_t>(client); i < u.specs.size(); i += kServeClients) {
    mine.push_back(i);
  }
  std::size_t cursor = 0;
  for (int sent = 0; sent < requests; sent += kServeBatch) {
    std::vector<telemetry::WireSpec> batch;
    std::vector<std::size_t> index;
    for (int b = 0; b < kServeBatch; ++b) {
      index.push_back(mine[cursor]);
      batch.push_back(u.specs[mine[cursor]]);
      cursor = (cursor + 1) % mine.size();
    }
    std::vector<serve::Client::Outcome> outcomes;
    if (!conn->SubmitAndWait(batch, outcomes, &t.error)) {
      t.bad += static_cast<std::uint64_t>(requests - sent);
      return;
    }
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (i >= outcomes.size()) {
        ++t.bad;
        continue;
      }
      const auto& o = outcomes[i];
      t.latency_ms.push_back(o.latency_ms);
      const bool good = o.ok && o.result_bytes == u.bytes[index[i]] &&
                        o.source == telemetry::ResultSource::kStoreHit;
      ++(good ? t.ok : t.bad);
    }
  }
}

/// Cost of framing and unframing the workload's own results as Result
/// frames (one traced span per loop).
Json CodecProbe(const Universe& u, Checks& checks) {
  constexpr int kRounds = 200;
  std::vector<std::string> frames(u.bytes.size());
  const double e0 = NowS();
  {
    UAVRES_TRACE_SCOPE("probe/telemetry/result_encode");
    for (int r = 0; r < kRounds; ++r) {
      for (std::size_t i = 0; i < u.bytes.size(); ++i) {
        frames[i] = telemetry::EncodeResult(i, telemetry::ResultSource::kStoreHit, u.bytes[i]);
      }
    }
  }
  const double e1 = NowS();
  std::uint64_t decode_bad = 0;
  {
    UAVRES_TRACE_SCOPE("probe/telemetry/result_decode");
    std::uint64_t id = 0;
    telemetry::ResultSource src{};
    std::string bytes;
    for (int r = 0; r < kRounds; ++r) {
      for (std::size_t i = 0; i < frames.size(); ++i) {
        if (!telemetry::DecodeResult(frames[i], id, src, bytes) || id != i) ++decode_bad;
      }
    }
  }
  const double e2 = NowS();
  checks.Ops(0, decode_bad, "serve: result frame does not decode");
  double bytes_sum = 0.0;
  for (const auto& f : frames) bytes_sum += static_cast<double>(f.size());
  const double calls = static_cast<double>(kRounds) * static_cast<double>(frames.size());
  Json codec;
  codec.Set("encode_us", Num((e1 - e0) * 1e6 / calls))
      .Set("decode_us", Num((e2 - e1) * 1e6 / calls))
      .Set("result_bytes_mean", Num(bytes_sum / static_cast<double>(frames.size())));
  return codec;
}

}  // namespace

std::uint64_t RunServeWarm(const Options& opt, bool traced, Json& out, Checks& checks) {
  const double tu = NowS();
  const Universe u = BuildUniverse(opt);
  const double universe_s = NowS() - tu;

  // Populating the store is timed on its own, not as set-up: it is a burst
  // of file creations whose cost on ext4 drifts several-fold from run to run
  // (README.md, "Set-up time"), which would swamp the set-up bound.
  const std::string dir = FreshDir(opt, "serve_store");
  const double p0 = NowS();
  checks.Ops(0, Populate(u, dir), "serve: ResultStore::Store returned false");
  const double populate_s = NowS() - p0;

  // peak_rss_mb covers serving, not the offline universe build before it.
  checks.Require(ResetPeakRss(), "serve: cannot reset the peak resident size");

  // Set-up: server construction and start over the warm store. Each sample
  // replaces the previous server; the last one serves the load.
  WarmServer ws;
  std::string start_error;
  std::vector<double> setup;
  TimeSetup(1, kServeSetupSamples, [&] {
    ws.Stop();
    if (!start_error.empty()) return 0.0;
    const double t0 = NowS();
    ws.Start(opt, dir, &start_error);
    return NowS() - t0;
  }, setup);
  if (!ws.server) {
    checks.Require(false, "serve: server start failed: " + start_error);
    fs::remove_all(dir);
    return 0;
  }

  // A traced pass serves a fixed 10 s worth of requests: it attributes
  // time, it does not set the headline.
  constexpr int kRound = kServeClients * kServeBatch;
  const double seconds = traced ? 10.0 : opt.seconds;
  const int total = std::max(
      kRound, static_cast<int>(std::lround(seconds * kServeRequestsPerSecond)) / kRound * kRound);
  const int per_client = total / kServeClients;
  std::vector<ClientTally> tallies(kServeClients);
  std::vector<std::unique_ptr<serve::Client>> clients;
  for (int c = 0; c < kServeClients; ++c) {
    serve::Client::Options copts;
    copts.port = ws.server->port();
    copts.name = "perfbench-" + std::to_string(c);
    clients.push_back(std::make_unique<serve::Client>(copts));
    std::string err;
    if (!clients.back()->Connect(&err)) {
      checks.Ops(static_cast<std::uint64_t>(total), static_cast<std::uint64_t>(total),
                 "serve: connect failed: " + err);
      fs::remove_all(dir);
      return 0;
    }
  }
  telemetry::MetricsRegistry::Global().ResetValues();
  auto& rec = telemetry::TraceRecorder::Global();
  if (traced) rec.Enable();
  const double t0 = NowS();
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < kServeClients; ++c) {
      threads.emplace_back([&, c] {
        ClientTally& t = tallies[static_cast<std::size_t>(c)];
        try {
          ClosedLoop(u, c, per_client, clients[static_cast<std::size_t>(c)].get(), t);
        } catch (const std::exception& e) {
          t.error = e.what();
        }
      });
    }
    for (auto& th : threads) th.join();
  }
  const double wall_s = NowS() - t0;
  const double peak_rss_mb = PeakRssMiB();
  const Json ledger = Ledger(kServeLedger);

  // The daemon's own accounting, and (traced) round trips of a Stats
  // request on the now idle connection: one frame each way.
  std::vector<double> rtt_us;
  telemetry::ServeStats stats;
  std::string metrics_json, err;
  for (int i = 0; i < (traced ? kStatsRoundTrips : 1); ++i) {
    const double s0 = NowS();
    if (!clients[0]->QueryStats(stats, metrics_json, &err)) {
      checks.Require(false, "serve: stats query failed: " + err);
      break;
    }
    rtt_us.push_back((NowS() - s0) * 1e6);
  }
  if (traced) out.Set("codec", CodecProbe(u, checks));
  if (traced) rec.Disable();
  for (auto& c : clients) c->Close();
  ws.Stop();
  fs::remove_all(dir);
  if (traced) WriteTrace(opt, "serve_warm");

  std::vector<double> latency;
  std::uint64_t ok = 0, bad = 0;
  for (const auto& t : tallies) {
    latency.insert(latency.end(), t.latency_ms.begin(), t.latency_ms.end());
    ok += t.ok;
    bad += t.bad;
    checks.Require(t.error.empty(), "serve: client error: " + t.error);
  }
  checks.Ops(static_cast<std::uint64_t>(total), bad,
             "serve: rejected, unanswered, mismatched or non-hit requests");
  checks.Require(stats.rejected == 0, "serve: daemon rejected requests");
  checks.Require(stats.completed == static_cast<std::uint64_t>(total) &&
                     stats.store_hits == stats.completed,
                 "serve: hit ratio is not 1.0");

  std::uint64_t fingerprint = Fnv1a("");
  for (const auto& b : u.bytes) fingerprint = Fnv1a(b, fingerprint);
  out.Set("setup_s", Array(setup))
      .Set("populate_s", Num(populate_s))
      .Set("universe_s", Num(universe_s))
      .Set("universe", Num(u.specs.size()))
      .Set("workers", Num(opt.workers))
      .Set("clients", Num(kServeClients))
      .Set("batch", Num(kServeBatch))
      .Set("requests", Num(total))
      .Set("passes", "[" + PassJson(wall_s, static_cast<double>(ok), latency, ledger,
                                    fingerprint).str() + "]")
      .Set("rtt_us", Array(rtt_us))
      .Set("peak_rss_mb", Num(peak_rss_mb))
      .Set("stats", Json()
                        .Set("accepted", Num(stats.accepted))
                        .Set("rejected", Num(stats.rejected))
                        .Set("completed", Num(stats.completed))
                        .Set("computed", Num(stats.computed))
                        .Set("store_hits", Num(stats.store_hits))
                        .Set("singleflight", Num(stats.singleflight))
                        .str());
  return fingerprint;
}

}  // namespace perfbench
