// The measured passes. Each drives the program only through its public
// API; timing and spans are taken here, around those calls.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <limits>
#include <thread>

#include "core/epoch_publisher.h"
#include "core/ingest_service.h"
#include "core/travel_estimator.h"
#include "core/trip_log.h"
#include "phases.h"

namespace perfbench {

namespace {

/// Closed-loop query probe size (workloads without concurrent readers).
constexpr std::uint64_t kProbeQueries = 200'000;
/// open() runs per crash; the round reports their median.
constexpr int kRecoveries = 5;

void wait_until(double due) {
  for (;;) {
    const double left = due - now_s();
    if (left <= 0.0) return;
    if (left > 300e-6) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(left - 200e-6));
    }
  }
}

std::uint64_t wal_bytes(const std::string& dir) {
  std::uint64_t bytes = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.path().extension() == ".wal") bytes += e.file_size();
  }
  return bytes;
}

std::uint64_t counter(const MetricsSnapshot& m, const char* name) {
  const auto it = m.counters.find(name);
  return it == m.counters.end() ? 0 : it->second;
}

/// Query reader threads beside the writer; stopped and joined on every
/// path out of the pass.
class Readers {
 public:
  Readers(const Setup& s, const QueryService& queries, std::uint64_t seed,
          std::size_t count)
      : tallies_(count), checks_(count) {
    for (std::size_t r = 0; r < count; ++r) {
      threads_.emplace_back([this, &s, &queries, seed, r] {
        try {
          run_queries(s, queries, seed + r + 1, &stop_,
                        std::numeric_limits<std::uint64_t>::max(),
                        tallies_[r], checks_[r]);
        } catch (const std::exception& e) {
          checks_[r].expect(false, std::string("reader threw: ") + e.what());
        }
      });
    }
  }
  ~Readers() { join(); }
  Readers(const Readers&) = delete;
  Readers& operator=(const Readers&) = delete;

  void join() {
    stop_.store(true);
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
  }
  /// After join(): merges every reader's figures into `out`.
  void collect(ShardedResult& out, Checks& checks) const {
    for (std::size_t r = 0; r < tallies_.size(); ++r) {
      const QueryTally& t = tallies_[r];
      out.queries.latency.merge(t.latency);
      out.queries.queries += t.queries;
      out.queries.busy_s += t.busy_s;
      if (t.busy_s > 0) out.queries_per_s += t.queries / t.busy_s;
      checks.merge(checks_[r]);
    }
  }

 private:
  std::atomic<bool> stop_{false};
  std::vector<QueryTally> tallies_;
  std::vector<Checks> checks_;
  std::vector<std::thread> threads_;  // last: joined before the rest dies
};

}  // namespace

std::string Ctx::fresh_dir(const char* tag) {
  const std::filesystem::path p =
      std::filesystem::path(work_dir) /
      (std::string(tag) + "-" + std::to_string(next_dir++));
  std::filesystem::remove_all(p);
  return p.string();
}

ServerConfig front_end_config(const std::string& dir, bool metrics) {
  ServerConfig c;
  c.admission.enabled = true;
  c.obs.enabled = metrics;
  if (!dir.empty()) {
    c.durability.enabled = true;
    c.durability.directory = dir;
    c.durability.fsync = FsyncPolicy::kInterval;
  }
  return c;
}

ShardedResult run_sharded(const Setup& s, const Reference& ref, Ctx& ctx,
                          const ShardedPass& pass, Checks& checks,
                          Tracer* tracer) {
  const Workload& w = s.workload;
  const bool open = pass.open_loop;
  const std::string dir = ctx.fresh_dir("sharded");
  ShardedIngestConfig sharding;
  sharding.shards = ctx.shards;
  ShardedResult out;
  {
    ShardedIngestService service(s.world->city(), *s.database,
                                 front_end_config(dir), sharding);
    service.open();
    EpochPublisher publisher(service.catalog());
    QueryService queries(publisher);
    service.publish_epoch(publisher, w.first_time);
    const std::uint64_t query_seed = ctx.seed * 1'000'003 + ctx.round * 64;
    Readers readers(s, queries, query_seed, pass.readers ? ctx.readers : 0);

    struct Pending {
      double sent;
      std::int64_t period;
    };
    std::vector<Pending> pending;
    std::size_t refused = 0;
    std::vector<std::pair<std::uint64_t, double>> marks;
    double t0 = now_s() + 1e-3;
    double first_submit = -1.0;
    {
      Tracer::Scope phase(tracer, "bench.sharded");
      for (const Event& ev : w.events) {
        double due =
            open ? t0 + (ev.time - w.first_time) / w.shape.compression : 0.0;
        if (open && ev.kind != Event::kUpload && pending.empty()) {
          // Idle stretch (nights, gaps between trips): no upload waits on
          // this advance, so the schedule is pulled forward instead of
          // waited out. Uploads keep their spacing from the advance before.
          const double skip = due - now_s();
          if (skip > 0.0) {
            t0 -= skip;
            due -= skip;
          }
        }
        if (open) {
          Tracer::Scope span(tracer, "loadgen.wait");
          wait_until(due);
        }
        if (ev.kind == Event::kUpload) {
          const double sent = now_s();
          if (first_submit < 0.0) {
            first_submit = sent;
            marks.emplace_back(0, sent);
          }
          if (open) out.late_s.push_back(sent - due);
          bool accepted = false;
          {
            Tracer::Scope span(tracer, "ingest.enqueue");
            accepted = service.process_trip(w.items[ev.item].upload).accepted();
          }
          refused += !accepted;
          ++out.submitted;
          // Open loop: freshness counts from when the upload was due.
          const std::int64_t period = ref.needed_period[ev.item];
          if (period >= 0) pending.push_back({open ? due : sent, period});
        } else if (ev.kind == Event::kAdvance) {
          {
            Tracer::Scope span(tracer, "ingest.drain");
            service.drain();
          }
          {
            Tracer::Scope span(tracer, "fusion.advance");
            service.advance_time(ev.time);
          }
          {
            Tracer::Scope span(tracer, "epoch.publish");
            service.publish_epoch(publisher, ev.time);
          }
          const double done = now_s();
          if (first_submit >= 0.0) marks.emplace_back(out.submitted, done);
          const auto closed =
              static_cast<std::int64_t>(std::floor(ev.time / kFusionPeriod));
          std::erase_if(pending, [&](const Pending& p) {
            if (p.period >= closed) return false;
            out.freshness_s.push_back(done - p.sent);
            return true;
          });
        }
      }
      out.elapsed_s = now_s() - first_submit;
    }
    out.stretch_rates = stretch_rates(marks, kStretchUploads);
    readers.join();
    readers.collect(out, checks);
    out.rss_mb = resident_mb();

    checks.expect(refused == 0, "sharded front end accepts every upload");
    checks.expect(pending.empty(), "every upload reaches a published epoch");
    checks.expect(
        same_map(canonical(service.snapshot(w.end_time, horizon(w))), ref.map),
        "sharded map byte-identical to the serial reference");
    const MetricsSnapshot m = service.shard_metrics();
    checks.expect(counter(m, "ingest.admitted") == w.clean_uploads,
                  "sharded admission admits every clean upload");
    checks.expect(counter(m, "ingest.rejected.duplicate") == w.injected_replays,
                  "sharded admission rejects every injected replay");
    for (std::size_t i = 0; i < service.shard_count(); ++i) {
      const MetricsSnapshot shard = service.shard_registry(i).snapshot();
      out.shard_processed.push_back(
          static_cast<double>(counter(shard, "ingest.shard.processed")));
    }

    if (pass.probes > 0) {
      // The probe queries the whole stream's map, not the last hour's, so
      // its live set does not depend on how busy the final hour was.
      service.publish_epoch(publisher, w.end_time, horizon(w));
      Tracer::Scope phase(tracer, "bench.query");
      for (int i = 0; i < pass.probes; ++i) {
        QueryTally probe;
        run_queries(s, queries, i == 0 ? query_seed : query_seed + 32 + i,
                    nullptr, kProbeQueries, probe, checks, tracer);
        out.queries.queries += probe.queries;
        if (!pass.readers) {
          out.queries.latency.merge(probe.latency);
          out.queries.busy_s += probe.busy_s;
          out.probe_rates.push_back(probe.queries / probe.busy_s);
        }
      }
      if (!pass.readers) out.queries_per_s = median(out.probe_rates);
    }
    service.close();
  }
  out.wal_bytes_per_trip = static_cast<double>(wal_bytes(dir)) /
                           static_cast<double>(w.clean_uploads);
  std::filesystem::remove_all(dir);
  return out;
}

SerialResult run_serial_crash(const Setup& s, const Reference& ref, Ctx& ctx,
                              Checks& checks, Tracer* tracer) {
  const Workload& w = s.workload;
  const City& city = s.world->city();
  const std::string dir = ctx.fresh_dir("serial");
  const ServerConfig config = front_end_config(dir);
  SerialResult out;
  // Final verdict per upload: 1 admitted, 0 rejected as duplicate, 2 other.
  std::vector<int> verdict(w.items.size(), -1);
  std::vector<std::size_t> admitted_events;  // doomed pass, in order

  const auto feed = [&](TrafficServer& server, std::size_t begin,
                        std::size_t end, bool doomed) {
    EpochPublisher publisher(server.catalog());
    const double t0 = now_s();
    std::vector<std::pair<std::uint64_t, double>> marks{{out.fed, t0}};
    for (std::size_t e = begin; e < end; ++e) {
      const Event& ev = w.events[e];
      if (ev.kind == Event::kUpload) {
        const TripReport r = server.process_trip(w.items[ev.item].upload);
        verdict[ev.item] = r.accepted() ? 1
                           : r.reject_reason == RejectReason::kDuplicate ? 0
                                                                         : 2;
        if (doomed && r.accepted()) admitted_events.push_back(e);
        ++out.fed;
      } else if (ev.kind == Event::kAdvance) {
        server.advance_time(ev.time);
        server.publish_epoch(publisher, ev.time);
        marks.emplace_back(out.fed, now_s());
      } else {
        Tracer::Scope span(tracer, "checkpoint.write");
        server.checkpoint();
      }
    }
    out.feed_s += now_s() - t0;
    const std::vector<double> rates = stretch_rates(marks, kStretchUploads);
    out.stretch_rates.insert(out.stretch_rates.end(), rates.begin(),
                             rates.end());
  };

  {
    TrafficServer doomed(city, *s.database, config);
    doomed.open();
    feed(doomed, 0, w.crash_event, true);
  }  // destroyed without close(): the crash

  // Recovery is timed on copies of the crashed state first, then on the
  // state itself, which the resumed feed continues from.
  std::vector<double> recovery_s;
  const auto timed_open = [&](TrafficServer& server) {
    Tracer::Scope span(tracer, "recovery.open");
    const double t0 = now_s();
    RecoveryReport report = server.open();
    recovery_s.push_back(now_s() - t0);
    return report;
  };
  for (int i = 1; i < kRecoveries; ++i) {
    ServerConfig copy_config = config;
    copy_config.durability.directory = dir + "-copy";
    std::filesystem::copy(dir, copy_config.durability.directory,
                          std::filesystem::copy_options::recursive);
    {
      TrafficServer copy(city, *s.database, copy_config);
      timed_open(copy);
    }
    std::filesystem::remove_all(copy_config.durability.directory);
  }
  TrafficServer server(city, *s.database, config);
  const RecoveryReport report = timed_open(server);
  out.recovery_s = median(recovery_s);
  out.replayed_trips = report.replayed_trips;
  const std::uint64_t durable = report.recovered_trips_per_segment.empty()
                                    ? 0
                                    : report.recovered_trips_per_segment[0];
  checks.expect(report.checkpoint_loaded,
                "recovery loads the checkpoint before the crash");
  checks.expect(durable == admitted_events.size(),
                "every upload admitted before the crash survives it");
  // Resume after the last durable upload; advances and checkpoints between
  // it and the crash are re-run, which is idempotent.
  const std::size_t n = std::min<std::size_t>(durable, admitted_events.size());
  feed(server, n == 0 ? 0 : admitted_events[n - 1] + 1, w.events.size(),
       false);
  out.rss_mb = resident_mb();

  // Recovery must restore every admitted upload's contribution: the same
  // live segments and observation counts as the uninterrupted run. Fused
  // speeds and update times are compared but not required to be equal:
  // WAL replay does not close fusion periods at replayed time marks, so
  // estimates that reached an already-closed period before the crash are
  // re-fused with that period's others, in period order (see CHANGES.md).
  const std::vector<MapSegment> got =
      canonical(server.snapshot(w.end_time, horizon(w)));
  checks.expect(
      std::equal(got.begin(), got.end(), ref.map.begin(), ref.map.end(),
                 [](const MapSegment& a, const MapSegment& b) {
                   return a.key == b.key &&
                          a.observation_count == b.observation_count;
                 }),
      "recovered serial map has the reference's segments and counts");
  for (std::size_t i = 0; i < got.size() && i < ref.map.size(); ++i) {
    out.fused_mismatches += got[i].speed_kmh != ref.map[i].speed_kmh ||
                            got[i].updated_at != ref.map[i].updated_at;
  }
  std::size_t wrong = 0;
  for (std::size_t i = 0; i < w.items.size(); ++i) {
    wrong += verdict[i] != (w.items[i].injected_replay ? 0 : 1);
  }
  checks.expect(wrong == 0,
                "across the crash, replays are rejected as duplicates and "
                "clean uploads admitted");
  server.close();
  std::filesystem::remove_all(dir);
  return out;
}

double run_serial_stages(const Setup& s, const Reference& ref, Ctx& ctx,
                         Tracer* tracer, Checks& checks,
                         StageCounters& counters) {
  const Workload& w = s.workload;
  // Admission and the WAL run as standalone layers beside a plain server,
  // so every stage of process_trip is its own call.
  const ServerConfig config;
  TrafficServer server(s.world->city(), *s.database, config);
  AdmissionController admission(front_end_config("").admission);
  const std::string dir = ctx.fresh_dir("stages");
  std::filesystem::create_directories(dir);
  double elapsed = 0.0;
  {
    TripLogWriter wal(dir + "/trips-0.wal", FsyncPolicy::kInterval,
                      DurabilityConfig{}.fsync_interval_records, 1);
    const TravelEstimator estimator(server.catalog(), config.att);
    EpochPublisher publisher(server.catalog());
    Tracer::Scope phase(tracer, "bench.serial");
    const double t0 = now_s();
    for (const Event& ev : w.events) {
      if (ev.kind == Event::kUpload) {
        const TripUpload& upload = w.items[ev.item].upload;
        TripUpload corrected;
        const TripUpload* use = &upload;
        AdmitInfo info;
        RejectReason why;
        {
          Tracer::Scope span(tracer, "admission.admit");
          why = admission.admit(upload, corrected, use, &info);
        }
        if (why != RejectReason::kNone) {
          counters.duplicates_rejected += why == RejectReason::kDuplicate;
          continue;
        }
        {
          Tracer::Scope span(tracer, "wal.append");
          if (wal.append_trip(info.signature, info.skew_offset_s, *use)
                  .synced) {
            span.rename("wal.append_sync");
          }
        }
        std::vector<MatchedSample> matched;
        {
          Tracer::Scope span(tracer, "matching.match_samples",
                             static_cast<double>(use->samples.size()));
          matched = server.match_samples(*use);
        }
        std::vector<SampleCluster> clusters;
        {
          Tracer::Scope span(tracer, "clustering.cluster_samples");
          clusters = server.cluster_samples(matched);
        }
        MappedTrip mapped;
        {
          Tracer::Scope span(tracer, "mapping.map_trip");
          mapped = server.map_trip(clusters);
        }
        std::vector<SpeedEstimate> estimates;
        {
          Tracer::Scope span(tracer, "estimation.estimate");
          estimates = estimator.estimate(mapped);
        }
        Tracer::Scope span(tracer, "fusion.fold");
        server.ingest(estimates);
      } else if (ev.kind == Event::kAdvance) {
        {
          Tracer::Scope span(tracer, "admission.observe_time");
          admission.observe_time(ev.time);
        }
        {
          Tracer::Scope span(tracer, "wal.time_mark");
          wal.append_time_mark(ev.time);
        }
        {
          Tracer::Scope span(tracer, "fusion.advance");
          server.advance_time(ev.time);
        }
        Tracer::Scope span(tracer, "epoch.publish");
        server.publish_epoch(publisher, ev.time);
      } else {
        Tracer::Scope span(tracer, "wal.sync");
        wal.sync();
      }
    }
    elapsed = now_s() - t0;
  }
  checks.expect(
      same_map(canonical(server.snapshot(w.end_time, horizon(w))), ref.map),
      "stage-by-stage serial pass reproduces the reference map");
  const MetricsSnapshot m = server.metrics().snapshot();
  const auto add = [&m](double& sum, const char* name) {
    sum += static_cast<double>(counter(m, name));
  };
  add(counters.match_calls, "matcher.calls");
  add(counters.records_considered, "matcher.records_considered");
  add(counters.gamma_candidates, "matcher.gamma_candidates");
  add(counters.records_accepted, "matcher.records_accepted");
  add(counters.bound_skipped, "matcher.records_bound_skipped");
  std::filesystem::remove_all(dir);
  return elapsed;
}

double run_serial_plain(const Setup& s, Ctx& ctx, bool wal, bool metrics) {
  const Workload& w = s.workload;
  const std::string dir = wal ? ctx.fresh_dir("plain") : "";
  double elapsed = 0.0;
  {
    TrafficServer server(s.world->city(), *s.database,
                         front_end_config(dir, metrics));
    server.open();
    EpochPublisherConfig publisher_config;
    publisher_config.obs.enabled = metrics;
    EpochPublisher publisher(server.catalog(), publisher_config);
    const double t0 = now_s();
    for (const Event& ev : w.events) {
      if (ev.kind == Event::kUpload) {
        server.process_trip(w.items[ev.item].upload);
      } else if (ev.kind == Event::kAdvance) {
        server.advance_time(ev.time);
        server.publish_epoch(publisher, ev.time);
      }
    }
    elapsed = now_s() - t0;
    server.close();
  }
  if (wal) std::filesystem::remove_all(dir);
  return elapsed;
}

void run_tier_probe(const Setup& s, std::uint64_t seed, Tracer* tracer) {
  std::unique_ptr<LodWorld> own;
  const LodWorld* lod = s.lod.get();
  if (lod == nullptr) {
    LodConfig config;
    config.seed = seed;
    own = std::make_unique<LodWorld>(*s.world, 50'000, config);
    lod = own.get();
  }
  struct Target {
    FidelityTier tier;
    const char* span;
    int trips;
  };
  const Target targets[] = {
      {FidelityTier::kFocus, "trafficsim.focus", 1},
      {FidelityTier::kEvent, "trafficsim.event", 16},
      {FidelityTier::kOnRails, "trafficsim.on_rails", 200}};
  Rng rng = Rng::stream(seed, 9000);
  const int day = s.workload.day;
  const int last_rider = static_cast<int>(lod->riders()) - 1;
  Tracer::Scope phase(tracer, "bench.generate");
  for (const Target& t : targets) {
    int trips = 0;
    for (int attempt = 0; trips < t.trips && attempt < 20'000; ++attempt) {
      const std::int64_t rider = rng.uniform_int(0, last_rider);
      if (lod->trip_count(rider, day) == 0) continue;
      Tracer::Scope span(tracer, t.span);
      const auto produced = lod->simulate_rider_day(rider, day, t.tier).size();
      span.set_work(static_cast<double>(produced));
      trips += static_cast<int>(produced);
    }
  }
}

}  // namespace perfbench
