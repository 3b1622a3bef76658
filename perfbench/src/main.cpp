// perfbench: the composed end-to-end benchmark of BusSense.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--work <dir>]
//
// Workloads: cityday_ingest, rushhour_serving, testbed_restart (see
// perfbench/README.md for their make-up and the metric map). --trace 0
// measures the end-to-end metrics; --trace 1 is the separate traced run
// that times each layer's public calls and reports the per-layer metrics.
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit status is 0 only when every correctness check passed.
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <numeric>
#include <sstream>
#include <thread>

#include "bench.h"
#include "phases.h"
#include "trace.h"

namespace perfbench {
namespace {

constexpr int kSetupRepeats = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  int trace = 0;
  std::string work = ".bench_build/work";
};

bool parse(int argc, char** argv, Args& a) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      a.seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (*end != '\0' || a.seconds < 1) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      a.trace = value == "1";
    } else if (key == "--work") {
      a.work = value;
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

/// Prints each metric as it is reported and builds the result JSON.
class Report {
 public:
  void metric(const std::string& name, double value, const char* unit) {
    if (!std::isfinite(value)) {
      nonfinite_.push_back(name);
      value = 0.0;
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
             unit + "\"}";
    std::printf("  %-40s %16.6g %s\n", name.c_str(), value, unit);
  }
  const std::vector<std::string>& nonfinite() const { return nonfinite_; }
  std::string json(std::uint64_t attempted, std::uint64_t failed) const {
    std::ostringstream out;
    out << "{\"correct\": " << (failed == 0 ? "true" : "false")
        << ", \"attempted\": " << attempted << ", \"failed\": " << failed
        << ", \"metrics\": {" << body_ << "}}";
    return out.str();
  }

 private:
  std::string body_;
  std::vector<std::string> nonfinite_;
};

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

// One round of sharded passes: the open-loop pass on the workload's
// schedule, plus the closed-loop capacity pass where the workload has one.
struct Round {
  ShardedResult open;
  ShardedResult capacity;
  bool has_capacity = false;
  /// The pass trips_per_s and the query figures come from.
  const ShardedResult& measured() const {
    return has_capacity ? capacity : open;
  }
};

Round sharded_round(const Setup& s, const Reference& ref, Ctx& ctx,
                    Checks& checks, Tracer* tracer = nullptr) {
  const Shape& shape = s.workload.shape;
  Round r;
  r.has_capacity = shape.capacity_pass;
  ShardedPass open;
  open.open_loop = true;
  open.readers = shape.concurrent_readers;
  // The traced run always probes each query family from the replay thread,
  // once per pass: its figures are per query, not per run.
  const int probes = tracer != nullptr ? 1 : shape.repeats;
  if (!shape.capacity_pass &&
      (!shape.concurrent_readers || tracer != nullptr)) {
    open.probes = probes;
  }
  r.open = run_sharded(s, ref, ctx, open, checks, tracer);
  if (shape.capacity_pass) {
    ShardedPass capacity;
    capacity.probes = probes;
    r.capacity = run_sharded(s, ref, ctx, capacity, checks, tracer);
  }
  return r;
}

void end_to_end(const Setup& s, const Reference& ref, Ctx& ctx, int seconds,
                Checks& checks, std::uint64_t& operations, Report& report) {
  // Percentiles are taken per round (each round has at least 1 000
  // freshness samples) and their median reported, so one disturbed round
  // cannot carry a run's percentile.
  std::vector<double> tps, serial_tps, recovery, qps, wal, rss;
  std::vector<double> fresh50, fresh99, q50, q99;
  // One unmeasured warm-up round: caches fill and lazy set-up finishes.
  sharded_round(s, ref, ctx, checks);
  run_serial_crash(s, ref, ctx, checks);
  const double deadline = now_s() + seconds;
  int rounds = 0;
  do {
    ++ctx.round;
    const double t0 = now_s();
    const Round r = sharded_round(s, ref, ctx, checks);
    const ShardedResult& sr = r.measured();
    const double t1 = now_s();
    std::uint64_t fed = 0;
    double feed_s = 0.0, serial_rss = 0.0;
    std::vector<double> round_recovery;
    SerialResult se;
    for (int i = 0; i < s.workload.shape.repeats; ++i) {
      se = run_serial_crash(s, ref, ctx, checks);
      serial_tps.insert(serial_tps.end(), se.stretch_rates.begin(),
                        se.stretch_rates.end());
      round_recovery.push_back(se.recovery_s);
      fed += se.fed;
      feed_s += se.feed_s;
      serial_rss = std::max(serial_rss, se.rss_mb);
    }
    const double t2 = now_s();
    if (r.has_capacity) {
      tps.insert(tps.end(), sr.stretch_rates.begin(), sr.stretch_rates.end());
    } else {  // open loop: the rate sustained over the whole schedule
      tps.push_back(static_cast<double>(sr.submitted) / sr.elapsed_s);
    }
    fresh50.push_back(quantile(r.open.freshness_s, 0.50));
    fresh99.push_back(quantile(r.open.freshness_s, 0.99));
    q50.push_back(sr.queries.latency.quantile(0.50));
    q99.push_back(sr.queries.latency.quantile(0.99));
    if (sr.probe_rates.empty()) {
      qps.push_back(sr.queries_per_s);
    } else {
      qps.insert(qps.end(), sr.probe_rates.begin(), sr.probe_rates.end());
    }
    recovery.insert(recovery.end(), round_recovery.begin(),
                    round_recovery.end());
    wal.push_back(sr.wal_bytes_per_trip);
    rss.push_back(std::max({r.open.rss_mb, r.capacity.rss_mb, serial_rss}));
    operations += r.open.submitted + r.capacity.submitted + fed +
                  r.open.queries.queries + r.capacity.queries.queries;
    std::printf(
        "round %d: sharded %.0f trips/s, freshness p50/p99 %.2f/%.2f ms "
        "(%zu); serial %.0f trips/s; recovery %.4f s (%llu replayed, %zu "
        "segments fused differently from the uninterrupted run); %llu "
        "queries at %.0f/s, p50/p99 %.3f/%.3f us; passes %.2f + %.2f s\n",
        rounds, sr.submitted / sr.elapsed_s, fresh50.back() * 1e3,
        fresh99.back() * 1e3, r.open.freshness_s.size(), fed / feed_s,
        median(round_recovery),
        static_cast<unsigned long long>(se.replayed_trips), se.fused_mismatches,
        static_cast<unsigned long long>(sr.queries.queries), sr.queries_per_s,
        q50.back() * 1e6, q99.back() * 1e6, t1 - t0, t2 - t1);
    ++rounds;
  } while (now_s() < deadline);
  std::printf("%d rounds\n", rounds);
  report.metric("trips_per_s", median(tps), "trips/s");
  report.metric("serial_trips_per_s", median(serial_tps), "trips/s");
  report.metric("freshness_p50_ms", median(fresh50) * 1e3, "ms");
  report.metric("freshness_p99_ms", median(fresh99) * 1e3, "ms");
  report.metric("query_p50_us", median(q50) * 1e6, "us");
  report.metric("query_p99_us", median(q99) * 1e6, "us");
  report.metric("queries_per_s", median(qps), "queries/s");
  report.metric("recovery_s", median(recovery), "s");
  report.metric("wal_bytes_per_trip", median(wal), "bytes");
  report.metric("map_err_kmh", ref.map_err_kmh, "km/h");
  report.metric("peak_rss_mb", median(rss), "MB");
}

void traced(const Setup& s, const Reference& ref, Ctx& ctx, int seconds,
            const std::string& spans_path, Checks& checks,
            std::uint64_t& operations, Report& report) {
  const Workload& w = s.workload;
  Tracer tracer;
  const double start = now_s();
  run_tier_probe(s, ctx.seed, &tracer);
  // 60 % of the run is traced; the rest runs the same serial stream
  // untraced, with and without the WAL and metrics, for the overhead ratios.
  const double traced_until = start + 0.6 * seconds;
  StageCounters counters;
  std::vector<double> traced_s, late_s, imbalance, replayed;
  std::uint64_t queries = 0;
  int rounds = 0;
  do {
    ++ctx.round;
    traced_s.push_back(
        run_serial_stages(s, ref, ctx, &tracer, checks, counters));
    const Round r = sharded_round(s, ref, ctx, checks, &tracer);
    const SerialResult se = run_serial_crash(s, ref, ctx, checks, &tracer);
    const std::vector<double>& shards = r.measured().shard_processed;
    imbalance.push_back(*std::max_element(shards.begin(), shards.end()) /
                        mean(shards));
    late_s.insert(late_s.end(), r.open.late_s.begin(), r.open.late_s.end());
    replayed.push_back(static_cast<double>(se.replayed_trips));
    queries += r.open.queries.queries + r.capacity.queries.queries;
    operations += w.items.size() + r.open.submitted + r.capacity.submitted +
                  se.fed + r.open.queries.queries + r.capacity.queries.queries;
    ++rounds;
  } while (now_s() < traced_until);
  std::vector<double> wal_on, wal_off, metrics_off;
  do {
    wal_on.push_back(run_serial_plain(s, ctx, true, true));
    wal_off.push_back(run_serial_plain(s, ctx, false, true));
    metrics_off.push_back(run_serial_plain(s, ctx, false, false));
    operations += 3 * w.items.size();
  } while (now_s() < start + seconds);

  const auto spans = tracer.by_name();
  const auto get = [&](const char* name) -> const Tracer::Totals& {
    static const Tracer::Totals empty;
    const auto it = spans.find(name);
    return it == spans.end() ? empty : it->second;
  };
  // Mean span duration, duration per unit of work, and a percentile.
  const auto per = [&](const char* name, double scale) {
    const Tracer::Totals& t = get(name);
    return t.count ? t.total_s / static_cast<double>(t.count) * scale : 0.0;
  };
  const auto per_work = [&](const char* name, double scale) {
    const Tracer::Totals& t = get(name);
    return t.work > 0 ? t.total_s / t.work * scale : 0.0;
  };
  const auto pct = [&](const char* name, double q, double scale) {
    return quantile(get(name).durations_s, q) * scale;
  };
  const double passes = static_cast<double>(rounds);
  const double calls = std::max(counters.match_calls, 1.0);

  report.metric("trafficsim.event_ms_per_trip",
                per_work("trafficsim.event", 1e3), "ms");
  report.metric("trafficsim.onrails_us_per_trip",
                per_work("trafficsim.on_rails", 1e6), "us");
  report.metric("trafficsim.focus_ms_per_trip",
                per_work("trafficsim.focus", 1e3), "ms");
  report.metric("admission.us_per_upload", per("admission.admit", 1e6), "us");
  report.metric("admission.duplicates_rejected",
                static_cast<double>(counters.duplicates_rejected) / passes,
                "count");
  report.metric("matching.us_per_sample",
                per_work("matching.match_samples", 1e6), "us");
  report.metric("matching.samples",
                get("matching.match_samples").work / passes, "count");
  report.metric("matching.records_considered_per_sample",
                counters.records_considered / calls, "count");
  report.metric("matching.gamma_candidates_per_sample",
                counters.gamma_candidates / calls, "count");
  report.metric("matching.dp_runs_per_sample",
                counters.records_accepted / calls, "count");
  report.metric("matching.bound_skip_ratio",
                counters.gamma_candidates > 0
                    ? counters.bound_skipped / counters.gamma_candidates
                    : 0.0,
                "ratio");
  report.metric("clustering.us_per_trip",
                per("clustering.cluster_samples", 1e6), "us");
  report.metric("mapping.us_per_trip", per("mapping.map_trip", 1e6), "us");
  report.metric("estimation.us_per_trip", per("estimation.estimate", 1e6),
                "us");
  report.metric("fusion.fold_us_per_trip", per("fusion.fold", 1e6), "us");
  report.metric("fusion.advance_ms", per("fusion.advance", 1e3), "ms");
  report.metric("ingest.enqueue_us_p99", pct("ingest.enqueue", 0.99, 1e6),
                "us");
  report.metric("ingest.drain_ms", per("ingest.drain", 1e3), "ms");
  report.metric("ingest.shard_imbalance", median(imbalance), "ratio");
  report.metric("ingest.distinct_participants",
                static_cast<double>(w.distinct_participants), "count");
  report.metric("wal.append_us", per("wal.append", 1e6), "us");
  {
    const Tracer::Totals& a = get("wal.append_sync");
    const Tracer::Totals& b = get("wal.sync");
    const double n = static_cast<double>(a.count + b.count);
    report.metric("wal.sync_ms", n > 0 ? (a.total_s + b.total_s) / n * 1e3 : 0,
                  "ms");
  }
  report.metric("wal.overhead_frac", median(wal_on) / median(wal_off) - 1.0,
                "frac");
  report.metric("checkpoint.write_ms", per("checkpoint.write", 1e3), "ms");
  report.metric("recovery.replayed_trips", median(replayed), "count");
  report.metric("recovery.us_per_replayed_trip",
                per("recovery.open", 1e6) / std::max(median(replayed), 1.0),
                "us");
  report.metric("epoch.publish_ms", per("epoch.publish", 1e3), "ms");
  report.metric("epoch.live_segments", static_cast<double>(ref.map.size()),
                "count");
  report.metric("query.segment_us_p50", pct("query.segment", 0.5, 1e6), "us");
  report.metric("query.eta_us_p50", pct("query.eta", 0.5, 1e6), "us");
  report.metric("query.region_us_p50", pct("query.region", 0.5, 1e6), "us");
  report.metric("query.knn_us_p50", pct("query.knn", 0.5, 1e6), "us");
  report.metric("query.count", static_cast<double>(queries) / passes,
                "count");
  report.metric("obs.overhead_frac",
                median(wal_off) / median(metrics_off) - 1.0, "frac");
  report.metric("loadgen.late_p99_ms", quantile(late_s, 0.99) * 1e3, "ms");
  report.metric("trace.overhead_frac",
                median(traced_s) / median(wal_on) - 1.0, "frac");

  // Budget: the traced run's wall clock is the time inside its top-level
  // spans; each layer's part is its spans' self time, and the top-level
  // phases' own self time ("bench") is the unattributed remainder.
  double wall = 0.0;
  for (const Tracer::Span& sp : tracer.spans()) {
    if (sp.parent < 0) {
      wall += static_cast<double>(sp.end_ns - sp.start_ns) * 1e-9;
    }
  }
  const auto layers = tracer.self_by_layer();
  static const char* const kLayers[] = {
      "trafficsim", "admission", "matching", "clustering", "mapping",
      "estimation", "fusion",    "ingest",   "wal",        "checkpoint",
      "recovery",   "epoch",     "query",    "loadgen"};
  std::printf("budget over %.3f s of traced wall clock (%d rounds):\n", wall,
              rounds);
  double parts = 0.0;
  for (const char* layer : kLayers) {
    const auto it = layers.find(layer);
    const double self = it == layers.end() ? 0.0 : it->second;
    parts += self;
    report.metric(std::string("budget.") + layer + "_frac", self / wall,
                  "frac");
  }
  const auto bench = layers.find("bench");
  const double unattributed = bench == layers.end() ? 0.0 : bench->second;
  report.metric("trace.unattributed_frac", unattributed / wall, "frac");
  checks.expect(std::abs(parts + unattributed - wall) <= 1e-6 * wall,
                "layer parts plus the remainder sum to the traced wall clock");
  checks.expect(tracer.write(spans_path), "spans written to " + spans_path);
  std::printf("spans: %zu written to %s\n", tracer.spans().size(),
              spans_path.c_str());
}

int run(const Args& args) {
  const Shape shape = shape_of(args.workload);  // rejects unknown names
  Ctx ctx;
  ctx.seed = args.seed;
  ctx.nproc = std::max(1u, std::thread::hardware_concurrency());
  // Threads used by the benchmark and the program together stay within
  // nproc: the replay thread, half the cores as shard consumers (leaving
  // room for the rest of the host, which steadies the closed-loop figures)
  // and, beside the open-loop writer, query readers on the remainder.
  ctx.shards = std::max<std::size_t>(1, ctx.nproc / 2);
  if (shape.concurrent_readers) {
    const std::size_t spare =
        ctx.nproc > ctx.shards + 1 ? ctx.nproc - ctx.shards - 1 : 0;
    ctx.readers = std::max<std::size_t>(1, spare);
  }
  const std::filesystem::path work =
      std::filesystem::path(args.work) /
      (args.workload + "-" + std::to_string(static_cast<long>(getpid())));
  std::filesystem::remove_all(work);
  std::filesystem::create_directories(work);
  ctx.work_dir = work.string();

  std::printf("perfbench %s seed %llu seconds %d trace %d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace);
  std::printf(
      "build: git %s, %s, simd %d, native %d, sanitizer '%s'; nproc %u; "
      "layout: 1 replay + %zu shards + %zu readers\n",
      PERFBENCH_GIT_DESCRIBE, PERFBENCH_BUILD_TYPE, PERFBENCH_SIMD,
      PERFBENCH_NATIVE, PERFBENCH_SANITIZE, ctx.nproc, ctx.shards,
      ctx.readers);

  Checks checks;
  std::uint64_t operations = 0;
  std::vector<double> setup_s;
  Setup setup;
  {
    ThreadPool pool(ctx.nproc);
    std::uint64_t digest = 0;
    for (int i = 0; i < kSetupRepeats; ++i) {
      setup = Setup{};  // drop the previous copy before timing the next
      const double t0 = now_s();
      setup = make_setup(args.workload, args.seed, pool);
      setup_s.push_back(now_s() - t0);
      if (i > 0) {
        checks.expect(setup.workload.digest == digest,
                      "stream generation is deterministic per seed");
      }
      digest = setup.workload.digest;
    }
  }
  const Workload& w = setup.workload;
  std::printf("input: %s\n", w.census.c_str());
  std::printf("stream_digest %016llx; setup %.3f/%.3f/%.3f s\n",
              static_cast<unsigned long long>(w.digest), setup_s[0],
              setup_s[1], setup_s[2]);

  malloc_trim(0);  // hand set-up's freed heap back before RSS is sampled
  const Reference ref = run_reference(setup, checks);
  operations += w.items.size();
  std::printf(
      "reference: %zu live segments, final map mean error %.3f km/h, "
      "within-8 %.3f; mean error %.3f km/h over %zu published updates; stop "
      "accuracy %.4f\n",
      ref.map.size(), ref.final_err_kmh, ref.within8, ref.map_err_kmh,
      ref.scored_updates, ref.stop_accuracy);

  Report report;
  if (args.trace) {
    const std::filesystem::path spans_dir =
        std::filesystem::path(args.work) / "spans";
    std::filesystem::create_directories(spans_dir);
    const std::string spans =
        (spans_dir / (args.workload + "-seed" + std::to_string(args.seed) +
                      ".jsonl"))
            .string();
    traced(setup, ref, ctx, args.seconds, spans, checks, operations, report);
  } else {
    report.metric("setup_s", median(setup_s), "s");
    end_to_end(setup, ref, ctx, args.seconds, checks, operations, report);
  }
  for (const std::string& name : report.nonfinite()) {
    checks.expect(false, "metric " + name + " is finite");
  }
  std::filesystem::remove_all(work);
  for (const std::string& f : checks.failures) {
    std::printf("FAILED: %s\n", f.c_str());
  }
  const std::uint64_t attempted = operations + checks.attempted;
  std::printf("%s\n", report.json(attempted, checks.failed).c_str());
  std::fflush(stdout);
  return checks.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <cityday_ingest|"
                 "rushhour_serving|testbed_restart> --seed <n> --seconds <s> "
                 "--trace <0|1> [--work <dir>]\n");
    return 2;
  }
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
