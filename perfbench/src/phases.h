// The passes one benchmark run is made of, and the correctness checks that
// judge their outputs against computations made apart from the program.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"
#include "core/query_service.h"
#include "core/server.h"
#include "trace.h"

namespace perfbench {

/// Every checked property is one operation; a mismatch is a failed one.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few, for the report
  void expect(bool ok, const std::string& what);
  void merge(const Checks& other);
};

struct Ctx {
  std::string work_dir;
  unsigned nproc = 1;
  std::size_t shards = 1;   ///< sharded front end consumer threads
  std::size_t readers = 0;  ///< concurrent query threads (open loop)
  std::uint64_t seed = 0;
  std::uint64_t round = 0;  ///< varies the query mix from round to round
  int next_dir = 0;
  /// An empty directory under work_dir for one front end's WAL.
  std::string fresh_dir(const char* tag);
};

/// The configuration every measured front end runs: admission on, WAL
/// with kInterval fsync under `dir` (empty = durability off).
ServerConfig front_end_config(const std::string& dir, bool metrics = true);

/// The uninterrupted serial run (durability off): the reference map every
/// other pass must reproduce, plus what freshness accounting needs.
struct Reference {
  std::vector<MapSegment> map;  ///< canonical()
  /// Per item: the latest fusion period among its estimates (its state is
  /// in the map once that period closed), -1 when it contributes none.
  std::vector<std::int64_t> needed_period;
  /// Mean |fused - truth| over every fused state the run published: each
  /// segment's state is scored once, at the first advance that shows it.
  double map_err_kmh = 0.0;
  std::size_t scored_updates = 0;
  /// The final map's mean error and within-8 share (the golden suite's).
  double final_err_kmh = 0.0;
  double within8 = 0.0;
  std::size_t scored_segments = 0;
  double stop_accuracy = 0.0;
};
Reference run_reference(const Setup& s, Checks& checks);

/// Query counts, latencies and the time the queries themselves took.
struct QueryTally {
  LatencyHist latency;
  std::uint64_t queries = 0;
  double busy_s = 0.0;  ///< wall time minus answer checking
};

/// Runs the seeded query mix against `qs` until `stop` is set or
/// `max_queries` are answered; every 512th answer is checked against a
/// brute-force computation over the same pinned epoch.
/// With a tracer (replay thread only) each query is a span named after
/// its family.
void run_queries(const Setup& s, const QueryService& qs, std::uint64_t seed,
                   const std::atomic<bool>* stop, std::uint64_t max_queries,
                   QueryTally& tally, Checks& checks, Tracer* tracer = nullptr);

/// One pass of the sharded front end: closed loop (as fast as it accepts)
/// or open loop on the workload's compressed schedule, with query readers
/// beside it or `probes` closed-loop query probes after it.
struct ShardedPass {
  bool open_loop = false;
  bool readers = false;
  int probes = 0;
};
struct ShardedResult {
  std::uint64_t submitted = 0;
  double elapsed_s = 0.0;  ///< first submit → drained final advance + publish
  std::vector<double> stretch_rates;  ///< see stretch_rates() (bench.h)
  std::vector<double> freshness_s;
  std::vector<double> late_s;  ///< open loop: send time minus due time
  QueryTally queries;
  double queries_per_s = 0.0;
  std::vector<double> probe_rates;  ///< queries/s of each closed-loop probe
  double wal_bytes_per_trip = 0.0;
  std::vector<double> shard_processed;
  double rss_mb = 0.0;  ///< resident set with the front end fully loaded
};
ShardedResult run_sharded(const Setup& s, const Reference& ref, Ctx& ctx,
                          const ShardedPass& pass, Checks& checks,
                          Tracer* tracer = nullptr);

/// Serial durable pass: feed to the crash point, destroy without close(),
/// time open() on a fresh server, resume, compare with the reference.
struct SerialResult {
  std::uint64_t fed = 0;
  double feed_s = 0.0;  ///< processing time of the fed uploads and events
  std::vector<double> stretch_rates;  ///< see stretch_rates() (bench.h)
  /// Median of open() timed on copies of the crashed state and on itself.
  double recovery_s = 0.0;
  std::uint64_t replayed_trips = 0;
  double rss_mb = 0.0;  ///< resident set with the recovered server loaded
  /// Live segments whose recovered fused speed or update time differs
  /// from the uninterrupted run.
  std::size_t fused_mismatches = 0;
};
/// With a tracer, checkpoint() and open() are spans; the feed that only
/// prepares the crash is not traced.
SerialResult run_serial_crash(const Setup& s, const Reference& ref, Ctx& ctx,
                              Checks& checks, Tracer* tracer = nullptr);

/// Traced-run passes.
struct StageCounters {
  std::uint64_t duplicates_rejected = 0;
  double match_calls = 0, records_considered = 0, gamma_candidates = 0,
         records_accepted = 0, bound_skipped = 0;
};
/// The serial pipeline driven stage by stage through the public calls
/// (AdmissionController, TripLogWriter, match/cluster/map, TravelEstimator,
/// ingest, advance_time, publish_epoch). Returns its wall time.
double run_serial_stages(const Setup& s, const Reference& ref, Ctx& ctx,
                         Tracer* tracer, Checks& checks,
                         StageCounters& counters);
/// The same stream through process_trip, untraced. Returns wall time.
double run_serial_plain(const Setup& s, Ctx& ctx, bool wal, bool metrics);
/// Times LodWorld::simulate_rider_day for riders forced into each tier.
void run_tier_probe(const Setup& s, std::uint64_t seed, Tracer* tracer);

}  // namespace perfbench
