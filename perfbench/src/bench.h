// Shared types of the composed benchmark: the generated workload, the
// replay schedule every front end walks, and the measurement sinks.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/stop_database.h"
#include "core/traffic_map.h"
#include "sensing/trip.h"
#include "trafficsim/lod_world.h"
#include "trafficsim/world.h"

namespace perfbench {

using namespace bussense;

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

constexpr double kDaySeconds = 86400.0;

/// One upload of the generated stream, in arrival order.
struct Item {
  TripUpload upload;
  SimTime arrival = 0.0;
  /// Byte-identical replay added by the fault injector; must be rejected
  /// as kDuplicate.
  bool injected_replay = false;
  /// Index into Workload::truth (a replay shares its original's).
  int truth = -1;
};

/// The replay schedule: uploads, fusion-time advances (each followed by
/// an epoch publish) and checkpoints, in the order every pass runs them.
struct Event {
  enum Kind : std::uint8_t { kUpload, kAdvance, kCheckpoint };
  Kind kind = kUpload;
  std::size_t item = 0;  ///< kUpload: index into Workload::items
  SimTime time = 0.0;    ///< sim time the event is due
};

/// Fixed per-workload shape (not seed-dependent).
struct Shape {
  std::string name;
  double advance_every_s = 900.0;
  double checkpoint_every_s = kDaySeconds;
  /// A closed-loop sharded pass (as fast as the front end accepts) gives
  /// trips_per_s; otherwise it is the rate the open-loop pass sustained.
  bool capacity_pass = false;
  /// Open-loop sharded pass: simulated seconds replayed per wall second.
  /// Freshness is always measured here, where sends follow a schedule.
  double compression = 1.0;
  /// Samples carried by the uploads fed after the chosen checkpoint before
  /// the crash: recovery replays about this much matching work whatever
  /// the seed's mix of tiers.
  std::size_t crash_samples = 20'000;
  /// Query readers run beside the open-loop writer; otherwise a
  /// closed-loop query probe follows each sharded pass.
  bool concurrent_readers = false;
  /// Query probes and serial crash passes per round. Where the open-loop
  /// pass is long, more of them give those metrics as many samples per
  /// run as the other workloads get.
  int repeats = 1;
  /// Mapped stops are checked against the trip ground truth where trips
  /// are sensed through the beep channel, whose stop accuracy the golden
  /// suite pins (not on closed-form OnRails trips).
  bool check_stops = false;
};

Shape shape_of(const std::string& workload);  ///< throws on unknown names

constexpr double kFusionPeriod = 300.0;  ///< FusionConfig::update_period_s

struct Workload {
  Shape shape;
  std::vector<Item> items;
  std::vector<TripGroundTruth> truth;
  std::vector<Event> events;
  SimTime end_time = 0.0;     ///< final advance: every estimate's period closed
  SimTime first_time = 0.0;   ///< sim time mapped to wall 0 (open loop)
  std::size_t crash_event = 0;  ///< doomed serial pass stops before this event
  std::size_t clean_uploads = 0;
  std::size_t injected_replays = 0;
  std::size_t distinct_participants = 0;
  std::size_t samples = 0;
  std::uint64_t digest = 0;  ///< LodWorld::stream_digest (testbed: same hash)
  std::string census;        ///< human-readable make-up of the input
  int day = 0;               ///< first simulated day of the stream
};

/// Everything one setup produces. The World outlives the LodWorld.
struct Setup {
  std::unique_ptr<World> world;
  std::unique_ptr<StopDatabase> database;
  std::unique_ptr<LodWorld> lod;  ///< null for testbed_restart
  Workload workload;
};

/// Snapshot window that keeps every estimate of the stream.
inline SimTime horizon(const Workload& w) {
  return w.end_time - w.first_time + kDaySeconds;
}

/// Builds world, fingerprint survey and stream from the seed.
Setup make_setup(const std::string& workload, std::uint64_t seed,
                 ThreadPool& pool);

/// Sorted-by-key copy of a map's segments: the canonical form compared
/// across front ends (field-by-field, exact).
std::vector<MapSegment> canonical(const TrafficMap& map);
bool same_map(const std::vector<MapSegment>& a,
              const std::vector<MapSegment>& b);

/// Log-bucketed latency histogram (about 1 % resolution), one per thread,
/// merged after the run.
class LatencyHist {
 public:
  void add(double seconds);
  void merge(const LatencyHist& other);
  double quantile(double q) const;  ///< seconds

 private:
  static constexpr int kBuckets = 2400;  ///< 1 ns .. ~10^10 ns at 1 %
  std::vector<std::uint64_t> buckets_ = std::vector<std::uint64_t>(kBuckets, 0);
  std::uint64_t count_ = 0;
};

/// Resident set size of this process now, in MiB (/proc/self/statm).
double resident_mb();

/// Throughput marks: (uploads handed in so far, wall time), taken after
/// each fusion-time advance. Returns the upload rate of consecutive
/// stretches of at least `min_uploads` uploads, each ending at an advance,
/// so a burst of host interference spoils only the stretches it overlaps.
std::vector<double> stretch_rates(
    const std::vector<std::pair<std::uint64_t, double>>& marks,
    std::uint64_t min_uploads);
constexpr std::uint64_t kStretchUploads = 100;

double median(std::vector<double> v);
double quantile(std::vector<double> v, double q);

}  // namespace perfbench
