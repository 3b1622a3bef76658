// loadgen: the benchmark's own workload generator. Every stream is a pure
// function of the seed; the program under test receives only the uploads.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

#include "bench.h"
#include "faults/fault_injection.h"

namespace perfbench {

namespace {

constexpr double kUploadLag = 30.0;      ///< trip end → upload (LodConfig)

// City-day: every rider runs the Event tier (full-rate scanning, ~68
// samples per trip), so matching dominates and each rider is a distinct
// participant id.
constexpr std::int64_t kCityDayRiders = 15'000;
// Rush hour: the default LOD mix (OnRails-dominated) over a metropolis
// population, sliced to the morning peak by upload arrival.
constexpr std::int64_t kRushHourRiders = 100'000;
constexpr double kRushBegin = 7.0 * 3600.0;
constexpr double kRushEnd = 10.0 * 3600.0;
// Testbed: the paper's 22 participants at the intensive-phase rate.
constexpr int kTestbedDays = 4;
constexpr double kTestbedIntensity = 3.0;
constexpr double kReplayProb = 0.10;

std::vector<Event> make_schedule(Workload& w) {
  std::vector<Event> ev;
  const double p = w.shape.advance_every_s;
  const double c = w.shape.checkpoint_every_s;
  const auto advance_to = [&](SimTime m) {
    ev.push_back(Event{Event::kAdvance, 0, m});
    if (std::fmod(m, c) == 0.0) ev.push_back(Event{Event::kCheckpoint, 0, m});
  };
  for (std::size_t i = 0; i < w.items.size(); ++i) {
    const SimTime a = w.items[i].arrival;
    if (i > 0) {
      const SimTime prev = w.items[i - 1].arrival;
      for (SimTime m = (std::floor(prev / p) + 1.0) * p; m <= a; m += p) {
        advance_to(m);
      }
    }
    ev.push_back(Event{Event::kUpload, i, a});
  }
  const SimTime last = w.items.back().arrival;
  w.end_time = (std::floor(last / kFusionPeriod) + 1.0) * kFusionPeriod;
  for (SimTime m = (std::floor(last / p) + 1.0) * p; m < w.end_time; m += p) {
    advance_to(m);
  }
  ev.push_back(Event{Event::kAdvance, 0, w.end_time});
  return ev;
}

// The doomed serial pass crashes a seeded 0-15 uploads after the uploads
// fed past the first checkpoint that has room before the next one carry
// `crash_samples` samples, so recovery loads a checkpoint and replays a WAL
// suffix of about the same matching work, from the same time of day,
// whatever the seed.
std::size_t choose_crash(const Workload& w, std::uint64_t seed) {
  Rng rng = Rng::stream(seed, 77);
  const auto extra = static_cast<std::size_t>(rng.uniform_int(0, 15));
  for (std::size_t e = 0; e < w.events.size(); ++e) {
    if (w.events[e].kind != Event::kCheckpoint) continue;
    std::size_t samples = 0, past = 0;
    for (std::size_t f = e + 1; f < w.events.size(); ++f) {
      const Event& ev = w.events[f];
      if (ev.kind == Event::kCheckpoint) break;
      if (ev.kind != Event::kUpload) continue;
      if (samples >= w.shape.crash_samples && past++ == extra) return f;
      samples += w.items[ev.item].upload.samples.size();
    }
  }
  throw std::runtime_error("loadgen: no checkpoint leaves room for the crash");
}

std::vector<LodTrip> as_lod_trips(const std::vector<Item>& items,
                                  const std::vector<TripGroundTruth>& truth) {
  std::vector<LodTrip> out;
  out.reserve(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    LodTrip t;
    t.rider = items[i].upload.participant_id;
    t.day = static_cast<int>(std::floor(items[i].arrival / kDaySeconds));
    t.trip_index = static_cast<int>(i);
    t.tier = FidelityTier::kEvent;
    t.trip.upload = items[i].upload;
    if (items[i].truth >= 0) {
      t.trip.truth = truth[static_cast<std::size_t>(items[i].truth)];
    }
    t.arrival = items[i].arrival;
    out.push_back(std::move(t));
  }
  return out;
}

void take_lod_trips(Workload& w, std::vector<LodTrip> trips) {
  w.digest = LodWorld::stream_digest(trips);
  for (LodTrip& t : trips) {
    Item item;
    item.upload = std::move(t.trip.upload);
    item.arrival = t.arrival;
    item.truth = static_cast<int>(w.truth.size());
    w.truth.push_back(std::move(t.trip.truth));
    w.items.push_back(std::move(item));
  }
}

// Testbed stream: World days at the intensive rate; the fault injector
// picks byte-identical replays, which re-arrive a seeded delay later.
void make_testbed(Setup& s, std::uint64_t seed, ThreadPool& pool) {
  Workload& w = s.workload;
  std::vector<std::vector<AnnotatedTrip>> days(kTestbedDays);
  pool.parallel_for(days.size(), [&](std::size_t d) {
    Rng rng = Rng::stream(seed, 100 + d);
    days[d] = s.world
                  ->simulate_day(static_cast<int>(d), kTestbedIntensity, rng)
                  .trips;
  });
  std::vector<std::pair<SimTime, AnnotatedTrip>> clean;
  for (auto& day : days) {
    for (AnnotatedTrip& t : day) {
      if (t.upload.samples.empty()) continue;
      const SimTime arrival = t.upload.samples.back().time + kUploadLag;
      clean.emplace_back(arrival, std::move(t));
    }
  }
  std::stable_sort(
      clean.begin(), clean.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });

  std::vector<TripUpload> uploads;
  uploads.reserve(clean.size());
  for (const auto& c : clean) uploads.push_back(c.second.upload);
  FaultPlan plan;
  plan.seed = seed;
  plan.duplicate_prob = kReplayProb;
  FaultStats stats;
  const std::vector<TripUpload> faulted = inject_faults(uploads, plan, &stats);
  // Duplicates-only plan: the originals come back unchanged, in order,
  // followed by the replays.
  if (faulted.size() != uploads.size() + stats.duplicated ||
      !std::equal(uploads.begin(), uploads.end(), faulted.begin())) {
    throw std::runtime_error(
        "loadgen: duplicate-only fault plan altered a trip");
  }
  std::vector<Item> items;
  for (std::size_t i = 0; i < clean.size(); ++i) {
    Item item;
    item.upload = std::move(clean[i].second.upload);
    item.arrival = clean[i].first;
    item.truth = static_cast<int>(w.truth.size());
    w.truth.push_back(std::move(clean[i].second.truth));
    items.push_back(std::move(item));
  }
  Rng delay = Rng::stream(seed, 101);
  for (std::size_t j = uploads.size(); j < faulted.size(); ++j) {
    const auto orig = static_cast<std::size_t>(
        std::find(uploads.begin(), uploads.end(), faulted[j]) -
        uploads.begin());
    Item item;
    item.upload = faulted[j];
    item.arrival = clean[orig].first + delay.uniform(60.0, 1800.0);
    item.injected_replay = true;
    item.truth = items[orig].truth;
    items.push_back(std::move(item));
  }
  std::stable_sort(
      items.begin(), items.end(),
      [](const Item& a, const Item& b) { return a.arrival < b.arrival; });
  w.items = std::move(items);
  w.injected_replays = stats.duplicated;
  w.digest = LodWorld::stream_digest(as_lod_trips(w.items, w.truth));
}

}  // namespace

Shape shape_of(const std::string& workload) {
  Shape s;
  s.name = workload;
  if (workload == "cityday_ingest") {
    s.advance_every_s = 900.0;
    s.capacity_pass = true;
    s.compression = 48'000.0;
    s.checkpoint_every_s = 6.0 * 3600.0;
    s.crash_samples = 12'000;
    s.check_stops = true;
  } else if (workload == "rushhour_serving") {
    s.advance_every_s = 60.0;
    s.checkpoint_every_s = 3600.0;
    s.compression = 6'000.0;
    s.crash_samples = 6'000;
    s.concurrent_readers = true;
  } else if (workload == "testbed_restart") {
    s.advance_every_s = 3600.0;
    s.checkpoint_every_s = kDaySeconds;
    s.compression = 90'000.0;
    s.repeats = 3;
    s.crash_samples = 8'400;
    s.check_stops = true;
  } else {
    throw std::invalid_argument("unknown workload: " + workload);
  }
  return s;
}

Setup make_setup(const std::string& name, std::uint64_t seed,
                 ThreadPool& pool) {
  Setup s;
  s.workload.shape = shape_of(name);
  Workload& w = s.workload;
  // The deployment city is fixed (WorldConfig defaults); the survey and
  // every rider draw come from the seed.
  s.world = std::make_unique<World>();
  Rng survey = Rng::stream(seed, 1000);
  s.database = std::make_unique<StopDatabase>(build_stop_database(
      s.world->city(),
      [&](StopId stop, int run) {
        return s.world->scan_stop(stop, survey, run % 2 == 1);
      },
      5));

  std::ostringstream census;
  if (name == "testbed_restart") {
    make_testbed(s, seed, pool);
    census << "World::simulate_day x" << kTestbedDays << " days, intensity "
           << kTestbedIntensity << ", duplicate_prob " << kReplayProb;
  } else {
    const bool cityday = name == "cityday_ingest";
    LodConfig c;
    c.seed = seed;
    if (cityday) {
      c.focus_fraction = 0.0;
      c.focus_cap = 0;
      c.event_fraction = 1.0;
      c.event_cap = static_cast<std::size_t>(kCityDayRiders);
    }
    w.day = static_cast<int>(seed % 5);  // a weekday
    s.lod = std::make_unique<LodWorld>(
        *s.world, cityday ? kCityDayRiders : kRushHourRiders, c);
    std::vector<LodTrip> trips = s.lod->simulate_day(w.day, &pool);
    if (!cityday) {
      const SimTime base = w.day * kDaySeconds;
      std::erase_if(trips, [&](const LodTrip& t) {
        return t.arrival < base + kRushBegin || t.arrival >= base + kRushEnd;
      });
    }
    std::size_t tiers[3] = {0, 0, 0};
    for (const LodTrip& t : trips) ++tiers[static_cast<int>(t.tier)];
    const LodCensus& k = s.lod->census();
    census << "LodWorld riders " << k.riders << " (focus " << k.focus
           << ", event " << k.event << ", on_rails " << k.on_rails << "), day "
           << w.day << (cityday ? "" : ", arrivals 07:00-10:00")
           << ", trips by tier focus/event/on_rails " << tiers[0] << "/"
           << tiers[1] << "/" << tiers[2];
    take_lod_trips(w, std::move(trips));
  }
  if (w.items.size() < 100) {
    throw std::runtime_error("loadgen: stream too small");
  }

  std::unordered_set<std::int32_t> participants;
  for (const Item& item : w.items) {
    participants.insert(item.upload.participant_id);
    w.samples += item.upload.samples.size();
    w.clean_uploads += !item.injected_replay;
  }
  w.distinct_participants = participants.size();
  w.first_time = w.items.front().arrival;
  w.events = make_schedule(w);
  w.crash_event = choose_crash(w, seed);
  census << "; uploads " << w.items.size() << " (" << w.injected_replays
         << " injected replays), " << w.distinct_participants
         << " participants, " << static_cast<double>(w.samples) / w.items.size()
         << " samples/upload";
  w.census = census.str();
  return s;
}

std::vector<MapSegment> canonical(const TrafficMap& map) {
  std::vector<MapSegment> v = map.segments();
  std::sort(v.begin(), v.end(), [](const MapSegment& a, const MapSegment& b) {
    return a.key.from != b.key.from ? a.key.from < b.key.from
                                    : a.key.to < b.key.to;
  });
  return v;
}

bool same_map(const std::vector<MapSegment>& a,
              const std::vector<MapSegment>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const MapSegment& x, const MapSegment& y) {
                      return x.key == y.key && x.speed_kmh == y.speed_kmh &&
                             x.level == y.level &&
                             x.updated_at == y.updated_at &&
                             x.observation_count == y.observation_count;
                    });
}

void LatencyHist::add(double seconds) {
  const double ns = std::max(seconds * 1e9, 1.0);
  const int b = std::min(kBuckets - 1,
                         static_cast<int>(std::log(ns) / std::log(1.01)));
  ++buckets_[static_cast<std::size_t>(b)];
  ++count_;
}

void LatencyHist::merge(const LatencyHist& other) {
  for (int b = 0; b < kBuckets; ++b) buckets_[b] += other.buckets_[b];
  count_ += other.count_;
}

double LatencyHist::quantile(double q) const {
  if (count_ == 0) return 0.0;
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count_)));
  std::uint64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    seen += buckets_[b];
    if (seen >= std::max<std::uint64_t>(rank, 1)) {
      return std::pow(1.01, b + 0.5) * 1e-9;  // bucket midpoint
    }
  }
  return std::pow(1.01, kBuckets) * 1e-9;
}

double resident_mb() {
  std::ifstream statm("/proc/self/statm");
  double size = 0.0, resident = 0.0;
  statm >> size >> resident;
  return resident * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

std::vector<double> stretch_rates(
    const std::vector<std::pair<std::uint64_t, double>>& marks,
    std::uint64_t min_uploads) {
  std::vector<double> rates;
  std::size_t from = 0;
  for (std::size_t i = 1; i < marks.size(); ++i) {
    const std::uint64_t n = marks[i].first - marks[from].first;
    if (n < min_uploads) continue;
    rates.push_back(static_cast<double>(n) /
                    (marks[i].second - marks[from].second));
    from = i;
  }
  return rates;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

}  // namespace perfbench
