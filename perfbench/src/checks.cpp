// Correctness checks, kept outside every timed path: ground truth from the
// traffic field and the simulator's trip annotations, brute-force query
// answers, and cross-front-end identity against the serial reference.
#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <optional>
#include <unordered_map>

#include "core/epoch_publisher.h"
#include "phases.h"

namespace perfbench {

namespace {

constexpr std::size_t kCheckEvery = 512;

// Golden bands pinned in tests/test_golden_accuracy.cpp. The within-8
// share (golden floor 0.93) is reported, not checked: on these streams it
// falls below the floor on some seeds (0.920 on seed 117 of an earlier,
// 50 000-rider rushhour_serving input; see CHANGES.md), and a check that
// fails only on some seeds would make the failed share differ between
// runs.
constexpr double kGoodSpeedBand = 8.0;
constexpr double kMaxMeanErr = 4.5;
constexpr double kMinStopAccuracy = 0.93;

// Fraction of mapped clusters whose stop is the majority ground truth of
// their member samples (the golden suite's definition).
struct StopTally {
  int total = 0;
  int correct = 0;
  void add(const City& city, const TripUpload& upload,
           const TripGroundTruth& truth, const MappedTrip& mapped) {
    std::map<double, StopId> truth_by_time;
    for (std::size_t i = 0; i < upload.samples.size(); ++i) {
      truth_by_time[upload.samples[i].time] = truth.sample_stops[i];
    }
    for (const MappedCluster& mc : mapped.stops) {
      std::map<StopId, int> votes;
      for (const MatchedSample& m : mc.cluster.members) {
        const auto it = truth_by_time.find(m.sample.time);
        if (it != truth_by_time.end()) ++votes[it->second];
      }
      StopId majority = kInvalidStop;
      int best = 0;
      for (const auto& [stop, count] : votes) {
        if (count > best) {
          best = count;
          majority = stop;
        }
      }
      if (majority == kInvalidStop) continue;  // spurious-dominated cluster
      ++total;
      correct += mc.stop == city.effective_stop(majority);
    }
  }
};

std::optional<FusedSpeed> brute_lookup(const TrafficMap& map,
                                       const SegmentKey& key) {
  for (const MapSegment& seg : map.segments()) {
    if (seg.key == key) {
      return FusedSpeed{seg.speed_kmh, 0.0, seg.updated_at,
                        seg.observation_count};
    }
  }
  return std::nullopt;
}

bool same_eta(const std::vector<ArrivalPrediction>& a,
              const std::vector<ArrivalPrediction>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const ArrivalPrediction& x, const ArrivalPrediction& y) {
                      return x.stop_index == y.stop_index && x.stop == y.stop &&
                             x.eta == y.eta && x.travel_s == y.travel_s &&
                             x.from_live_traffic == y.from_live_traffic;
                    });
}

bool close_rel(double a, double b) {
  return std::abs(a - b) <= 1e-9 * std::max({1.0, std::abs(a), std::abs(b)});
}

}  // namespace

void Checks::expect(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 8) failures.push_back(what);
}

void Checks::merge(const Checks& other) {
  attempted += other.attempted;
  failed += other.failed;
  for (const std::string& f : other.failures) {
    if (failures.size() < 8) failures.push_back(f);
  }
}

Reference run_reference(const Setup& s, Checks& checks) {
  const Workload& w = s.workload;
  const City& city = s.world->city();
  TrafficServer server(city, *s.database, front_end_config(""));
  Reference ref;
  ref.needed_period.assign(w.items.size(), -1);
  StopTally stops;
  std::size_t replays_rejected = 0, clean_accepted = 0;
  // |fused - truth| at the segment's update time; nullopt off the catalog.
  const auto error_of = [&](const MapSegment& seg) -> std::optional<double> {
    const SpanInfo* info = server.catalog().adjacent(seg.key);
    if (info == nullptr) return std::nullopt;
    return std::abs(seg.speed_kmh - s.world->traffic().mean_car_speed_kmh(
                                         city.route(info->route),
                                         info->arc_from, info->arc_to,
                                         seg.updated_at));
  };
  std::unordered_map<SegmentKey, SimTime, SegmentKeyHash> scored_at;
  double update_err_sum = 0.0;
  for (const Event& ev : w.events) {
    if (ev.kind == Event::kAdvance) {
      server.advance_time(ev.time);
      for (const MapSegment& seg :
           server.snapshot(ev.time, horizon(w)).segments()) {
        const auto [it, fresh] = scored_at.try_emplace(seg.key, seg.updated_at);
        if (!fresh && it->second == seg.updated_at) continue;
        it->second = seg.updated_at;
        if (const std::optional<double> err = error_of(seg)) {
          update_err_sum += *err;
          ++ref.scored_updates;
        }
      }
    }
    if (ev.kind != Event::kUpload) continue;
    const Item& item = w.items[ev.item];
    const TripReport r = server.process_trip(item.upload);
    if (item.injected_replay) {
      replays_rejected +=
          !r.accepted() && r.reject_reason == RejectReason::kDuplicate;
      continue;
    }
    clean_accepted += r.accepted();
    for (const SpeedEstimate& e : r.estimates) {
      ref.needed_period[ev.item] = std::max<std::int64_t>(
          ref.needed_period[ev.item],
          static_cast<std::int64_t>(std::floor(e.time / kFusionPeriod)));
    }
    stops.add(city, item.upload, w.truth[static_cast<std::size_t>(item.truth)],
              r.mapped);
  }
  checks.expect(replays_rejected == w.injected_replays,
                "serial reference: every injected replay is a duplicate");
  checks.expect(clean_accepted == w.clean_uploads,
                "serial reference: every clean upload admitted");

  const TrafficMap map = server.snapshot(w.end_time, horizon(w));
  ref.map = canonical(map);
  std::size_t good = 0;
  double err_sum = 0.0;
  for (const MapSegment& seg : map.segments()) {
    const std::optional<double> err = error_of(seg);
    if (!err) continue;
    err_sum += *err;
    good += *err <= kGoodSpeedBand;
    ++ref.scored_segments;
  }
  const auto share = [](double part, double whole) {
    return whole > 0 ? part / whole : 0.0;
  };
  ref.map_err_kmh = share(update_err_sum, ref.scored_updates);
  ref.final_err_kmh = share(err_sum, ref.scored_segments);
  ref.within8 = share(static_cast<double>(good), ref.scored_segments);
  ref.stop_accuracy = share(stops.correct, stops.total);
  checks.expect(ref.scored_segments >= 20, "fused map scores >= 20 segments");
  checks.expect(ref.final_err_kmh <= kMaxMeanErr,
                "fused map error <= 4.5 km/h");
  if (w.shape.check_stops) {
    checks.expect(ref.stop_accuracy >= kMinStopAccuracy,
                  "mapped stops agree with the trip ground truth >= 0.93");
  }
  return ref;
}

namespace {

// Brute-force answers over one pinned epoch's map, for the sampled checks.

bool segment_matches(const SegmentSpeedResult& r, const TrafficMap& map,
                     const SegmentKey& key) {
  const std::optional<FusedSpeed> b = brute_lookup(map, key);
  if (r.live != b.has_value()) return false;
  return !b || (r.speed_kmh == b->mean_kmh && r.updated_at == b->updated_at &&
                r.observation_count == b->observation_count &&
                r.level == classify_speed(b->mean_kmh));
}

bool region_matches(const RegionAggregate& r, const TrafficMap& map,
                    const SegmentGeometry& geo, const BoundingBox& box) {
  std::unordered_map<SegmentKey, const MapSegment*, SegmentKeyHash> live;
  for (const MapSegment& seg : map.segments()) live[seg.key] = &seg;
  int total = 0, nlive = 0;
  double live_len = 0.0, total_len = 0.0, weighted = 0.0;
  std::array<int, 5> hist{};
  for (std::uint32_t i = 0; i < geo.size(); ++i) {
    const SegmentGeometry::Entry& e = geo.entry(i);
    if (!box.contains(e.midpoint)) continue;
    ++total;
    total_len += e.length_m;
    const auto it = live.find(e.key);
    if (it == live.end()) continue;
    ++nlive;
    live_len += e.length_m;
    weighted += it->second->speed_kmh * e.length_m;
    ++hist[static_cast<std::size_t>(it->second->level)];
  }
  // Float sums are compared to rounding: the service folds cell by cell.
  const double mean = live_len > 0.0 ? weighted / live_len : 0.0;
  return r.segments_total == total && r.segments_live == nlive &&
         r.level_histogram == hist && close_rel(r.mean_speed_kmh, mean) &&
         close_rel(r.live_length_m, live_len) &&
         close_rel(r.total_length_m, total_len);
}

bool nearest_matches(const KNearestResult& r, const TrafficMap& map,
                     const SegmentGeometry& geo, Point p, std::size_t k) {
  std::vector<std::pair<double, SegmentKey>> all;
  for (const MapSegment& seg : map.segments()) {
    if (const auto ord = geo.ordinal(seg.key)) {
      all.emplace_back(distance(p, geo.entry(*ord).midpoint), seg.key);
    }
  }
  std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first < b.first;
    if (a.second.from != b.second.from) return a.second.from < b.second.from;
    return a.second.to < b.second.to;
  });
  all.resize(std::min(all.size(), k));
  if (r.nearest.size() != all.size()) return false;
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (!(r.nearest[i].segment.key == all[i].second) ||
        r.nearest[i].distance_m != all[i].first) {
      return false;
    }
  }
  return true;
}

}  // namespace

void run_queries(const Setup& s, const QueryService& qs, std::uint64_t seed,
                   const std::atomic<bool>* stop, std::uint64_t max_queries,
                   QueryTally& tally, Checks& checks, Tracer* tracer) {
  const City& city = s.world->city();
  const EpochPublisher& publisher = qs.publisher();
  const std::vector<SegmentKey>& keys = publisher.catalog().adjacent_keys();
  const SegmentGeometry& geo = publisher.geometry();
  const BoundingBox& region = geo.region();
  const Workload& w = s.workload;
  const ArrivalPredictor predictor(publisher.catalog(),
                                   qs.config().predictor);
  Rng rng = Rng::stream(seed, 5000);
  const auto pick = [&rng](std::size_t n) {
    const int last = static_cast<int>(n) - 1;
    return static_cast<std::size_t>(rng.uniform_int(0, last));
  };
  std::uint64_t last_epoch = 0;
  bool monotone = true;
  double check_s = 0.0;
  const double start = now_s();
  for (std::uint64_t n = 0; n < max_queries; ++n) {
    if (stop && (n & 63) == 0 && stop->load(std::memory_order_relaxed)) break;
    // Mix: 60 % segment, 15 % route ETA, 15 % region, 10 % k-nearest.
    const int family = rng.uniform_int(0, 19);
    const bool check = n % kCheckEvery == kCheckEvery - 1;
    const double c0 = check ? now_s() : 0.0;
    EpochPublisher::Pin pin;
    if (check) pin = qs.pin();  // the query below re-pins this epoch
    bool ok = true;
    std::uint64_t epoch = 0;
    if (family < 12) {
      const SegmentKey key = keys[pick(keys.size())];
      Tracer::Scope span(tracer, "query.segment");
      const double t0 = now_s();
      const SegmentSpeedResult r = qs.segment_speed(key);
      tally.latency.add(now_s() - t0);
      epoch = r.epoch_id;
      if (check && pin) ok = segment_matches(r, pin->map(), key);
    } else if (family < 15) {
      const BusRoute& route = city.routes()[pick(city.routes().size())];
      const int from = static_cast<int>(pick(route.stop_count() - 1));
      const SimTime departure = rng.uniform(w.first_time, w.end_time);
      Tracer::Scope span(tracer, "query.eta");
      const double t0 = now_s();
      const RouteEtaResult r = qs.route_eta(route, from, departure);
      tally.latency.add(now_s() - t0);
      epoch = r.epoch_id;
      if (check && pin) {
        const TrafficMap& map = pin->map();
        ok = same_eta(r.arrivals,
                      predictor.predict(
                          route, from, departure,
                          [&map](const SegmentKey& key) {
                            return brute_lookup(map, key);
                          },
                          pin->time()));
      }
    } else if (family < 18) {
      const double w_m = rng.uniform(0.1, 0.4) * region.width();
      const double h_m = rng.uniform(0.1, 0.4) * region.height();
      const Point corner{rng.uniform(region.min.x, region.max.x - w_m),
                         rng.uniform(region.min.y, region.max.y - h_m)};
      const BoundingBox box{corner, Point{corner.x + w_m, corner.y + h_m}};
      Tracer::Scope span(tracer, "query.region");
      const double t0 = now_s();
      const RegionAggregate r = qs.region_aggregate(box);
      tally.latency.add(now_s() - t0);
      epoch = r.epoch_id;
      if (check && pin) ok = region_matches(r, pin->map(), geo, box);
    } else {
      const Point p{rng.uniform(region.min.x, region.max.x),
                    rng.uniform(region.min.y, region.max.y)};
      const auto k = static_cast<std::size_t>(rng.uniform_int(1, 16));
      Tracer::Scope span(tracer, "query.knn");
      const double t0 = now_s();
      const KNearestResult r = qs.k_nearest_live_segments(p, k);
      tally.latency.add(now_s() - t0);
      epoch = r.epoch_id;
      if (check && pin) ok = nearest_matches(r, pin->map(), geo, p, k);
    }
    ++tally.queries;
    if (check) {
      checks.expect(ok, "query answer equals a brute-force scan of its epoch");
      checks.expect(!pin || epoch == pin->id(),
                    "answer comes from the pinned epoch");
      check_s += now_s() - c0;
    }
    monotone = monotone && epoch >= last_epoch;
    last_epoch = std::max(last_epoch, epoch);
  }
  tally.busy_s += now_s() - start - check_s;
  checks.expect(monotone, "epoch ids never decrease per reader");
}

}  // namespace perfbench
