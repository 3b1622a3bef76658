#include "trace.h"

#include <chrono>
#include <fstream>

namespace perfbench {

namespace {
std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

Tracer::Scope::Scope(Tracer* tracer, const char* name, double work)
    : tracer_(tracer) {
  if (!tracer_) return;
  index_ = static_cast<std::int32_t>(tracer_->spans_.size());
  tracer_->spans_.push_back(Span{name, now_ns(), 0, tracer_->open_, work});
  tracer_->open_ = index_;
}

Tracer::Scope::~Scope() {
  if (!tracer_) return;
  Span& span = tracer_->spans_[static_cast<std::size_t>(index_)];
  span.end_ns = now_ns();
  tracer_->open_ = span.parent;
}

void Tracer::Scope::set_work(double work) {
  if (tracer_) tracer_->spans_[static_cast<std::size_t>(index_)].work = work;
}

void Tracer::Scope::rename(const char* name) {
  if (tracer_) tracer_->spans_[static_cast<std::size_t>(index_)].name = name;
}

std::map<std::string, Tracer::Totals> Tracer::by_name() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Totals& t = out[s.name];
    const double dur = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    ++t.count;
    t.total_s += dur;
    t.self_s += dur - static_cast<double>(child_ns[i]) * 1e-9;
    t.work += s.work;
    t.durations_s.push_back(dur);
  }
  return out;
}

std::map<std::string, double> Tracer::self_by_layer() const {
  std::map<std::string, double> out;
  for (const auto& [name, t] : by_name()) {
    out[name.substr(0, name.find('.'))] += t.self_s;
  }
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  for (const Span& s : spans_) {
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
