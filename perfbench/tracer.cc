#include "tracer.h"

#include <cstdio>
#include <cstring>

namespace perfbench {

Tracer::Tracer(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int Tracer::Begin(const char* name) {
  Record record;
  record.name = name;
  record.parent = open_.empty() ? -1 : open_.back();
  record.op = op_;
  spans_.push_back(record);
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  spans_.back().start_ns = NowNs();
  return open_.back();
}

void Tracer::Finish(int index) {
  Record& record = spans_[index];
  record.end_ns = NowNs();
  // Spans nest strictly on the one client thread: the finishing span is
  // the innermost open one.
  if (!open_.empty() && open_.back() == index) open_.pop_back();
  if (record.parent >= 0) {
    // Siblings run one after another, so the time the children of a span
    // cover is the sum of their durations.
    spans_[record.parent].child_ns += record.end_ns - record.start_ns;
  }
}

Tracer::Span::Span(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (tracer_->active_) {
    index_ = tracer_->Begin(name);
    open_ = true;
  }
}

void Tracer::Span::set_name(const char* name) {
  if (index_ >= 0) tracer_->spans_[index_].name = name;
}

void Tracer::Span::End() {
  if (!open_) return;
  tracer_->Finish(index_);
  open_ = false;
}

Samples Tracer::Durations(const std::string& name) const {
  Samples samples;
  for (const Record& record : spans_) {
    if (name != record.name) continue;
    samples.Add(static_cast<double>(record.end_ns - record.start_ns) / 1e3);
  }
  return samples;
}

Samples Tracer::SelfTimes(const std::string& name) const {
  Samples samples;
  for (const Record& record : spans_) {
    if (name != record.name) continue;
    samples.Add(static_cast<double>(record.end_ns - record.start_ns -
                                    record.child_ns) /
                1e3);
  }
  return samples;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fprintf(file, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    const std::string name = JsonEscape(r.name);
    const char* dot = std::strchr(r.name, '.');
    const std::string layer = JsonEscape(
        dot == nullptr ? std::string(r.name) : std::string(r.name, dot));
    std::fprintf(file,
                 "  {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1, "
                 "\"args\": {\"op\": %llu, \"parent\": %d, "
                 "\"self_us\": %.3f}}%s\n",
                 name.c_str(), layer.c_str(), r.start_ns / 1e3,
                 (r.end_ns - r.start_ns) / 1e3,
                 static_cast<unsigned long long>(r.op), r.parent,
                 (r.end_ns - r.start_ns - r.child_ns) / 1e3,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(file, "]}\n");
  return std::fclose(file) == 0;
}

}  // namespace perfbench
