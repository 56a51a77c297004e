#include "trace.hpp"

#include <cstdio>
#include <stdexcept>

#include "result_json.hpp"

namespace perfbench {

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

int Tracer::intern(const std::string& name) {
  const auto [it, inserted] = ids_.try_emplace(name, static_cast<int>(names_.size()));
  if (inserted) {
    names_.push_back(name);
  }
  return it->second;
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                              origin_)
      .count();
}

std::size_t Tracer::open(int name) {
  if (!enabled_) {
    return kNoSpan;
  }
  const int parent = stack_.empty() ? -1 : static_cast<int>(stack_.back());
  records_.push_back(Record{name, parent, now_ns(), 0});
  stack_.push_back(records_.size() - 1);
  return records_.size() - 1;
}

void Tracer::close(std::size_t index) {
  if (!enabled_) {
    return;
  }
  if (stack_.empty() || stack_.back() != index) {
    throw std::logic_error("spans must close in the reverse order they opened");
  }
  records_[index].end_ns = now_ns();
  stack_.pop_back();
}

void Tracer::add(int name, int parent, std::int64_t start_ns, std::int64_t end_ns) {
  if (parent >= static_cast<int>(records_.size()) || end_ns < start_ns) {
    throw std::invalid_argument("span parent must precede it and end after it starts");
  }
  records_.push_back(Record{name, parent, start_ns, end_ns});
}

std::vector<double> Tracer::self_seconds() const {
  // Spans are recorded on one thread, so the children of a span are disjoint
  // and nested inside it: self = duration - sum of child durations.
  std::vector<std::int64_t> self_ns(records_.size());
  for (std::size_t i = 0; i < records_.size(); ++i) {
    self_ns[i] = records_[i].end_ns - records_[i].start_ns;
  }
  for (const Record& r : records_) {
    if (r.parent >= 0) {
      self_ns[static_cast<std::size_t>(r.parent)] -= r.end_ns - r.start_ns;
    }
  }
  std::vector<double> out(records_.size());
  for (std::size_t i = 0; i < records_.size(); ++i) {
    out[i] = static_cast<double>(self_ns[i]) * 1e-9;
  }
  return out;
}

std::vector<Tracer::Row> Tracer::by_name() const {
  const std::vector<double> self = self_seconds();
  std::map<std::string, Row> rows;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const std::string& name = name_of(records_[i].name);
    Row& row = rows[name];
    row.name = name;
    ++row.calls;
    row.total_s += static_cast<double>(records_[i].end_ns - records_[i].start_ns) * 1e-9;
    row.self_s += self[i];
  }
  std::vector<Row> out;
  for (auto& [name, row] : rows) {
    out.push_back(row);
  }
  return out;
}

std::map<std::string, double> Tracer::self_by_layer() const {
  std::map<std::string, double> out;
  for (const Row& row : by_name()) {
    out[layer_of(row.name)] += row.self_s;
  }
  return out;
}

std::string Tracer::chrome_json() const {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[160];
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    const std::string& name = name_of(r.name);
    out += i == 0 ? "\n" : ",\n";
    out += "{\"name\":" + json_string(name) + ",\"cat\":" + json_string(layer_of(name));
    std::snprintf(buf, sizeof(buf),
                  ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"id\":%zu,\"parent\":%d}}",
                  static_cast<double>(r.start_ns) * 1e-3,
                  static_cast<double>(r.end_ns - r.start_ns) * 1e-3, i, r.parent);
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

std::string layer_of(const std::string& span_name) {
  return span_name.substr(0, span_name.find('.'));
}

}  // namespace perfbench
