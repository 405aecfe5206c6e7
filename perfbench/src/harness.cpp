#include "harness.h"

#include <sched.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <stdexcept>
#include <thread>

namespace perfbench {

namespace {
constexpr std::size_t kMaxNotes = 16;
}  // namespace

double wall_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: ru_maxrss survives execve, so it
  // would report the launching process's peak when that one was larger.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // VmHWM is in kB
    }
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

std::size_t available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0 && CPU_COUNT(&set) > 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

void SpanLog::record(const char* name, double start, double seconds,
                     std::size_t task) {
  std::lock_guard<std::mutex> lock(mutex_);
  events_.push_back({name, start, seconds, task});
}

double SpanLog::total(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  double sum = 0.0;
  for (const Event& e : events_) {
    if (e.name == name) sum += e.seconds;
  }
  return sum;
}

std::vector<SpanLog::Event> SpanLog::events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_;
}

Span::Span(SpanLog* log, const char* name, std::size_t task)
    : log_(log), name_(name), task_(task) {
  if (log_) start_ = wall_seconds();
}

Span::~Span() {
  if (log_) log_->record(name_, start_, wall_seconds() - start_, task_);
}

void Tally::fail(const std::string& why) {
  ++failed;
  if (notes.size() < kMaxNotes) notes.push_back(why);
}

void Tally::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) fail("output check: " + what);
}

double Workload::core_measure_seconds(const SpanLog& spans) const {
  return spans.total("core.measure");
}

}  // namespace perfbench
