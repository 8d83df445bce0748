#include "probes.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>

namespace kvbench {
namespace {

const std::chrono::steady_clock::time_point g_epoch =
    std::chrono::steady_clock::now();
std::atomic<bool> g_tracing{false};

// Bounds trace memory and file size; later spans are counted, not kept.
constexpr std::size_t kMaxSpansPerThread = 60'000;

std::mutex g_logs_mu;
std::vector<std::unique_ptr<ThreadLog>> g_logs;  // guarded by g_logs_mu

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - g_epoch)
      .count();
}

bool tracing() { return g_tracing.load(std::memory_order_relaxed); }
void set_tracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }

ThreadLog& thread_log() {
  thread_local ThreadLog* log = nullptr;
  if (log == nullptr) {
    const std::lock_guard<std::mutex> lock(g_logs_mu);
    g_logs.push_back(std::make_unique<ThreadLog>());
    log = g_logs.back().get();
    log->tid = static_cast<int>(g_logs.size());
  }
  return *log;
}

void span(const char* name, std::int64_t start, std::int64_t end) {
  if (!tracing()) return;
  ThreadLog& log = thread_log();
  if (log.spans.size() >= kMaxSpansPerThread) {
    ++log.dropped_spans;
    return;
  }
  log.spans.push_back({name, start, end});
}

void on_after_apply() {
  if (!tracing()) return;
  ThreadLog& log = thread_log();
  const std::int64_t t = now_ns();
  log.applies.emplace_back(log.first_access >= 0 ? log.first_access : t, t);
  log.first_access = -1;
}

void on_after_barrier() {
  if (!tracing()) return;
  ThreadLog& log = thread_log();
  const std::int64_t t = now_ns();
  const std::int64_t start =
      log.applies.empty() ? t : log.applies.back().second;
  log.barriers.emplace_back(start, t);
  log.first_access = -1;  // the checkpoint's own media accesses
  span("service.barrier", start, t);
}

void reset_logs() {
  const std::lock_guard<std::mutex> lock(g_logs_mu);
  for (auto& log : g_logs) {
    log->spans.clear();
    log->dropped_spans = 0;
    log->applies.clear();
    log->barriers.clear();
    log->first_access = -1;
  }
}

std::uint64_t spans_recorded() {
  const std::lock_guard<std::mutex> lock(g_logs_mu);
  std::uint64_t n = 0;
  for (const auto& log : g_logs) n += log->spans.size();
  return n;
}

std::uint64_t spans_dropped() {
  const std::lock_guard<std::mutex> lock(g_logs_mu);
  std::uint64_t n = 0;
  for (const auto& log : g_logs) n += log->dropped_spans;
  return n;
}

bool write_chrome_trace(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  bool first = true;
  const auto sep = [&] {
    if (!first) std::fputs(",\n", f);
    first = false;
  };
  const std::lock_guard<std::mutex> lock(g_logs_mu);
  std::uint64_t next_id = 1;
  for (const auto& log : g_logs) {
    if (log->spans.empty()) continue;
    sep();
    std::fprintf(f,
                 "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,"
                 "\"args\":{\"name\":\"%s\"}}",
                 log->tid,
                 log->label.empty() ? "thread" : log->label.c_str());
    // Outer spans first at equal starts, so a stack walk finds parents.
    std::vector<std::size_t> order(log->spans.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      const Span& x = log->spans[a];
      const Span& y = log->spans[b];
      return x.start != y.start ? x.start < y.start : x.end > y.end;
    });
    struct Open {
      std::uint64_t id;
      const Span* span;
    };
    std::vector<Open> stack;
    for (const std::size_t i : order) {
      const Span& s = log->spans[i];
      while (!stack.empty() && stack.back().span->end < s.end) stack.pop_back();
      const std::uint64_t id = next_id++;
      sep();
      std::fprintf(f,
                   "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu",
                   s.name, log->tid, static_cast<double>(s.start) / 1e3,
                   static_cast<double>(s.end - s.start) / 1e3,
                   static_cast<unsigned long long>(id));
      if (!stack.empty()) {
        std::fprintf(f, ",\"parent\":%llu,\"parent_name\":\"%s\"",
                     static_cast<unsigned long long>(stack.back().id),
                     stack.back().span->name);
      }
      std::fputs("}}", f);
      stack.push_back({id, &s});
    }
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

namespace {

void note_access(NvmCounters* counters, std::int64_t t0) {
  ThreadLog& log = thread_log();
  if (log.first_access < 0) log.first_access = t0;
  counters->drain_log = &log;
}

}  // namespace

bool TimingBackend::read_line(ccnvm::Addr addr, ccnvm::Line& out) const {
  if (!tracing()) return inner_->read_line(addr, out);
  const std::int64_t t0 = now_ns();
  const bool found = inner_->read_line(addr, out);
  counters_->read_ns += now_ns() - t0;
  ++counters_->line_reads;
  note_access(counters_, t0);
  return found;
}

void TimingBackend::write_line(ccnvm::Addr addr, const ccnvm::Line& value) {
  if (!tracing()) {
    inner_->write_line(addr, value);
    return;
  }
  const std::int64_t t0 = now_ns();
  inner_->write_line(addr, value);
  counters_->write_ns += now_ns() - t0;
  ++counters_->line_writes;
  note_access(counters_, t0);
}

void TimingBackend::persist_barrier() {
  if (!tracing()) {
    inner_->persist_barrier();
    return;
  }
  const std::int64_t t0 = now_ns();
  inner_->persist_barrier();
  const std::int64_t t1 = now_ns();
  counters_->barrier_ns.push_back(t1 - t0);
  counters_->drain_log = &thread_log();
  span("nvm.persist_barrier", t0, t1);
}

void DrainObserver::on_drain_start(const ccnvm::core::AuditView&,
                                   ccnvm::core::DrainTrigger) {
  open_ = tracing();
  start_ = now_ns();
  lines_ = 0;
}

void DrainObserver::on_drain_batch_line(const ccnvm::core::AuditView&,
                                        ccnvm::Addr) {
  ++lines_;
}

void DrainObserver::on_drain_commit(const ccnvm::core::AuditView&) {
  if (!open_) return;
  open_ = false;
  const std::int64_t t = now_ns();
  drain_ns.push_back(t - start_);
  drain_lines += lines_;
  span("core.drain", start_, t);
}

}  // namespace kvbench
