// Bench-side probes for kvbench's traced run.
//
// Every probe sits outside the library and reaches it only through public
// extension points: a timing nvm::Backend decorator (injected through the
// backend factories), a ProtocolObserver on each engine, and the service's
// after_apply/after_barrier hooks. Probes are installed for the whole
// traced run but record only while tracing() is on, and kvbench flips that
// switch only at quiescent points (no request in flight), so a request's
// client-side and drain-side records always land in the same window.
//
// Records go to per-thread logs owned by a process-wide registry, so a
// drain worker's log outlives the worker thread that wrote it. Logs are
// read only after every writer has been joined.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/protocol_observer.h"
#include "nvm/backend.h"

namespace kvbench {

/// Steady-clock nanoseconds since process start.
std::int64_t now_ns();

bool tracing();
void set_tracing(bool on);

struct Span {
  const char* name;  // string literal
  std::int64_t start;
  std::int64_t end;
};

/// One thread's records. `label` names the thread in the Chrome trace.
struct ThreadLog {
  int tid = 0;
  std::string label;
  std::vector<Span> spans;
  std::uint64_t dropped_spans = 0;
  /// Service applies in drain order, as (start, after_apply stamp). The
  /// start is this thread's first media access after its previous hook
  /// stamp (a store call reads its bucket before anything else), or the
  /// after_apply stamp itself when the apply touched no media.
  std::vector<std::pair<std::int64_t, std::int64_t>> applies;
  /// Service barriers as (last apply stamp, after_barrier stamp).
  std::vector<std::pair<std::int64_t, std::int64_t>> barriers;
  /// First timed media access since the last hook stamp; -1 = none yet.
  std::int64_t first_access = -1;
};

/// The calling thread's log (created and registered on first use).
ThreadLog& thread_log();

/// Appends a span to the calling thread's log when tracing is on (and the
/// per-thread cap is not reached).
void span(const char* name, std::int64_t start, std::int64_t end);

/// The service's after_apply_hook / after_barrier_hook: stamp the drain
/// thread's log (an apply as its first media access -> now, a barrier as
/// its last apply -> now, plus a span).
void on_after_apply();
void on_after_barrier();

/// Empties every log. Call only while no thread is recording.
void reset_logs();

/// Writes every recorded span as Chrome trace-event JSON (Perfetto opens
/// it). Each span's parent is the innermost span on the same thread that
/// encloses it. Returns false on an I/O error.
bool write_chrome_trace(const std::string& path);

/// Total spans recorded / dropped at the cap, across all threads.
std::uint64_t spans_recorded();
std::uint64_t spans_dropped();

/// What the timing decorator saw while tracing was on.
struct NvmCounters {
  std::uint64_t line_reads = 0;
  std::uint64_t line_writes = 0;
  std::int64_t read_ns = 0;
  std::int64_t write_ns = 0;
  std::vector<std::int64_t> barrier_ns;
  /// The log of the thread that last drove this backend (the shard's
  /// drain worker during service traffic).
  ThreadLog* drain_log = nullptr;
};

/// Forwards every call to the wrapped media; a probe derives from it and
/// overrides the calls it observes.
class ForwardingBackend : public ccnvm::nvm::Backend {
 public:
  explicit ForwardingBackend(std::unique_ptr<ccnvm::nvm::Backend> inner)
      : inner_(std::move(inner)) {}

  const char* name() const override { return inner_->name(); }
  bool read_line(ccnvm::Addr addr, ccnvm::Line& out) const override {
    return inner_->read_line(addr, out);
  }
  void write_line(ccnvm::Addr addr, const ccnvm::Line& value) override {
    inner_->write_line(addr, value);
  }
  bool has_line(ccnvm::Addr addr) const override {
    return inner_->has_line(addr);
  }
  std::size_t populated_lines() const override {
    return inner_->populated_lines();
  }
  void for_each_line(const std::function<void(ccnvm::Addr, const ccnvm::Line&)>&
                         fn) const override {
    inner_->for_each_line(fn);
  }
  bool read_ecc(ccnvm::Addr addr, ccnvm::nvm::EccBytes& out) const override {
    return inner_->read_ecc(addr, out);
  }
  void write_ecc(ccnvm::Addr addr, const ccnvm::nvm::EccBytes& value) override {
    inner_->write_ecc(addr, value);
  }
  bool has_ecc(ccnvm::Addr addr) const override {
    return inner_->has_ecc(addr);
  }
  void for_each_ecc(
      const std::function<void(ccnvm::Addr, const ccnvm::nvm::EccBytes&)>& fn)
      const override {
    inner_->for_each_ecc(fn);
  }
  void persist_barrier() override { inner_->persist_barrier(); }
  void store_registers(const std::uint8_t* data, std::size_t len) override {
    inner_->store_registers(data, len);
  }
  std::size_t load_registers(std::uint8_t* out,
                             std::size_t cap) const override {
    return inner_->load_registers(out, cap);
  }
  std::unique_ptr<ccnvm::nvm::Backend> clone() const override {
    return inner_->clone();
  }

 protected:
  std::unique_ptr<ccnvm::nvm::Backend> inner_;
};

/// Times every line access and persist barrier of the wrapped media.
class TimingBackend final : public ForwardingBackend {
 public:
  TimingBackend(std::unique_ptr<ccnvm::nvm::Backend> inner,
                NvmCounters* counters)
      : ForwardingBackend(std::move(inner)), counters_(counters) {}

  bool read_line(ccnvm::Addr addr, ccnvm::Line& out) const override;
  void write_line(ccnvm::Addr addr, const ccnvm::Line& value) override;
  void persist_barrier() override;

 private:
  NvmCounters* counters_;
};

/// Times each epoch drain (drain start -> register commit) and counts the
/// lines it streamed. One instance per engine.
class DrainObserver final : public ccnvm::core::ProtocolObserver {
 public:
  void on_drain_start(const ccnvm::core::AuditView&,
                      ccnvm::core::DrainTrigger) override;
  void on_drain_batch_line(const ccnvm::core::AuditView&,
                           ccnvm::Addr) override;
  void on_drain_commit(const ccnvm::core::AuditView&) override;

  std::vector<std::int64_t> drain_ns;
  std::uint64_t drain_lines = 0;

 private:
  bool open_ = false;
  std::int64_t start_ = 0;
  std::uint64_t lines_ = 0;
};

}  // namespace kvbench
