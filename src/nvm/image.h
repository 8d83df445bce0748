// Sparse NVM contents.
//
// NvmImage is the ground truth of what survives a power failure: a map
// from line address to 64-byte contents. It is deliberately *dumb* — no
// crypto, no layout knowledge — because that is what the threat model
// says about off-chip memory: bytes an adversary can read and overwrite
// at will. Attack injection (src/attacks) mutates an NvmImage directly;
// replay attacks restore lines from an earlier snapshot of it.
//
// Where the bytes actually live is pluggable (nvm/backend.h): the
// default is the heap-resident paged MapBackend; a file-backed image
// (nvm/file_backend.h) survives SIGKILL of the whole process and feeds
// the out-of-process crash harness. NvmImage keeps the simulation-side
// bookkeeping (write counts, wear, the write observer, the
// record-contents switch) above the backend so every backend sees the
// same accounting. That bookkeeping is the simulator's, not the DIMM's:
// it does not survive a power cycle, which carries only what the backend
// holds (lines, ECC and the register blob; see core/persistence.h).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>

#include "common/annotations.h"
#include "common/check.h"
#include "common/types.h"
#include "nvm/backend.h"

namespace ccnvm::nvm {

class NvmImage {
 public:
  /// Default: volatile in-memory MapBackend.
  NvmImage() : backend_(std::make_unique<MapBackend>()) {}

  /// Adopts a specific media backend (file-backed, fault-injecting, ...).
  explicit NvmImage(std::unique_ptr<Backend> backend)
      : backend_(std::move(backend)) {
    CCNVM_CHECK(backend_ != nullptr);
  }

  /// Copying snapshots the contents into a fresh volatile map backend —
  /// a snapshot of a file-backed image never aliases (or becomes) the
  /// durable file.
  NvmImage(const NvmImage& other)
      : backend_(other.backend_->clone()),
        wear_(other.wear_),
        write_observer_(other.write_observer_),
        write_count_(other.write_count_),
        record_contents_(other.record_contents_) {}

  NvmImage& operator=(const NvmImage& other) {
    if (this != &other) {
      backend_ = other.backend_->clone();
      wear_ = other.wear_;
      write_observer_ = other.write_observer_;
      write_count_ = other.write_count_;
      record_contents_ = other.record_contents_;
    }
    return *this;
  }

  NvmImage(NvmImage&&) = default;
  NvmImage& operator=(NvmImage&&) = default;

  /// Reads the line at `addr` (must be line-aligned). Never-written lines
  /// read as zero, like a fresh DIMM.
  Line read_line(Addr addr) const {
    CCNVM_CHECK(is_line_aligned(addr));
    Line out;
    if (!backend_->read_line(addr, out)) return zero_line();
    return out;
  }

  void write_line(Addr addr, const Line& value) {
    CCNVM_CHECK(is_line_aligned(addr));
    if (record_contents_) backend_->write_line(addr, value);
    ++write_count_;
    ++wear_.at(addr);
    if (write_observer_) write_observer_(addr);
  }

  /// Registers a callback invoked on every line write (address tracing —
  /// e.g. capturing a design's write stream for wear-levelling studies).
  void set_write_observer(std::function<void(Addr)> observer) {
    write_observer_ = std::move(observer);
  }

  /// Lifetime write count of one line (wear accounting; see nvm/wear.h).
  std::uint64_t wear_of(Addr addr) const {
    const std::uint64_t* count = wear_.find(addr);
    return count == nullptr ? 0 : *count;
  }

  /// Visits every line ever written with its write count, ascending.
  template <typename Fn>
  void for_each_worn_line(Fn&& fn) const {
    wear_.for_each(fn);
  }

  void reset_wear() { wear_.clear(); }

  /// Timing-only simulations disable content recording: writes are still
  /// counted but the backend stays empty, keeping multi-gigabyte-footprint
  /// sweeps cheap.
  void set_record_contents(bool record) { record_contents_ = record; }

  // --- ECC side band ------------------------------------------------------
  // Standard ECC DIMMs carry 8 ECC bytes alongside each 64 B line; they
  // travel with the line (no extra write transaction). Osiris's recovery
  // uses them as a counter oracle (see secure/ecc.h).

  void write_ecc(Addr addr, const std::array<std::uint8_t, 8>& ecc) {
    CCNVM_CHECK(is_line_aligned(addr));
    if (record_contents_) backend_->write_ecc(addr, ecc);
  }

  std::array<std::uint8_t, 8> read_ecc(Addr addr) const {
    EccBytes out;
    if (!backend_->read_ecc(line_base(addr), out)) return EccBytes{};
    return out;
  }

  bool has_ecc(Addr addr) const { return backend_->has_ecc(line_base(addr)); }

  // --- Untracked media store ---------------------------------------------
  // Unlike write_line, this sets a line without counting a write or wear:
  // an adversary's tamper or a test's staged media state, not a memory
  // operation.

  void restore_line(Addr addr, const Line& value) {
    CCNVM_CHECK(is_line_aligned(addr));
    backend_->write_line(addr, value);
  }

  /// Visits every ECC side-band entry, ascending.
  template <typename Fn>
  void for_each_ecc(Fn&& fn) const {
    backend_->for_each_ecc(
        [&](Addr addr, const EccBytes& ecc) { fn(addr, ecc); });
  }

  bool has_line(Addr addr) const {
    return backend_->has_line(line_base(addr));
  }

  /// Deep copy, used for replay-attack snapshots and crash modelling.
  /// Always lands in a volatile map backend (Backend::clone contract).
  NvmImage snapshot() const { return *this; }

  /// Visits every populated line in ascending address order.
  template <typename Fn>
  void for_each_line(Fn&& fn) const {
    backend_->for_each_line(
        [&](Addr addr, const Line& value) { fn(addr, value); });
  }

  /// Total line writes ever applied (functional count; the timing-visible
  /// traffic accounting lives in the memory-controller stats).
  std::uint64_t write_count() const { return write_count_; }

  std::size_t populated_lines() const { return backend_->populated_lines(); }

  // --- Durability hooks (no-ops on the volatile map backend) --------------

  /// ADR flush boundary: orders everything written so far onto stable
  /// media. The memory controller invokes this when a WPQ atomic batch
  /// closes (§4.2).
  void persist_barrier() { backend_->persist_barrier(); }

  /// Mirrors the battery-backed TCB registers next to the lines so a
  /// durable backend carries the full crash state (see core/tcb.h for
  /// the blob encoding).
  void store_registers(const std::uint8_t* data, std::size_t len) {
    backend_->store_registers(data, len);
  }
  std::size_t load_registers(std::uint8_t* out, std::size_t cap) const {
    return backend_->load_registers(out, cap);
  }

  const Backend& backend() const { return *backend_; }
  Backend& backend() { return *backend_; }

 private:
  CCNVM_PERSISTENT std::unique_ptr<Backend> backend_;
  // Exact lifetime write count per line, for every backend.
  PagedSlots<std::uint64_t> wear_;
  std::function<void(Addr)> write_observer_;
  std::uint64_t write_count_ = 0;
  bool record_contents_ = true;
};

}  // namespace ccnvm::nvm
