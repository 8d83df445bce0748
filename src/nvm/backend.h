// Pluggable NVM media backends.
//
// NvmImage (image.h) models the DIMM an adversary can read and rewrite;
// Backend is where those bytes actually live. The split exists so the
// same design code can run against
//
//   * MapBackend            — heap-resident paged slot arrays, fast and
//                             volatile (unit tests, sweeps, benches);
//   * FileBackend           — an mmap'ed file (file_backend.h) whose
//                             contents survive SIGKILL of the process,
//                             the substrate of the out-of-process kill-9
//                             harness (src/crashd);
//   * FaultInjectingBackend — a decorator that tears lines, drops writes
//                             or persists, and injects read EIO, for the
//                             recovery / attack-locating paths.
//
// Contract:
//   * Addresses are line-aligned (callers check; backends may re-check).
//   * A line/ECC slot is "populated" once written; unwritten slots read
//     as absent (NvmImage turns that into zeroes, like a fresh DIMM).
//   * persist_barrier() orders all previously written lines onto stable
//     media. It models the ADR flush boundary: the memory controller
//     calls it when the WPQ's atomic batch closes (§4.2). Volatile
//     backends no-op; FileBackend msyncs and fsyncs in SyncMode::kBarrier.
//   * store_registers()/load_registers() persist an opaque blob alongside
//     the lines — the battery-backed TCB registers (ROOT_old/ROOT_new,
//     N_wb) that the paper keeps in the controller. A durable backend
//     must keep the blob at least as fresh as the lines at every
//     persist_barrier().
//   * clone() deep-copies the *current contents* into a volatile
//     MapBackend-backed copy (snapshots never alias the durable file).
//   * for_each_line / for_each_ecc visit populated slots in ascending
//     address order (MapBackend and FileBackend alike), so two images
//     with equal contents are visited identically whatever backs them.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/annotations.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/types.h"
#include "nvm/paged_slots.h"

namespace ccnvm::nvm {

using EccBytes = std::array<std::uint8_t, 8>;

class Backend {
 public:
  virtual ~Backend() = default;

  virtual const char* name() const = 0;

  /// Copies the line at `addr` into `out` and returns true iff populated.
  virtual bool read_line(Addr addr, Line& out) const = 0;
  virtual void write_line(Addr addr, const Line& value) = 0;
  virtual bool has_line(Addr addr) const = 0;
  virtual std::size_t populated_lines() const = 0;
  virtual void for_each_line(
      const std::function<void(Addr, const Line&)>& fn) const = 0;

  virtual bool read_ecc(Addr addr, EccBytes& out) const = 0;
  virtual void write_ecc(Addr addr, const EccBytes& value) = 0;
  virtual bool has_ecc(Addr addr) const = 0;
  virtual void for_each_ecc(
      const std::function<void(Addr, const EccBytes&)>& fn) const = 0;

  /// Orders everything written so far onto stable media (ADR boundary).
  virtual void persist_barrier() {}

  /// Persists the battery-backed register blob (<= kRegisterCapacity).
  virtual void store_registers(const std::uint8_t* data, std::size_t len) = 0;
  /// Copies up to `cap` register bytes into `out`; returns the stored
  /// length (0 when nothing was ever stored).
  virtual std::size_t load_registers(std::uint8_t* out,
                                     std::size_t cap) const = 0;

  /// Volatile deep copy of the current contents (always map-backed).
  virtual std::unique_ptr<Backend> clone() const = 0;

  static constexpr std::size_t kRegisterCapacity = 256;
};

/// The heap-resident backend: lines and ECC in paged slot arrays
/// (paged_slots.h), volatile.
class MapBackend final : public Backend {
 public:
  const char* name() const override { return "map"; }

  bool read_line(Addr addr, Line& out) const override {
    const Line* line = lines_.find(addr);
    if (line == nullptr) return false;
    out = *line;
    return true;
  }

  void write_line(Addr addr, const Line& value) override {
    lines_.at(addr) = value;
  }

  bool has_line(Addr addr) const override {
    return lines_.find(addr) != nullptr;
  }

  std::size_t populated_lines() const override { return lines_.size(); }

  void for_each_line(
      const std::function<void(Addr, const Line&)>& fn) const override {
    lines_.for_each(fn);
  }

  bool read_ecc(Addr addr, EccBytes& out) const override {
    const EccBytes* ecc = ecc_.find(addr);
    if (ecc == nullptr) return false;
    out = *ecc;
    return true;
  }

  void write_ecc(Addr addr, const EccBytes& value) override {
    ecc_.at(addr) = value;
  }

  bool has_ecc(Addr addr) const override { return ecc_.find(addr) != nullptr; }

  void for_each_ecc(
      const std::function<void(Addr, const EccBytes&)>& fn) const override {
    ecc_.for_each(fn);
  }

  void store_registers(const std::uint8_t* data, std::size_t len) override {
    CCNVM_CHECK(len <= kRegisterCapacity);
    registers_.assign(data, data + len);
  }

  std::size_t load_registers(std::uint8_t* out,
                             std::size_t cap) const override {
    const std::size_t n = registers_.size() < cap ? registers_.size() : cap;
    for (std::size_t i = 0; i < n; ++i) out[i] = registers_[i];
    return registers_.size();
  }

  std::unique_ptr<Backend> clone() const override {
    return std::make_unique<MapBackend>(*this);
  }

 private:
  // "Persistent" in the model's sense: these slots ARE the simulated
  // media contents, so nvlint tracks stores to them as NVM writes. ECC
  // has its own pages: designs write it for data lines only, so the
  // counter, tree and DH regions carry none.
  CCNVM_PERSISTENT PagedSlots<Line> lines_;
  CCNVM_PERSISTENT PagedSlots<EccBytes> ecc_;
  CCNVM_PERSISTENT std::vector<std::uint8_t> registers_;
};

/// Media-fault model: decorates any backend with torn lines (the first
/// half of the 64-byte write lands, the second half keeps the old
/// contents), silently dropped writes, dropped persist barriers, and
/// read EIO (reported as an absent line — the caller sees zeroes, which
/// the integrity tree then refuses to authenticate). Fault decisions are
/// drawn from a deterministic per-backend RNG so failing scenarios
/// replay exactly.
class FaultInjectingBackend final : public Backend {
 public:
  struct FaultConfig {
    std::uint64_t seed = 1;
    double torn_line_rate = 0.0;
    double dropped_write_rate = 0.0;
    double dropped_persist_rate = 0.0;
    double read_eio_rate = 0.0;
  };

  struct FaultCounters {
    std::uint64_t torn_lines = 0;
    std::uint64_t dropped_writes = 0;
    std::uint64_t dropped_persists = 0;
    std::uint64_t read_eios = 0;
  };

  FaultInjectingBackend(std::unique_ptr<Backend> inner, FaultConfig config)
      : inner_(std::move(inner)), config_(config), rng_(config.seed) {
    CCNVM_CHECK(inner_ != nullptr);
  }

  const char* name() const override { return "fault"; }

  bool read_line(Addr addr, Line& out) const override {
    if (config_.read_eio_rate > 0.0 && rng_.chance(config_.read_eio_rate)) {
      ++counters_.read_eios;
      return false;  // EIO surfaces as an unreadable (all-zero) line.
    }
    return inner_->read_line(addr, out);
  }

  void write_line(Addr addr, const Line& value) override {
    if (config_.dropped_write_rate > 0.0 &&
        rng_.chance(config_.dropped_write_rate)) {
      ++counters_.dropped_writes;
      return;
    }
    if (config_.torn_line_rate > 0.0 && rng_.chance(config_.torn_line_rate)) {
      ++counters_.torn_lines;
      Line torn = value;
      Line old{};
      if (inner_->read_line(addr, old)) {
        for (std::size_t i = kLineSize / 2; i < kLineSize; ++i) {
          torn[i] = old[i];  // second 32-byte beat never reaches media
        }
      } else {
        for (std::size_t i = kLineSize / 2; i < kLineSize; ++i) torn[i] = 0;
      }
      inner_->write_line(addr, torn);
      return;
    }
    inner_->write_line(addr, value);
  }

  bool has_line(Addr addr) const override { return inner_->has_line(addr); }
  std::size_t populated_lines() const override {
    return inner_->populated_lines();
  }
  void for_each_line(
      const std::function<void(Addr, const Line&)>& fn) const override {
    inner_->for_each_line(fn);
  }

  bool read_ecc(Addr addr, EccBytes& out) const override {
    return inner_->read_ecc(addr, out);
  }
  void write_ecc(Addr addr, const EccBytes& value) override {
    inner_->write_ecc(addr, value);
  }
  bool has_ecc(Addr addr) const override { return inner_->has_ecc(addr); }
  void for_each_ecc(
      const std::function<void(Addr, const EccBytes&)>& fn) const override {
    inner_->for_each_ecc(fn);
  }

  void persist_barrier() override {
    if (config_.dropped_persist_rate > 0.0 &&
        rng_.chance(config_.dropped_persist_rate)) {
      ++counters_.dropped_persists;
      return;
    }
    inner_->persist_barrier();
  }

  void store_registers(const std::uint8_t* data, std::size_t len) override {
    inner_->store_registers(data, len);
  }
  std::size_t load_registers(std::uint8_t* out,
                             std::size_t cap) const override {
    return inner_->load_registers(out, cap);
  }

  std::unique_ptr<Backend> clone() const override { return inner_->clone(); }

  const FaultCounters& counters() const { return counters_; }
  Backend& inner() { return *inner_; }

 private:
  std::unique_ptr<Backend> inner_;
  FaultConfig config_;
  mutable Rng rng_;
  mutable FaultCounters counters_;
};

}  // namespace ccnvm::nvm
