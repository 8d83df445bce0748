// Durable mmap-backed NVM media (see backend.h for the contract).
//
// The whole DIMM lives in one file, mapped MAP_SHARED:
//
//   [ 4 KiB header | line bitmap | ecc bitmap | line slots | ecc slots ]
//
//   header: magic "CCNVMDIM", version, capacity in lines, the
//           battery-backed register blob (<= 256 B) and its length.
//   bitmaps: one presence bit per 64-byte line / 8-byte ECC slot.
//   slots:  dense arrays indexed by addr / kLineSize.
//
// Why mmap matters for the kill-9 harness (src/crashd): a store into a
// MAP_SHARED mapping is visible in the page cache the moment it
// retires, and SIGKILL cannot unwind it — the kernel keeps every
// completed store, in program order, and a fresh process that reopens
// the file sees exactly the prefix of writes the victim finished. That
// makes SIGKILL a faithful model of the paper's power-cut *ordering*
// assumptions without any msync in the hot path.
//
// msync is about the other failure model — losing the machine, not the
// process. SyncMode::kSync flushes the mapping at every
// persist_barrier() (the §4.2 ADR/WPQ batch boundary) and after every
// register store, so the on-disk file is as fresh as the last barrier
// even across a real power cut. The kill-9 sweep uses kNone: correct,
// and orders of magnitude cheaper. SyncMode::kBarrier is the group-commit
// middle ground used by the service layer: one whole-mapping msync per
// persist_barrier() and nothing on register stores, so the per-barrier
// cost is constant and amortizes across every op retired in the batch —
// the power-cut image is exactly the state at the last barrier.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "nvm/backend.h"

namespace ccnvm::nvm {

class FileBackend final : public Backend {
 public:
  enum class SyncMode {
    kNone,     // page-cache durability: survives SIGKILL, not power loss
    kSync,     // msync at persist points: survives power loss up to the
               // last ADR barrier
    kBarrier,  // msync only at persist_barrier(): survives power loss up
               // to the last barrier — one flush per group commit
  };

  /// Creates (truncating) a file sized for `capacity_bytes` of line
  /// storage. With `unlink_after_create` the path is unlinked right
  /// away: the mapping stays fully usable through the open fd and the
  /// storage vanishes when the process dies — anonymous durable scratch
  /// for fuzzing. CCNVM_CHECK-fails on I/O errors.
  static std::unique_ptr<FileBackend> create(const std::string& path,
                                             std::uint64_t capacity_bytes,
                                             SyncMode sync = SyncMode::kNone,
                                             bool unlink_after_create = false);

  /// Maps an existing image file, validating magic/version/size.
  /// Returns nullptr if the file is missing, truncated, or garbage — an
  /// expected condition for the crash/attack harnesses, not a bug.
  static std::unique_ptr<FileBackend> open(const std::string& path,
                                           SyncMode sync = SyncMode::kNone);

  ~FileBackend() override;
  FileBackend(const FileBackend&) = delete;
  FileBackend& operator=(const FileBackend&) = delete;

  const char* name() const override { return "file"; }

  bool read_line(Addr addr, Line& out) const override;
  void write_line(Addr addr, const Line& value) override;
  bool has_line(Addr addr) const override;
  std::size_t populated_lines() const override;
  void for_each_line(
      const std::function<void(Addr, const Line&)>& fn) const override;

  bool read_ecc(Addr addr, EccBytes& out) const override;
  void write_ecc(Addr addr, const EccBytes& value) override;
  bool has_ecc(Addr addr) const override;
  void for_each_ecc(
      const std::function<void(Addr, const EccBytes&)>& fn) const override;

  void persist_barrier() override;
  void store_registers(const std::uint8_t* data, std::size_t len) override;
  std::size_t load_registers(std::uint8_t* out,
                             std::size_t cap) const override;

  /// Snapshots into a volatile MapBackend (never aliases the file).
  std::unique_ptr<Backend> clone() const override;

  std::uint64_t capacity_lines() const { return capacity_lines_; }
  const std::string& path() const { return path_; }

 private:
  FileBackend() = default;

  std::size_t slot_of(Addr addr) const;
  bool bit(std::uint64_t offset, std::size_t slot) const;
  void set_bit(std::uint64_t offset, std::size_t slot);

  std::string path_;
  SyncMode sync_ = SyncMode::kNone;
  int fd_ = -1;
  // The MAP_SHARED view of the DIMM file: every store through this
  // pointer is durable media traffic, so nvlint flags raw writes into it
  // (N3) outside the audited line/register primitives below.
  CCNVM_PERSISTENT std::uint8_t* map_ = nullptr;
  std::uint64_t map_bytes_ = 0;
  std::uint64_t capacity_lines_ = 0;
  // The populated-line count is DRAM-derived state, recomputed from the
  // presence bitmap at open(). It used to live in the header and be
  // updated with a second store after each presence-bit flip — a kill
  // between the two stores desynchronized it from the bitmap forever
  // (found by nvlint N3: raw header writes on the line-write path).
  std::size_t line_count_ = 0;
  std::uint64_t line_bitmap_off_ = 0;
  std::uint64_t ecc_bitmap_off_ = 0;
  std::uint64_t lines_off_ = 0;
  std::uint64_t ecc_off_ = 0;
};

}  // namespace ccnvm::nvm
