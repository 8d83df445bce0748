#include "nvm/file_backend.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <bit>
#include <cstring>

// nvlint-byte-writer(put_u64)  — put_u64 into map_ is raw header traffic

namespace ccnvm::nvm {
namespace {

constexpr char kMagic[8] = {'C', 'C', 'N', 'V', 'M', 'D', 'I', 'M'};
constexpr std::uint32_t kVersion = 1;
constexpr std::uint64_t kHeaderBytes = 4096;
constexpr std::uint64_t kPage = 4096;

// Header field offsets (all little-endian, fixed width). The two
// reserved slots held populated-line/ECC counts in earlier images; they
// are written as zero and ignored now that the counts are derived from
// the presence bitmaps at open() — a kill between a presence-bit flip
// and a header count update used to desynchronize them durably.
constexpr std::uint64_t kOffMagic = 0;
constexpr std::uint64_t kOffVersion = 8;
constexpr std::uint64_t kOffCapacityLines = 16;
constexpr std::uint64_t kOffReserved0 = 24;  // was: populated line count
constexpr std::uint64_t kOffReserved1 = 32;  // was: populated ECC count
constexpr std::uint64_t kOffRegisterLen = 40;
constexpr std::uint64_t kOffRegisters = 48;
static_assert(kOffRegisters + Backend::kRegisterCapacity <= kHeaderBytes);

std::uint64_t round_up(std::uint64_t v, std::uint64_t align) {
  return (v + align - 1) / align * align;
}

void put_u64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

/// Population count of the first `slots` bits of the bitmap at `bm`.
/// set_bit never touches bits past the capacity, so whole-byte popcounts
/// over the trailing partial byte are safe. Whole 64-bit words go through
/// std::popcount; the bytes past the last whole word one at a time.
std::size_t count_bits(const std::uint8_t* bm, std::uint64_t slots) {
  const std::uint64_t bytes = (slots + 7) / 8;
  std::size_t count = 0;
  std::uint64_t byte = 0;
  for (; byte + 8 <= bytes; byte += 8) {
    std::uint64_t word;
    std::memcpy(&word, bm + byte, sizeof(word));
    count += static_cast<std::size_t>(std::popcount(word));
  }
  for (; byte < bytes; ++byte) {
    count += static_cast<std::size_t>(std::popcount(bm[byte]));
  }
  return count;
}

}  // namespace

std::unique_ptr<FileBackend> FileBackend::create(const std::string& path,
                                                 std::uint64_t capacity_bytes,
                                                 SyncMode sync,
                                                 bool unlink_after_create) {
  CCNVM_CHECK_MSG(capacity_bytes > 0 && capacity_bytes % kLineSize == 0,
                  "file backend capacity must be a whole number of lines");
  auto backend = std::unique_ptr<FileBackend>(new FileBackend());
  backend->path_ = path;
  backend->sync_ = sync;
  backend->capacity_lines_ = capacity_bytes / kLineSize;

  const std::uint64_t bitmap_bytes =
      round_up((backend->capacity_lines_ + 7) / 8, kPage);
  backend->line_bitmap_off_ = kHeaderBytes;
  backend->ecc_bitmap_off_ = backend->line_bitmap_off_ + bitmap_bytes;
  backend->lines_off_ = backend->ecc_bitmap_off_ + bitmap_bytes;
  backend->ecc_off_ =
      backend->lines_off_ + backend->capacity_lines_ * kLineSize;
  backend->map_bytes_ =
      round_up(backend->ecc_off_ + backend->capacity_lines_ * 8, kPage);

  backend->fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  CCNVM_CHECK_MSG(backend->fd_ >= 0, "file backend: cannot create image file");
  CCNVM_CHECK_MSG(
      ::ftruncate(backend->fd_, static_cast<off_t>(backend->map_bytes_)) == 0,
      "file backend: ftruncate failed");
  void* map = ::mmap(nullptr, backend->map_bytes_, PROT_READ | PROT_WRITE,
                     MAP_SHARED, backend->fd_, 0);
  CCNVM_CHECK_MSG(map != MAP_FAILED, "file backend: mmap failed");
  backend->map_ = static_cast<std::uint8_t*>(map);

  // Format the header in one staging buffer and land it with a single
  // copy: DIMM format time, before any state exists that a torn write
  // could corrupt. This is the only place the header is built wholesale.
  std::uint8_t header[kHeaderBytes] = {};
  std::memcpy(header + kOffMagic, kMagic, sizeof(kMagic));
  put_u64(header + kOffVersion, kVersion);
  put_u64(header + kOffCapacityLines, backend->capacity_lines_);
  put_u64(header + kOffReserved0, 0);
  put_u64(header + kOffReserved1, 0);
  put_u64(header + kOffRegisterLen, 0);
  // nvlint-waive-next(N3): format-time header init; no prior state to tear
  std::memcpy(backend->map_, header, kHeaderBytes);
  if (sync == SyncMode::kSync) {
    CCNVM_CHECK(::msync(backend->map_, backend->map_bytes_, MS_SYNC) == 0);
  }
  if (unlink_after_create) ::unlink(path.c_str());
  return backend;
}

std::unique_ptr<FileBackend> FileBackend::open(const std::string& path,
                                               SyncMode sync) {
  auto backend = std::unique_ptr<FileBackend>(new FileBackend());
  backend->path_ = path;
  backend->sync_ = sync;

  // A missing, truncated, or foreign file is an expected runtime
  // condition (a crashed worker may never have gotten to create(), and
  // the image is adversary-writable by design), so open() reports it as
  // nullptr instead of treating it as a programming error.
  backend->fd_ = ::open(path.c_str(), O_RDWR);
  if (backend->fd_ < 0) return nullptr;
  struct stat st{};
  if (::fstat(backend->fd_, &st) != 0) return nullptr;
  if (static_cast<std::uint64_t>(st.st_size) < kHeaderBytes) return nullptr;

  std::uint8_t header[kHeaderBytes];
  if (::pread(backend->fd_, header, kHeaderBytes, 0) !=
      static_cast<ssize_t>(kHeaderBytes)) {
    return nullptr;
  }
  if (std::memcmp(header + kOffMagic, kMagic, sizeof(kMagic)) != 0) {
    return nullptr;
  }
  if (get_u64(header + kOffVersion) != kVersion) return nullptr;
  backend->capacity_lines_ = get_u64(header + kOffCapacityLines);
  if (backend->capacity_lines_ == 0) return nullptr;

  const std::uint64_t bitmap_bytes =
      round_up((backend->capacity_lines_ + 7) / 8, kPage);
  backend->line_bitmap_off_ = kHeaderBytes;
  backend->ecc_bitmap_off_ = backend->line_bitmap_off_ + bitmap_bytes;
  backend->lines_off_ = backend->ecc_bitmap_off_ + bitmap_bytes;
  backend->ecc_off_ =
      backend->lines_off_ + backend->capacity_lines_ * kLineSize;
  backend->map_bytes_ =
      round_up(backend->ecc_off_ + backend->capacity_lines_ * 8, kPage);
  if (static_cast<std::uint64_t>(st.st_size) < backend->map_bytes_) {
    return nullptr;  // truncated body
  }

  void* map = ::mmap(nullptr, backend->map_bytes_, PROT_READ | PROT_WRITE,
                     MAP_SHARED, backend->fd_, 0);
  if (map == MAP_FAILED) return nullptr;
  backend->map_ = static_cast<std::uint8_t*>(map);
  // The populated count is derived, never trusted from the header: the
  // bitmap is the single durable source of truth.
  backend->line_count_ = count_bits(backend->map_ + backend->line_bitmap_off_,
                                    backend->capacity_lines_);
  return backend;
}

FileBackend::~FileBackend() {
  if (map_ != nullptr) ::munmap(map_, map_bytes_);
  if (fd_ >= 0) ::close(fd_);
}

std::size_t FileBackend::slot_of(Addr addr) const {
  const Addr base = line_base(addr);
  const std::uint64_t slot = base / kLineSize;
  CCNVM_CHECK_MSG(slot < capacity_lines_,
                  "file backend: address beyond image capacity");
  return static_cast<std::size_t>(slot);
}

bool FileBackend::bit(std::uint64_t offset, std::size_t slot) const {
  return (map_[offset + slot / 8] >> (slot % 8)) & 1;
}

void FileBackend::set_bit(std::uint64_t offset, std::size_t slot) {
  // The presence-bit flip is the slot's single-store commit point; the
  // payload lands first (see the write_line ordering note).
  // nvlint-waive-next(N3): one-store commit point, payload written first
  map_[offset + slot / 8] =
      static_cast<std::uint8_t>(map_[offset + slot / 8] | (1u << (slot % 8)));
}

bool FileBackend::read_line(Addr addr, Line& out) const {
  const std::size_t slot = slot_of(addr);
  if (!bit(line_bitmap_off_, slot)) return false;
  std::memcpy(out.data(), map_ + lines_off_ + slot * kLineSize, kLineSize);
  return true;
}

void FileBackend::write_line(Addr addr, const Line& value) {
  const std::size_t slot = slot_of(addr);
  // Ordering note: payload before presence bit, so a kill between the
  // two stores leaves the slot absent (reads as zero) rather than
  // half-valid-looking. Within the 64-byte payload the media model is a
  // whole-line atom, matching the single-WPQ-entry granularity of §4.2.
  // nvlint-waive-next(N3): this IS the line-granular write primitive
  std::memcpy(map_ + lines_off_ + slot * kLineSize, value.data(), kLineSize);
  if (!bit(line_bitmap_off_, slot)) {
    set_bit(line_bitmap_off_, slot);
    ++line_count_;  // DRAM-derived; rebuilt from the bitmap at open()
  }
}

bool FileBackend::has_line(Addr addr) const {
  return bit(line_bitmap_off_, slot_of(addr));
}

std::size_t FileBackend::populated_lines() const { return line_count_; }

void FileBackend::for_each_line(
    const std::function<void(Addr, const Line&)>& fn) const {
  Line line;
  for (std::uint64_t slot = 0; slot < capacity_lines_; ++slot) {
    if (!bit(line_bitmap_off_, static_cast<std::size_t>(slot))) continue;
    std::memcpy(line.data(), map_ + lines_off_ + slot * kLineSize, kLineSize);
    fn(slot * kLineSize, line);
  }
}

bool FileBackend::read_ecc(Addr addr, EccBytes& out) const {
  const std::size_t slot = slot_of(addr);
  if (!bit(ecc_bitmap_off_, slot)) return false;
  std::memcpy(out.data(), map_ + ecc_off_ + slot * 8, 8);
  return true;
}

void FileBackend::write_ecc(Addr addr, const EccBytes& value) {
  const std::size_t slot = slot_of(addr);
  // nvlint-waive-next(N3): the ECC-sideband write primitive itself
  std::memcpy(map_ + ecc_off_ + slot * 8, value.data(), 8);
  if (!bit(ecc_bitmap_off_, slot)) set_bit(ecc_bitmap_off_, slot);
}

bool FileBackend::has_ecc(Addr addr) const {
  return bit(ecc_bitmap_off_, slot_of(addr));
}

void FileBackend::for_each_ecc(
    const std::function<void(Addr, const EccBytes&)>& fn) const {
  EccBytes ecc;
  for (std::uint64_t slot = 0; slot < capacity_lines_; ++slot) {
    if (!bit(ecc_bitmap_off_, static_cast<std::size_t>(slot))) continue;
    std::memcpy(ecc.data(), map_ + ecc_off_ + slot * 8, 8);
    fn(slot * kLineSize, ecc);
  }
}

void FileBackend::persist_barrier() {
  if (sync_ == SyncMode::kSync || sync_ == SyncMode::kBarrier) {
    CCNVM_CHECK(::msync(map_, map_bytes_, MS_SYNC) == 0);
  }
  if (sync_ == SyncMode::kBarrier) {
    // msync writes dirty pages back; fsync issues the device cache
    // flush, so a kBarrier barrier is durable through the disk's
    // volatile write cache — the full §4.2 ADR-drain analog.
    CCNVM_CHECK(::fsync(fd_) == 0);
  }
}

void FileBackend::store_registers(const std::uint8_t* data, std::size_t len) {
  CCNVM_CHECK(len <= kRegisterCapacity);
  // The battery-backed register slot (§4.2) is modeled atomic: the
  // crash harness only kills at operation boundaries.
  // nvlint-waive-next(N3): battery-backed register slot, modeled atomic
  std::memcpy(map_ + kOffRegisters, data, len);
  // nvlint-waive-next(N3): length word of the same atomic register slot
  put_u64(map_ + kOffRegisterLen, len);
  if (sync_ == SyncMode::kSync) {
    // The registers are battery-backed in the paper's controller; in
    // sync mode the header page is flushed so they are never staler
    // than the lines after a barrier. kBarrier deliberately skips this:
    // the registers ride the whole-mapping msync at the next barrier,
    // modeling a controller without battery-backed registers whose
    // durability point IS the persist barrier (a group commit or the end
    // of an epoch drain).
    CCNVM_CHECK(::msync(map_, kHeaderBytes, MS_SYNC) == 0);
  }
}

std::size_t FileBackend::load_registers(std::uint8_t* out,
                                        std::size_t cap) const {
  const std::uint64_t len = get_u64(map_ + kOffRegisterLen);
  CCNVM_CHECK(len <= kRegisterCapacity);
  const std::size_t n =
      static_cast<std::size_t>(len < cap ? len : cap);
  std::memcpy(out, map_ + kOffRegisters, n);
  return static_cast<std::size_t>(len);
}

std::unique_ptr<Backend> FileBackend::clone() const {
  auto copy = std::make_unique<MapBackend>();
  for_each_line([&](Addr addr, const Line& v) { copy->write_line(addr, v); });
  for_each_ecc([&](Addr addr, const EccBytes& v) { copy->write_ecc(addr, v); });
  std::uint8_t regs[kRegisterCapacity];
  const std::size_t len = load_registers(regs, sizeof(regs));
  if (len > 0) copy->store_registers(regs, len);
  return copy;
}

}  // namespace ccnvm::nvm
