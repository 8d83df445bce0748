#include "nvm/image_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

namespace ccnvm::nvm {
namespace {

constexpr char kMagic[8] = {'C', 'C', 'N', 'V', 'M', 'I', 'M', 'G'};
constexpr std::uint32_t kVersion = 1;

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

bool put_u64(std::FILE* f, std::uint64_t v) {
  std::uint8_t buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<std::uint8_t>(v >> (8 * i));
  return std::fwrite(buf, 8, 1, f) == 1;
}

bool get_u64(std::FILE* f, std::uint64_t* v) {
  std::uint8_t buf[8];
  if (std::fread(buf, 8, 1, f) != 1) return false;
  *v = 0;
  for (int i = 7; i >= 0; --i) *v = (*v << 8) | buf[i];
  return true;
}

/// fsyncs the directory containing `path` so the rename itself is
/// durable (POSIX makes the rename atomic, not persistent).
void sync_parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int fd = ::open(dir.empty() ? "/" : dir.c_str(), O_RDONLY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
}

}  // namespace

bool save_image(const std::string& path, const NvmImage& image) {
  // Canonical record order: every section ascending by address, the
  // order in which every backend and the wear counters visit (backend.h
  // contract), so two images with equal contents serialize to identical
  // bytes no matter which backend (map or file) produced them or in what
  // order lines were written — the backend-equivalence tests diff these
  // files.
  std::vector<std::pair<Addr, Line>> lines;
  lines.reserve(image.populated_lines());
  image.for_each_line(
      [&](Addr addr, const Line& value) { lines.emplace_back(addr, value); });
  std::vector<std::pair<Addr, std::array<std::uint8_t, 8>>> eccs;
  image.for_each_ecc([&](Addr addr, const std::array<std::uint8_t, 8>& ecc) {
    eccs.emplace_back(addr, ecc);
  });
  std::vector<std::pair<Addr, std::uint64_t>> wear;
  image.for_each_worn_line(
      [&](Addr addr, std::uint64_t count) { wear.emplace_back(addr, count); });

  // Crash-safe commit: write everything to a temp file, fsync it, then
  // atomically rename over the destination. A crash at any point leaves
  // either the old complete image or the new complete image — never a
  // half-written file at `path`.
  const std::string tmp = path + ".tmp";
  {
    FilePtr f(std::fopen(tmp.c_str(), "wb"));
    if (!f) return false;

    std::uint8_t header[12];
    std::memcpy(header, kMagic, 8);
    for (int i = 0; i < 4; ++i) {
      header[8 + i] = static_cast<std::uint8_t>(kVersion >> (8 * i));
    }
    bool ok = std::fwrite(header, sizeof(header), 1, f.get()) == 1;

    ok = ok && put_u64(f.get(), lines.size());
    for (const auto& [addr, value] : lines) {
      ok = ok && put_u64(f.get(), addr) &&
           std::fwrite(value.data(), kLineSize, 1, f.get()) == 1;
    }
    ok = ok && put_u64(f.get(), eccs.size());
    for (const auto& [addr, ecc] : eccs) {
      ok = ok && put_u64(f.get(), addr) &&
           std::fwrite(ecc.data(), 8, 1, f.get()) == 1;
    }
    ok = ok && put_u64(f.get(), wear.size());
    for (const auto& [addr, count] : wear) {
      ok = ok && put_u64(f.get(), addr) && put_u64(f.get(), count);
    }
    ok = ok && std::fflush(f.get()) == 0 && ::fsync(::fileno(f.get())) == 0;
    if (!ok) {
      f.reset();
      std::remove(tmp.c_str());
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  sync_parent_dir(path);
  return true;
}

bool load_image(const std::string& path, NvmImage& image) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) return false;

  // Strong guarantee: parse and validate the whole file into staging
  // vectors first; `image` is only touched after everything checked out,
  // so a truncated or garbage file never leaves it half-mutated.
  std::uint8_t header[12];
  if (std::fread(header, sizeof(header), 1, f.get()) != 1) return false;
  if (std::memcmp(header, kMagic, 8) != 0) return false;
  std::uint32_t version = 0;
  for (int i = 3; i >= 0; --i) version = (version << 8) | header[8 + i];
  if (version != kVersion) return false;

  std::uint64_t line_count = 0;
  if (!get_u64(f.get(), &line_count)) return false;
  std::vector<std::pair<Addr, Line>> lines;
  for (std::uint64_t i = 0; i < line_count; ++i) {
    std::uint64_t addr = 0;
    Line value;
    if (!get_u64(f.get(), &addr)) return false;
    if (!is_line_aligned(addr)) return false;
    if (std::fread(value.data(), kLineSize, 1, f.get()) != 1) return false;
    lines.emplace_back(addr, value);
  }

  std::uint64_t ecc_count = 0;
  if (!get_u64(f.get(), &ecc_count)) return false;
  std::vector<std::pair<Addr, std::array<std::uint8_t, 8>>> eccs;
  for (std::uint64_t i = 0; i < ecc_count; ++i) {
    std::uint64_t addr = 0;
    std::array<std::uint8_t, 8> ecc{};
    if (!get_u64(f.get(), &addr)) return false;
    if (!is_line_aligned(addr)) return false;
    if (std::fread(ecc.data(), 8, 1, f.get()) != 1) return false;
    eccs.emplace_back(addr, ecc);
  }

  std::uint64_t wear_count = 0;
  if (!get_u64(f.get(), &wear_count)) return false;
  std::vector<std::pair<Addr, std::uint64_t>> wear;
  for (std::uint64_t i = 0; i < wear_count; ++i) {
    std::uint64_t addr = 0, count = 0;
    if (!get_u64(f.get(), &addr) || !get_u64(f.get(), &count)) return false;
    if (!is_line_aligned(addr)) return false;
    wear.emplace_back(addr, count);
  }
  if (std::fgetc(f.get()) != EOF) return false;  // trailing garbage

  for (const auto& [addr, value] : lines) image.restore_line(addr, value);
  for (const auto& [addr, ecc] : eccs) image.restore_ecc(addr, ecc);
  for (const auto& [addr, count] : wear) image.restore_wear(addr, count);
  return true;
}

}  // namespace ccnvm::nvm
