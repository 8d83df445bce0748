#include "nvm/controller.h"

namespace ccnvm::nvm {

void MemoryController::account_write(LineKind kind) {
  switch (kind) {
    case LineKind::kData:
      ++stats_.data_writes;
      break;
    case LineKind::kCounter:
      ++stats_.counter_writes;
      break;
    case LineKind::kMtNode:
      ++stats_.mt_writes;
      break;
    case LineKind::kDataHmac:
      ++stats_.dh_writes;
      break;
  }
}

void MemoryController::write(Addr addr, const Line& value, LineKind kind) {
  image_->write_line(addr, value);
  account_write(kind);
}

Line MemoryController::read(Addr addr) {
  ++stats_.reads;
  // Read-own-write: an open batch may hold a newer version than media.
  const std::uint32_t at = batch_index_.find(addr);
  if (at != LineIndex::kAbsent) return batch_[at].value;
  return image_->read_line(line_base(addr));
}

void MemoryController::begin_atomic_batch() {
  CCNVM_CHECK_MSG(!batch_open_, "nested atomic batches are not defined");
  CCNVM_CHECK_MSG(batch_.empty(), "stale batch entries");
  batch_open_ = true;
}

bool MemoryController::batch_write(Addr addr, const Line& value,
                                   LineKind kind) {
  CCNVM_CHECK_MSG(batch_open_, "batch_write outside start/end window");
  if (batch_.size() >= wpq_entries_) return false;
  // Coalesce re-writes of the same line within one batch (the WPQ holds
  // one entry per line address).
  const std::uint32_t at = batch_index_.find(addr);
  if (at != LineIndex::kAbsent) {
    batch_[at].value = value;
    batch_[at].kind = kind;
    return true;
  }
  batch_index_.insert(addr, static_cast<std::uint32_t>(batch_.size()));
  batch_.push_back({line_base(addr), value, kind});
  return true;
}

void MemoryController::end_atomic_batch() {
  CCNVM_CHECK_MSG(batch_open_, "end signal without start");
  // Commit point: from here ADR guarantees media durability, so the model
  // persists synchronously.
  for (const PendingWrite& w : batch_) {
    image_->write_line(w.addr, w.value);
    account_write(w.kind);
  }
  // The ADR flush boundary: a durable backend orders the batch onto
  // stable media here (msync + fsync in SyncMode::kBarrier; see
  // nvm/backend.h).
  image_->persist_barrier();
  batch_.clear();
  batch_index_.clear();
  batch_open_ = false;
}

std::size_t MemoryController::crash() {
  const std::size_t dropped = batch_.size();
  batch_.clear();
  batch_index_.clear();
  batch_open_ = false;
  return dropped;
}

}  // namespace ccnvm::nvm
