// Protocol event stream for the invariant auditor (src/audit).
//
// The drain protocol's correctness argument (§4.2–§4.3) is a set of
// invariants over on-chip state (DAQ, Meta Cache, TCB registers) and the
// NVM image. SecureNvmBase and CcNvmDesign publish the protocol's events
// through this observer interface so an external auditor can re-derive and
// check those invariants after every step, without the designs knowing
// anything about the checks. Attaching an observer is opt-in and costs one
// null-pointer test per event when absent.
#pragma once

#include <cstdint>

#include "common/types.h"

namespace ccnvm::nvm {
class NvmImage;
class NvmLayout;
class MemoryController;
}  // namespace ccnvm::nvm

namespace ccnvm::secure {
class MerkleEngine;
class MetadataStore;
}  // namespace ccnvm::secure

namespace ccnvm::core {

class DirtyAddressQueue;
class MetaCacheGroup;
struct TcbRegisters;
struct DesignConfig;
struct RecoveryReport;
enum class DesignKind;

/// Crash points inside the drain protocol, for fault-injection tests —
/// these are exactly the windows §4.2 argues about.
enum class DrainCrashPoint {
  kNone,
  kMidBatch,             // some metadata lines in the WPQ, no end signal
  kAfterBatchBeforeEnd,  // whole batch queued, end signal not yet sent
  kAfterEndBeforeCommit  // end sent (batch durable), registers not reset
};

/// §4.2 drain trigger classification (indexes DesignStats'
/// drains_by_trigger).
enum class DrainTrigger {
  kDaqPressure = 0,
  kDirtyEviction = 1,
  /// A counter line hit a recovery search bound: N updates since it
  /// became dirty, or a second minor overflow while the flagged page's
  /// re-encryption is still uncommitted.
  kUpdateLimit = 2,
  kExplicit = 3
};

/// Read-only view of a design's internal state, handed to every observer
/// event. Pointers stay valid for the design's lifetime; `meta` is null in
/// timing-only mode and `daq` is null for designs without a Drainer.
struct AuditView {
  DesignKind kind{};
  const DesignConfig* config = nullptr;
  const nvm::NvmLayout* layout = nullptr;
  const nvm::NvmImage* image = nullptr;
  const nvm::MemoryController* controller = nullptr;
  const MetaCacheGroup* meta_cache = nullptr;
  const secure::MerkleEngine* merkle = nullptr;
  const secure::MetadataStore* meta = nullptr;
  const TcbRegisters* tcb = nullptr;
  const DirtyAddressQueue* daq = nullptr;
  /// Committed drain epochs so far (0 before the first commit).
  std::uint64_t epoch = 0;
};

/// Interface the designs notify. Default implementations ignore every
/// event, so observers override only what they audit.
class ProtocolObserver {
 public:
  virtual ~ProtocolObserver() = default;

  // --- Shared data path (SecureNvmBase) --------------------------------

  /// A write-back completed: counter bumped, data+DH in the WPQ, the
  /// design's metadata hook done.
  virtual void on_write_back_complete(const AuditView&, Addr /*data_addr*/) {}

  /// A valid metadata line was displaced from the Meta Cache (before the
  /// design's eviction policy ran).
  virtual void on_meta_eviction(const AuditView&, Addr /*line_addr*/,
                                bool /*dirty*/) {}

  /// One tree-walk step was taken: the child at `child_level` (0 =
  /// counter line) folded its new tag into its parent. `child_was_cached`
  /// is the child's Meta Cache residency before the triggering write-back;
  /// `stop_at_cached` is the deferred-spreading mode of this walk.
  virtual void on_propagate_step(const AuditView&, Addr /*data_addr*/,
                                 std::uint32_t /*child_level*/,
                                 bool /*child_was_cached*/,
                                 bool /*stop_at_cached*/) {}

  /// The tree walk ended at `child_level` — either at the root
  /// (`reached_root`) or by the deferred-spreading stop rule.
  virtual void on_propagate_stop(const AuditView&, Addr /*data_addr*/,
                                 std::uint32_t /*child_level*/,
                                 bool /*child_was_cached*/,
                                 bool /*stop_at_cached*/,
                                 bool /*reached_root*/) {}

  /// Power failure modelled: volatile state is gone, the image and TCB
  /// registers are what recovery will see.
  virtual void on_crash(const AuditView&) {}

  /// recover() finished (successfully or not).
  virtual void on_recovery_complete(const AuditView&,
                                    const RecoveryReport&) {}

  // --- Drain protocol (CcNvmDesign), §4.2 steps Õ-œ --------------------

  virtual void on_drain_start(const AuditView&, DrainTrigger) {}

  /// One DAQ-tracked line was streamed into the open WPQ batch.
  virtual void on_drain_batch_line(const AuditView&, Addr /*line_addr*/) {}

  /// The `end` signal was sent — the batch is durable under ADR.
  virtual void on_drain_end(const AuditView&) {}

  /// Registers committed: ROOT_old := ROOT_new, N_wb := 0, DAQ cleared.
  virtual void on_drain_commit(const AuditView&) {}
};

}  // namespace ccnvm::core
