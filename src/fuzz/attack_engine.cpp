// Attack engine: random §2.1 adversary vs. the §4.4 recovery procedure.
//
// Each case populates a cc design, commits, takes an attacker snapshot of
// the NVM image, advances the state past the snapshot, crashes, injects
// one randomly chosen attacks::* mutation into the image, and then runs
// recovery — asserting the report matches the contract in core/recovery.h
// exactly: spoofed/spliced data or DH and post-commit data replays are
// *located* by HMAC exhaustion; tampered or replayed metadata is located
// by the two-root tree walk; a wholesale rollback is located against the
// committed root; and the deferred-spreading window replay is detected
// (N_retry != N_wb) but located only on cc-NVM+, whose per-block update
// registers pinpoint the victim block.
//
// The barrier baselines (Triad-NVM, Phoenix) ride the same harness: they
// persist metadata on every write-back, so there is no open epoch — the
// "window" replay degenerates to a committed replay and must be located
// outright, with no potential_replay hedge.

#include <algorithm>
#include <array>
#include <vector>

#include "attacks/injector.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/types.h"
#include "core/cc_nvm.h"
#include "core/design.h"
#include "fuzz/fuzz.h"

namespace ccnvm::fuzz::detail {
namespace {

constexpr std::uint64_t kAttackPages = 64;

enum class Attack {
  kSpoofData,
  kSpoofDh,
  kSpoofCounter,
  kSpoofNode,
  kSpliceData,
  kReplayDataCommitted,  // replay into a committed epoch: located by step 2
  kReplayDataWindow,     // replay inside the open epoch: step 3's territory
  kReplayCounter,
  kReplayNode,
  kReplayEverything,
};
constexpr std::size_t kNumAttacks = 10;

Line attack_line(std::uint64_t tag) {
  Line l{};
  for (std::size_t i = 0; i < kLineSize; ++i) {
    l[i] = static_cast<std::uint8_t>(tag * 151 + i * 7);
  }
  return l;
}

bool contains(const std::vector<Addr>& addrs, Addr a) {
  return std::find(addrs.begin(), addrs.end(), a) != addrs.end();
}

bool contains_node(const std::vector<nvm::NodeId>& nodes,
                   const nvm::NodeId& id) {
  return std::find(nodes.begin(), nodes.end(), id) != nodes.end();
}

}  // namespace

CaseOutcome run_attack_case(std::uint64_t case_seed, std::size_t max_ops) {
  CaseOutcome out;
  Rng rng(case_seed);

  const core::DesignKind kind =
      std::array{core::DesignKind::kCcNvmNoDs, core::DesignKind::kCcNvm,
                 core::DesignKind::kCcNvmPlus, core::DesignKind::kTriadNvm,
                 core::DesignKind::kPhoenix}[rng.below(5)];
  const auto attack = static_cast<Attack>(rng.below(kNumAttacks));
  const bool barrier_design = core::commits_every_write_back(kind);

  core::DesignConfig cfg;
  cfg.data_capacity = kAttackPages * kPageSize;
  if (kind == core::DesignKind::kTriadNvm) {
    // Frontier above the victim tree node's level: the node-tamper
    // contract below demands an exact {1, idx} locate, which needs the
    // victim's *parent* stored too (a parent rebuilt from the tampered
    // child is self-consistent and pins only the subtree around it).
    cfg.persist_level = 2;
  }
  auto design = core::make_design(kind, cfg);
  auto* cc = dynamic_cast<core::CcNvmDesign*>(design.get());
  CCNVM_CHECK_MSG(barrier_design || cc != nullptr,
                  "attack fuzz needs a CcNvmDesign");

  // Populate distinct lines (distinct contents, so splices always move a
  // genuinely different value) and commit the epoch.
  const std::size_t populate = 4 + rng.below(std::max<std::size_t>(max_ops, 1));
  std::vector<Addr> written;
  std::uint64_t tag = 0;
  for (std::size_t i = 0; i < populate; ++i) {
    ++out.ops;
    const Addr a =
        rng.below(kAttackPages * kPageSize / kLineSize) * kLineSize;
    design->write_back(a, attack_line(++tag));
    if (!contains(written, a)) written.push_back(a);
  }
  if (cc != nullptr) cc->force_drain();  // barrier designs commit per-op

  // The attacker's snapshot of the committed image.
  const nvm::NvmImage snapshot = design->image();

  // Advance the state past the snapshot so every replay restores
  // genuinely stale bytes. The window variant stays inside the open epoch
  // (no commit, and only the victim's short path dirtied, so no natural
  // drain can commit behind our back); every other attack recommits.
  const std::uint64_t victim_index = rng.below(written.size());
  const Addr victim = written[victim_index];
  const Addr victim2 =
      written.size() > 1
          ? written[(victim_index + 1 + rng.below(written.size() - 1)) %
                    written.size()]
          : victim;
  const std::size_t rewrites = 1 + rng.below(3);
  for (std::size_t i = 0; i < rewrites; ++i) {
    ++out.ops;
    design->write_back(victim, attack_line(++tag));
  }
  if (attack != Attack::kReplayDataWindow && cc != nullptr) cc->force_drain();

  design->crash_power_loss();
  ++out.crashes;

  const std::uint64_t victim_page = victim / kPageSize;
  const nvm::NodeId victim_counter_node{0, victim_page};
  const nvm::NodeId victim_tree_node{1, victim_page / nvm::NvmLayout::kArity};
  ++out.attacks;
  switch (attack) {
    case Attack::kSpoofData:
      attacks::spoof_data(*design, victim, rng);
      break;
    case Attack::kSpoofDh:
      attacks::spoof_dh(*design, victim, rng);
      break;
    case Attack::kSpoofCounter:
      attacks::spoof_counter(*design, victim, rng);
      break;
    case Attack::kSpoofNode:
      attacks::spoof_node(*design, victim_tree_node, rng);
      break;
    case Attack::kSpliceData:
      if (victim2 == victim) {
        attacks::spoof_data(*design, victim, rng);  // degenerate: one line
      } else {
        attacks::splice_data(*design, victim, victim2);
      }
      break;
    case Attack::kReplayDataCommitted:
    case Attack::kReplayDataWindow:
      attacks::replay_data(*design, snapshot, victim);
      break;
    case Attack::kReplayCounter:
      attacks::replay_counter(*design, snapshot, victim);
      break;
    case Attack::kReplayNode:
      attacks::replay_node(*design, snapshot, victim_tree_node);
      break;
    case Attack::kReplayEverything:
      attacks::replay_everything(*design, snapshot);
      break;
  }

  const core::RecoveryReport report = design->recover();
  if (report.metadata_recovered) ++out.recoveries;
  CCNVM_CHECK_MSG(report.attack_detected,
                  "attack fuzz: injected attack went undetected");
  CCNVM_CHECK_MSG(!report.clean,
                  "attack fuzz: recovery reported clean despite an attack");
  out.checks += 2;

  switch (attack) {
    case Attack::kSpoofData:
    case Attack::kSpoofDh:
    case Attack::kSpliceData:
    case Attack::kReplayDataCommitted:
      CCNVM_CHECK_MSG(report.attack_located,
                      "attack fuzz: spoofed/spliced data not located");
      CCNVM_CHECK_MSG(contains(report.tampered_blocks, victim),
                      "attack fuzz: located blocks miss the victim");
      out.checks += 2;
      break;
    case Attack::kSpoofCounter:
    case Attack::kReplayCounter:
      CCNVM_CHECK_MSG(report.attack_located,
                      "attack fuzz: tampered counter line not located");
      CCNVM_CHECK_MSG(contains_node(report.replayed_nodes, victim_counter_node),
                      "attack fuzz: located nodes miss the counter line");
      out.checks += 2;
      break;
    case Attack::kSpoofNode:
    case Attack::kReplayNode:
      CCNVM_CHECK_MSG(report.attack_located,
                      "attack fuzz: tampered tree node not located");
      CCNVM_CHECK_MSG(contains_node(report.replayed_nodes, victim_tree_node),
                      "attack fuzz: located nodes miss the tree node");
      out.checks += 2;
      break;
    case Attack::kReplayDataWindow:
      if (barrier_design) {
        // Every write-back committed, so the "window" replay restores
        // stale-but-stamped data: located by the HMAC scan, and never
        // hedged as a mere potential replay.
        CCNVM_CHECK_MSG(report.attack_located &&
                            contains(report.tampered_blocks, victim),
                        "attack fuzz: barrier design failed to locate a "
                        "committed-state replay");
        CCNVM_CHECK_MSG(!report.potential_replay,
                        "attack fuzz: barrier design hedged a located replay");
        out.checks += 2;
        break;
      }
      CCNVM_CHECK_MSG(report.potential_replay,
                      "attack fuzz: window replay not flagged as replay");
      if (kind == core::DesignKind::kCcNvmPlus) {
        CCNVM_CHECK_MSG(report.attack_located,
                        "attack fuzz: cc-NVM+ failed to locate the window "
                        "replay");
        CCNVM_CHECK_MSG(contains(report.tampered_blocks, victim),
                        "attack fuzz: cc-NVM+ located blocks miss the victim");
      } else {
        CCNVM_CHECK_MSG(!report.attack_located,
                        "attack fuzz: window replay located without "
                        "per-block registers");
      }
      out.checks += 2;
      break;
    case Attack::kReplayEverything:
      CCNVM_CHECK_MSG(report.attack_located && !report.replayed_nodes.empty(),
                      "attack fuzz: wholesale rollback not located against "
                      "the committed root");
      ++out.checks;
      break;
  }

  fold_digest(out.digest, static_cast<std::uint64_t>(attack));
  fold_digest(out.digest, victim);
  fold_digest(out.digest, report.tampered_blocks.size());
  fold_digest(out.digest, report.replayed_nodes.size());
  fold_digest(out.digest, report.total_retries);
  return out;
}

}  // namespace ccnvm::fuzz::detail
