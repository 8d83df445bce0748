#include "fuzz/fuzz.h"

#include <chrono>
#include <exception>
#include <string>

#include "common/check.h"
#include "common/thread_pool.h"

namespace ccnvm::fuzz {

std::string_view engine_name(Engine engine) {
  switch (engine) {
    case Engine::kDifferential:
      return "diff";
    case Engine::kCrash:
      return "crash";
    case Engine::kAttack:
      return "attack";
    case Engine::kTxn:
      return "txn";
  }
  return "?";
}

std::optional<Engine> parse_engine(std::string_view name) {
  if (name == "diff" || name == "differential") return Engine::kDifferential;
  if (name == "crash") return Engine::kCrash;
  if (name == "attack") return Engine::kAttack;
  if (name == "txn") return Engine::kTxn;
  return std::nullopt;
}

std::string FuzzFailure::repro(Engine engine, bool file_backend) const {
  return "ccnvm fuzz --engine=" + std::string(engine_name(engine)) +
         std::string(file_backend ? " --backend=file" : "") +
         " --replay=" + std::to_string(case_seed) +
         " --ops=" + std::to_string(ops);
}

CaseOutcome run_fuzz_case(Engine engine, std::uint64_t case_seed,
                          std::size_t max_ops,
                          core::CcNvmDesign::ProtocolMutation planted_bug,
                          bool file_backend, bool planted_torn_txn) {
  try {
    switch (engine) {
      case Engine::kDifferential:
        return detail::run_differential_case(case_seed, max_ops);
      case Engine::kCrash:
        return detail::run_crash_case(case_seed, max_ops, planted_bug,
                                      file_backend);
      case Engine::kAttack:
        return detail::run_attack_case(case_seed, max_ops);
      case Engine::kTxn:
        return detail::run_txn_case(case_seed, max_ops, planted_torn_txn,
                                    file_backend);
    }
    CaseOutcome out;
    out.ok = false;
    out.message = "unknown engine";
    return out;
  } catch (const CheckFailure& e) {
    CaseOutcome out;
    out.ok = false;
    out.message = e.what();
    return out;
  } catch (const std::exception& e) {
    CaseOutcome out;
    out.ok = false;
    out.message = std::string("unexpected exception: ") + e.what();
    return out;
  }
}

std::size_t minimize_failure(Engine engine, std::uint64_t case_seed,
                             std::size_t ops,
                             core::CcNvmDesign::ProtocolMutation planted_bug,
                             bool file_backend, bool planted_torn_txn) {
  const auto fails = [&](std::size_t budget) {
    return !run_fuzz_case(engine, case_seed, budget, planted_bug, file_backend,
                          planted_torn_txn)
                .ok;
  };
  std::size_t best = ops;
  std::size_t attempts = 0;
  constexpr std::size_t kMaxAttempts = 32;
  while (best > 1 && attempts < kMaxAttempts / 2) {
    ++attempts;
    if (fails(best / 2)) {
      best /= 2;
    } else {
      break;
    }
  }
  while (best > 1 && attempts < kMaxAttempts) {
    ++attempts;
    if (fails(best - 1)) {
      --best;
    } else {
      break;
    }
  }
  return best;
}

namespace {

/// Folds `outcomes[first_iteration + i]`-style batches into the campaign
/// result in iteration order.
void fold_batch(const std::vector<CaseOutcome>& outcomes,
                std::uint64_t first_iteration, std::uint64_t seed,
                FuzzCampaignResult& result) {
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const CaseOutcome& c = outcomes[i];
    const std::uint64_t iteration = first_iteration + i;
    ++result.iterations;
    result.ops += c.ops;
    result.crashes += c.crashes;
    result.recoveries += c.recoveries;
    result.attacks += c.attacks;
    result.reads_compared += c.reads_compared;
    result.checks += c.checks;
    result.aborts += c.aborts;
    result.abort_cuts += c.abort_cuts;
    fold_digest(result.digest, c.digest);
    if (!c.ok) {
      FuzzFailure failure;
      failure.iteration = iteration;
      failure.case_seed = derive_seed(seed, iteration);
      failure.message = c.message;
      result.failures.push_back(std::move(failure));
    }
  }
}

}  // namespace

FuzzCampaignResult run_fuzz_campaign(const FuzzConfig& config) {
  FuzzCampaignResult result;
  result.engine = config.engine;
  result.file_backend = config.file_backend;
  result.seed = config.seed;

  // One scope for the whole campaign (case workers and minimization):
  // the throw mode is a plain global, set before the pool spawns and
  // read-only from the workers. CheckThrowScopes must not nest (the inner
  // destructor would disarm the outer), which is why run_fuzz_case leaves
  // scope management to this driver and to the CLI's replay path.
  CheckThrowScope throw_scope;

  const auto run_case = [&](std::uint64_t iteration) {
    return run_fuzz_case(config.engine, derive_seed(config.seed, iteration),
                         config.max_ops, config.planted_bug,
                         config.file_backend, config.planted_torn_txn);
  };

  if (config.seconds > 0) {
    // Timed mode: deterministic per case, open-ended case count. Batches
    // of jobs*4 keep the workers busy between deadline checks.
    // The wall clock only bounds the CAMPAIGN length; each case is a
    // pure function of (seed, index), so results stay replayable
    // (--replay) no matter when the clock fires.
    // nvlint-waive-next(N4): clock bounds case count, never case behavior
    const auto deadline = std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(config.seconds));
    const std::size_t jobs =
        config.jobs == 0 ? default_parallelism() : config.jobs;
    const std::size_t batch = jobs * 4;
    std::uint64_t next_iteration = 0;
    // nvlint-waive-next(N4): clock bounds case count, never case behavior
    while (std::chrono::steady_clock::now() < deadline) {
      const std::vector<CaseOutcome> outcomes = parallel_map<CaseOutcome>(
          batch, jobs,
          [&](std::size_t i) { return run_case(next_iteration + i); });
      fold_batch(outcomes, next_iteration, config.seed, result);
      next_iteration += batch;
    }
  } else {
    const std::vector<CaseOutcome> outcomes = parallel_map<CaseOutcome>(
        config.iterations, config.jobs,
        [&](std::size_t i) { return run_case(i); });
    fold_batch(outcomes, 0, config.seed, result);
  }

  constexpr std::size_t kMinimized = 8;  // don't shrink a failure avalanche
  for (std::size_t i = 0; i < result.failures.size(); ++i) {
    FuzzFailure& failure = result.failures[i];
    failure.ops = config.max_ops;
    if (config.minimize && i < kMinimized) {
      failure.ops =
          minimize_failure(config.engine, failure.case_seed, config.max_ops,
                           config.planted_bug, config.file_backend,
                           config.planted_torn_txn);
    }
  }
  return result;
}

}  // namespace ccnvm::fuzz
