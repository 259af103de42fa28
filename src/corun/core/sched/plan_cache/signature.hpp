// Canonical signatures of scheduling requests, the key space of the plan
// cache.
//
// A scheduling request is fully determined by: the scheduler (registry id,
// seed), the planning inputs it may consult through SchedulerContext (job
// set with their standalone profiles, power cap, governor policy), and the
// model artifacts behind the predictor (machine configuration with both
// frequency ladders, degradation grid, idle power). The signature folds all
// of that into one canonical string:
//
//   - order-invariant: per-job blocks are sorted by instance name, so the
//     same job set submitted in any batch order maps to one cache line
//     (cached schedules reference jobs by name and are remapped to the
//     requesting batch's indices on a hit);
//   - content-addressed: profile rows, grid cells and ladder frequencies
//     are digested with %.17g renderings, so any profile-db drift (e.g. a
//     noise event) or re-characterization changes the signature and
//     invalidates stale entries instead of serving them.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "corun/core/sched/scheduler.hpp"

namespace corun::sched {

/// 64-bit FNV-1a, the digest used throughout the signature scheme. Stable
/// across platforms and runs (no seeding), so persistent-tier file names
/// are reproducible.
class Fnv64 {
 public:
  void update(const std::string& bytes) noexcept {
    for (const char c : bytes) {
      hash_ ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
      hash_ *= 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::uint64_t digest() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Shortest-exact double rendering (%.17g): survives a strtod round trip,
/// shared convention with the CSV artifact writers.
[[nodiscard]] std::string signature_double(double v);

/// Lower-case hex rendering of a 64-bit digest, the persistent-tier file
/// stem.
[[nodiscard]] std::string hex64(std::uint64_t v);

/// Digest of every profile row recorded for one job: the part of the
/// predictor's state that is specific to that job. Times, bandwidths,
/// powers and energies all feed scheduling decisions, so all four fields
/// participate. Besides keying cache signatures, this is the search's
/// job-type identity: the predictor (and with it the makespan evaluator)
/// is a pure function of a job's profile rows, so two jobs with equal
/// digests are interchangeable in any schedule — the equivalence dominance
/// pruning exploits.
[[nodiscard]] std::uint64_t job_profile_digest(const profile::ProfileDB& db,
                                               const std::string& job);

struct PlanSignature {
  std::string canonical;  ///< exact request identity
  std::uint64_t hash = 0; ///< FNV-1a of `canonical`
  std::vector<std::string> job_names;  ///< request's instance names, sorted
};

/// Builds the signature of one request. `scheduler_id` is the registry name
/// ("bnb", "hcs+", ...) and `seed` the value it was constructed with; both
/// are part of the identity because they select the algorithm.
[[nodiscard]] PlanSignature make_signature(const SchedulerContext& ctx,
                                           const std::string& scheduler_id,
                                           std::uint64_t seed);

/// Amortized signature construction for long-lived processes (the serving
/// daemon): the machine, grid, and idle-power digests — and each job's
/// profile digest — are pure functions of the predictor's immutable
/// artifacts, so they are computed once here and reused per request.
/// `build()` produces signatures byte-identical to `make_signature` over
/// the same predictor; the per-request cost drops to string assembly.
///
/// The builder is immutable after construction and safe to share across
/// threads. It must only be used with contexts whose predictor is the one
/// it was built from (checked), because the cached digests would otherwise
/// alias a different model's identity.
class SignatureBuilder {
 public:
  explicit SignatureBuilder(const model::CoRunPredictor& predictor);

  [[nodiscard]] PlanSignature build(const SchedulerContext& ctx,
                                    const std::string& scheduler_id,
                                    std::uint64_t seed) const;

  [[nodiscard]] const model::CoRunPredictor& predictor() const noexcept {
    return *predictor_;
  }

 private:
  const model::CoRunPredictor* predictor_;
  std::string machine_hex_;  ///< hex64(machine_digest)
  std::string grid_hex_;     ///< hex64(grid_digest)
  std::string idle_text_;    ///< signature_double(idle_power)
  std::map<std::string, std::string> job_digest_hex_;  ///< name -> hex64
};

}  // namespace corun::sched
