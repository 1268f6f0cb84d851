// Helpers shared by the fsrbench programs: the seeded generator, arrival
// schedules, percentiles, the workload definitions and their request
// streams, and the response checker. Everything here depends only on the
// benchmark's own seed, never on the program's random streams, so a change
// to the program cannot change the inputs it is measured on.
#ifndef FSRBENCH_CORE_H
#define FSRBENCH_CORE_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace fsrbench {

// ------------------------------------------------------------ randomness --

/// splitmix64: small, fast, and fully specified here, so the inputs a seed
/// produces never depend on a standard-library implementation.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1).
  double uniform();
  /// Uniform integer in [lo, hi].
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  bool chance(double p) { return uniform() < p; }
  /// An independent child stream.
  Rng fork() { return Rng(next() ^ 0x9e3779b97f4a7c15ULL); }

 private:
  std::uint64_t state_;
};

/// Poisson arrival offsets (seconds from the phase start) at `rate` per
/// second over `duration_s`: exponential gaps from `seed` alone.
std::vector<double> poisson_schedule(std::uint64_t seed, double rate,
                                     double duration_s);

/// Zipf(s) sampler over ranks 0..n-1 (rank 0 most popular).
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  std::size_t sample(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

// ----------------------------------------------------------- statistics --

/// Nearest-rank percentile of `samples` (any order), but only when at least
/// `min_beyond` samples lie above the rank: a p99 from 500 samples would
/// rest on five values, so it is refused (nullopt) rather than reported.
std::optional<double> percentile(std::vector<double> samples, double p,
                                 std::size_t min_beyond = 10);
/// Median (mean of the middle pair for even counts); 0 for no samples.
double median(std::vector<double> samples);
/// `samples` in time order cut into `slices` consecutive equal parts: the
/// median of the parts' percentiles, each under percentile()'s rule;
/// nullopt when any part is refused. A burst that lands in one part moves
/// one value, not the result.
std::optional<double> sliced_percentile(const std::vector<double>& samples, double p,
                                        std::size_t slices);

// ------------------------------------------------------------ workloads --

struct KindShare {
  std::string kind;  // wire spelling, e.g. "ground-truth"
  double share = 0;
};

/// One serve workload's frozen parameters. The rate sits below the capacity
/// measured on the code the benchmark was written against (serve-cold:
/// 250/s against the 700-1200/s its closed loop reached on a shared 4-vCPU
/// host), and stays fixed from then on so that later changes are measured
/// at the same offered load.
struct ServeWorkload {
  std::string name;
  double rate_rps = 0;       // open-loop Poisson rate
  double limit_ms = 0;       // latency limit behind slo_attainment
  int pipeline_depth = 0;    // closed-loop in-flight requests per connection
  std::vector<KindShare> mix;
};

const ServeWorkload& serve_hot();
const ServeWorkload& serve_cold();
const ServeWorkload* serve_workload(const std::string& name);

/// The known answer the checker holds a request to, beyond byte equality.
struct Expectation {
  /// Exact stable-assignment count (library gadgets, or an exhaustive
  /// enumeration that finished within its cap).
  std::optional<std::size_t> stable_count;
  /// Whether a stable assignment exists, when an enumeration decided it.
  std::optional<bool> has_stable;
};

/// One generated request: its wire line without a client id, and what the
/// checker expects of it.
struct GenRequest {
  std::string kind;
  std::string body;  // `"kind": ..., <payload>` without braces or id
  Expectation expect;
};

/// The wire line for `request` tagged with client id `id` (which opts the
/// line into out-of-order completion and is echoed on the response).
std::string wire_line(const GenRequest& request, std::uint64_t id);

/// The hot workload's gadget set, most popular first.
const std::vector<std::string>& hot_gadgets();
/// Known stable-assignment count of a library gadget in the hot set.
std::optional<std::size_t> gadget_stable_count(const std::string& gadget);

/// Request streams. The seed fixes everything; the same seed gives the same
/// requests. The hot stream draws gadgets by Zipf popularity and kinds by
/// the workload mix; the cold stream draws a distinct random instance for
/// every request.
class StreamGenerator {
 public:
  StreamGenerator(const ServeWorkload& workload, std::uint64_t seed);
  GenRequest next();
  /// The requests a fresh server is primed with, the same for every seed:
  /// every distinct hot request once, or 256 cold instances drawn from a
  /// stream of their own.
  static std::vector<GenRequest> priming_set(const ServeWorkload& workload);

 private:
  const ServeWorkload& workload_;
  Rng rng_;
  Zipf zipf_;
  std::uint64_t counter_ = 0;
};

/// Populations of serve-cold instances: the open loop's and the saturation
/// pool's. Each is one fixed stream, the same for every seed.
constexpr std::uint64_t kOpenPopulation = 0x4f50454e4c4f4f50ULL;  // "OPENLOOP"
constexpr std::uint64_t kPoolPopulation = 0x534154555241544eULL;  // "SATURATN"

/// `count` requests for one phase of a run. serve-hot: the stream of `seed`
/// mixed with `population`. serve-cold: the first `count` instances of the
/// fixed stream `population`, in an order `seed` shuffles. Seeds then
/// differ in arrival times and order, not in the instances a run asks
/// about, so a seed does not change how much work a run holds; every
/// request within a phase is still a distinct instance.
std::vector<GenRequest> phase_requests(const ServeWorkload& workload, std::uint64_t seed,
                                       std::uint64_t population, std::size_t count);

/// A seeded random SPP instance as an inline `spp` wire payload: `nodes`
/// non-destination nodes, a random tree to the destination plus extra
/// edges, and up to three randomly ranked simple paths per node.
std::string random_spp_json(Rng& rng, int nodes, const std::string& name);

// -------------------------------------------------------------- checker --

/// Compares a socket response line with the expected bytes for client id
/// `id` (`expected_template` is the reference rendering with id 0).
/// Returns an empty string on a match, else what differed.
std::string compare_response(const std::string& line, std::uint64_t id,
                             const std::string& expected_template);

/// Checks one response line's content against the invariants every answer
/// must meet whatever the instance: no error; exactly one of converged,
/// oscillating and cutoff, with converged implying a stable fixed point; a
/// repaired instance carries verified repairs; and a ground-truth count
/// equal to `expect` when one is known. Returns an empty string when the
/// line passes, else the first violation.
std::string check_semantics(const std::string& line, const std::string& kind,
                            const Expectation& expect);

/// `{"id": 0, ...}` with the id replaced by `id`.
std::string with_id(const std::string& template_line, std::uint64_t id);

}  // namespace fsrbench

#endif  // FSRBENCH_CORE_H
