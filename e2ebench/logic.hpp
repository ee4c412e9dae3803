// Pure logic of the end-to-end benchmark harness: input generation,
// arrival schedules, request mixes, percentiles, value tallies and spans.
//
// Everything here is a deterministic function of its arguments (seeded
// generators only), so tests/test_logic.cpp can pin it without running the
// engine.  harness.cpp composes these pieces with the pobp public API.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "pobp/gen/random_jobs.hpp"
#include "pobp/schedule/job.hpp"
#include "pobp/schedule/schedule.hpp"
#include "pobp/util/rng.hpp"

namespace e2e {

// --- percentiles ------------------------------------------------------------

/// The highest percentile (capped at `cap`) that still has at least ten of
/// `n` samples beyond it under the nearest-rank rule; 50 when even the
/// median has fewer than ten beyond it.  A tail statistic drawn from fewer
/// samples is noise, so a run reports the tail it can support.
inline double tail_percentile(std::size_t n, double cap = 99.0) {
  for (double p = cap; p > 50.0; p = std::round((p - 0.1) * 10.0) / 10.0) {
    const auto rank =
        static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
    if (n >= rank + 10) return p;
  }
  return 50.0;
}

/// Nearest-rank percentile of `sorted` (ascending, non-empty).
inline double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

/// Median and supported tail of a sample.
struct Dist {
  double p50 = 0;
  double tail = 0;      ///< value at tail_pct
  double tail_pct = 0;  ///< tail_percentile(n)
  std::size_t n = 0;
};

inline Dist summarize(std::vector<double> values, double cap = 99.0) {
  Dist d;
  d.n = values.size();
  if (values.empty()) return d;
  std::sort(values.begin(), values.end());
  d.p50 = percentile(values, 50.0);
  d.tail_pct = tail_percentile(values.size(), cap);
  d.tail = percentile(values, d.tail_pct);
  return d;
}

/// Median of a small sample (mean of the middle pair for even sizes).
inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t h = values.size() / 2;
  return values.size() % 2 ? values[h] : 0.5 * (values[h - 1] + values[h]);
}

/// Totals of a timed phase and of the reference probes run between its
/// pieces of work (see harness.cpp, "machine-speed reference").  A shared
/// host's speed moves the program and the probe alike, so scaling by the
/// probe's measured over its nominal time reports the program's rate and
/// cost at the nominal speed.
struct Scaled {
  double jobs = 0;      ///< input jobs answered in the timed pieces
  double wall_s = 0;    ///< wall time of those pieces
  double cpu_s = 0;     ///< process CPU time of those pieces
  double probes = 0;    ///< probes run
  double probe_wall_s = 0;
  double probe_cpu_s = 0;

  double raw_jobs_per_s() const { return jobs / wall_s; }
  double raw_cpu_us_per_job() const { return cpu_s / jobs * 1e6; }
  /// `seconds` of wall time measured alongside these probes, at the speed
  /// where one probe takes `nominal_wall_s`.
  double nominal_seconds(double seconds, double nominal_wall_s) const {
    return seconds * nominal_wall_s / (probe_wall_s / probes);
  }
  /// Jobs per second at the speed where one probe takes `nominal_wall_s`.
  double jobs_per_s(double nominal_wall_s) const {
    return jobs / nominal_seconds(wall_s, nominal_wall_s);
  }
  /// CPU µs per job at the speed where one probe costs `nominal_cpu_s`.
  double cpu_us_per_job(double nominal_cpu_s) const {
    return raw_cpu_us_per_job() * nominal_cpu_s / (probe_cpu_s / probes);
  }
};

// --- inputs -----------------------------------------------------------------

/// One instance to generate: size and solve parameters.
struct InstanceSpec {
  std::size_t n = 0;
  std::size_t k = 1;
  std::size_t machines = 1;
};

/// The job generator every workload uses: the `pobp generate` defaults
/// (log-uniform lengths in [1, 1024], laxity U[1, 6], horizon 16·1024,
/// uniform integer values in [1, 100]).
inline pobp::JobSet make_jobs(std::size_t n, pobp::Rng& rng) {
  pobp::JobGenConfig config;
  config.n = n;
  config.max_length = 1024;
  config.max_laxity = 6.0;
  config.horizon = 16 * config.max_length;
  return pobp::random_jobs(config, rng);
}

/// exp(U[log lo, log hi]) rounded, clamped to [lo, hi].
inline std::size_t log_uniform(double u, std::size_t lo, std::size_t hi) {
  const double x = std::exp(std::log(static_cast<double>(lo)) +
                            u * (std::log(static_cast<double>(hi)) -
                                 std::log(static_cast<double>(lo))));
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::llround(x)), lo,
                                 hi);
}

/// Fisher–Yates with the seeded engine (std::shuffle's algorithm is
/// implementation-defined, which would make inputs differ across libraries).
template <typename T>
void shuffle(std::vector<T>& v, pobp::Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(v[i - 1], v[j]);
  }
}

/// The batch corpus: `count` instances with n log-uniform in [lo, hi],
/// stratified (one draw per equal-width stratum of log n), and each
/// (k, machines) pair of {1, 4} × {1, 4} given one size from every four
/// neighbouring strata in seeded order.  Total work per pass, and each
/// pair's share of it, is then nearly the same for every seed.
inline std::vector<InstanceSpec> corpus_specs(std::uint64_t seed,
                                              std::size_t count,
                                              std::size_t lo, std::size_t hi) {
  pobp::Rng rng(seed);
  std::vector<InstanceSpec> specs(count);
  std::vector<std::size_t> pair{0, 1, 2, 3};
  for (std::size_t i = 0; i < count; ++i) {
    if (i % 4 == 0) shuffle(pair, rng);
    const double u = (static_cast<double>(i) + rng.uniform01()) /
                     static_cast<double>(count);
    specs[i].n = log_uniform(u, lo, hi);
    specs[i].k = (pair[i % 4] % 2 == 0) ? 1 : 4;
    specs[i].machines = (pair[i % 4] / 2 == 0) ? 1 : 4;
  }
  shuffle(specs, rng);  // the pass order
  return specs;
}

/// Open-loop Poisson arrivals: send offsets (seconds from the start of the
/// timed phase) with exponential gaps of mean 1/rate, up to `seconds`.
inline std::vector<double> poisson_schedule(std::uint64_t seed, double rate,
                                            double seconds) {
  pobp::Rng rng(seed);
  std::vector<double> at;
  at.reserve(static_cast<std::size_t>(rate * seconds * 1.1) + 16);
  double t = 0;
  for (;;) {
    t += -std::log(1.0 - rng.uniform01()) / rate;
    if (t >= seconds) break;
    at.push_back(t);
  }
  return at;
}

/// How a serve request relates to earlier ones.
enum class Kind : std::uint8_t {
  kFresh,  ///< new random instance
  kExact,  ///< exact repeat of a recent request (same jobs, k, machines)
  kNear,   ///< recent request with 1–2 job values changed
};

/// Request kinds for a duplicate stream: every aligned block of four holds
/// two exact repeats, one near repeat and one fresh request in seeded
/// order, so the mix is exactly 50/25/25 over whole blocks.  The first
/// `fresh_prefix` requests are fresh (nothing recent to repeat yet).
inline std::vector<Kind> dup_kinds(std::uint64_t seed, std::size_t count,
                                   std::size_t fresh_prefix) {
  pobp::Rng rng(seed);
  std::vector<Kind> kinds(count, Kind::kFresh);
  std::vector<Kind> block = {Kind::kExact, Kind::kExact, Kind::kNear,
                             Kind::kFresh};
  for (std::size_t b = 0; b < count; b += 4) {
    shuffle(block, rng);
    for (std::size_t i = b; i < std::min(count, b + 4); ++i) {
      kinds[i] = i < fresh_prefix ? Kind::kFresh : block[i - b];
    }
  }
  return kinds;
}

/// One generated serve request.
struct Request {
  pobp::JobSet jobs;
  std::size_t k = 1;
  std::size_t machines = 1;
  std::size_t tenant = 0;
  Kind kind = Kind::kFresh;
};

/// Shape of a serve stream.
struct StreamShape {
  std::size_t n_lo = 16, n_hi = 128;
  std::size_t tenants = 4;
  bool duplicates = false;  ///< serve_dup mix; otherwise every request fresh
  std::size_t window = 512;  ///< repeats draw from the last `window` requests
  std::size_t gap = 64;      ///< ... but never from the latest `gap` ones
};

/// Generates requests one at a time (so a long stream need not be held in
/// memory as JobSets).  Repeats copy a request from the window
/// [i − window, i − gap]; the gap keeps the source's answer published
/// before its repeat arrives at the planned rates.
class StreamGen {
 public:
  StreamGen(std::uint64_t seed, std::size_t count, StreamShape shape)
      : shape_(shape),
        rng_(seed ^ 0x5eedf00dULL),
        kinds_(shape.duplicates ? dup_kinds(seed, count, shape.gap)
                                : std::vector<Kind>(count, Kind::kFresh)),
        ring_(shape.window) {}

  std::size_t size() const { return kinds_.size(); }

  Request next() {
    const std::size_t i = next_++;
    Request r;
    r.kind = kinds_.at(i);
    r.tenant = static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(shape_.tenants) - 1));
    if (r.kind == Kind::kFresh) {
      r.k = rng_.bernoulli(0.5) ? 1 : 4;
      r.machines = rng_.bernoulli(0.5) ? 1 : 2;
      r.jobs = make_jobs(log_uniform(rng_.uniform01(), shape_.n_lo,
                                     shape_.n_hi),
                         rng_);
    } else {
      const std::size_t back = static_cast<std::size_t>(rng_.uniform_int(
          static_cast<std::int64_t>(shape_.gap),
          static_cast<std::int64_t>(std::min(shape_.window, i))));
      const Request& src = ring_[(i - back) % shape_.window];
      r.k = src.k;
      r.machines = src.machines;
      r.jobs = src.jobs;
      if (r.kind == Kind::kNear) r.jobs = mutate(src.jobs);
    }
    Request& slot = ring_[i % shape_.window];
    slot.jobs = r.jobs;
    slot.k = r.k;
    slot.machines = r.machines;
    return r;
  }

 private:
  /// Changes the value of one or two distinct jobs.
  pobp::JobSet mutate(const pobp::JobSet& jobs) {
    std::vector<pobp::Job> v(jobs.begin(), jobs.end());
    const std::size_t changes = (rng_.bernoulli(0.5) || v.size() < 2) ? 1 : 2;
    const auto first = static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(v.size()) - 1));
    for (std::size_t c = 0; c < changes; ++c) {
      pobp::Job& job = v[(first + c) % v.size()];
      const double old = job.value;
      while (job.value == old) {
        job.value = static_cast<double>(rng_.uniform_int(1, 100));
      }
    }
    return pobp::JobSet(std::move(v));
  }

  StreamShape shape_;
  pobp::Rng rng_;
  std::vector<Kind> kinds_;
  std::vector<Request> ring_;
  std::size_t next_ = 0;
};

// --- encoding ---------------------------------------------------------------

inline void append_jobs(std::string& out, const pobp::JobSet& jobs) {
  char buf[128];
  out += "\"jobs\":[";
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const pobp::Job& j = jobs[static_cast<pobp::JobId>(i)];
    std::snprintf(buf, sizeof buf, "%s[%lld,%lld,%lld,%.17g]", i ? "," : "",
                  static_cast<long long>(j.release),
                  static_cast<long long>(j.deadline),
                  static_cast<long long>(j.length), j.value);
    out += buf;
  }
  out += ']';
}

/// One corpus line of the `pobp batch` JSONL format.
inline std::string jsonl_instance(const std::string& name,
                                  const pobp::JobSet& jobs) {
  std::string out = "{\"name\":\"" + name + "\",";
  append_jobs(out, jobs);
  out += '}';
  return out;
}

/// One `pobp serve` request frame with the solve cache armed read_write.
inline std::string wire_frame(const std::string& id, const Request& r) {
  std::string out = "{\"id\":\"" + id + "\",\"tenant\":\"t" +
                    std::to_string(r.tenant) + "\",\"k\":" +
                    std::to_string(r.k) + ",\"machines\":" +
                    std::to_string(r.machines) + ",\"cache\":\"read_write\",";
  append_jobs(out, r.jobs);
  out += '}';
  return out;
}

// --- answer value -----------------------------------------------------------

/// Σ val over the jobs a schedule holds, recomputed from the input.
inline double schedule_value(const pobp::JobSet& jobs,
                             const pobp::Schedule& schedule) {
  double sum = 0;
  for (const pobp::MachineSchedule& m : schedule.machines()) {
    for (const pobp::Assignment& a : m.assignments()) sum += jobs[a.job].value;
  }
  return sum;
}

/// value_share and price_mean accumulators.  price_mean averages the
/// finite prices; an answer that lost everything (price +inf) still counts
/// in value_share.
struct ValueTally {
  double result_value = 0;  ///< Σ val(result)
  double input_value = 0;   ///< Σ val(all input jobs)
  double price_sum = 0;     ///< Σ price over answers with a finite price
  std::size_t priced = 0;   ///< answers with a finite price
  std::size_t answers = 0;

  void add(const pobp::JobSet& jobs, double value, double price) {
    result_value += value;
    input_value += jobs.total_value();
    if (std::isfinite(price)) {
      price_sum += price;
      ++priced;
    }
    ++answers;
  }
  /// A request or instance that got no valid result (error report, shed):
  /// its jobs count in the denominator and nothing in the numerator.
  void add_lost(const pobp::JobSet& jobs) { input_value += jobs.total_value(); }
  /// Adds `other`'s sums; folding per-request tallies in request order
  /// keeps the floating-point sums independent of completion order.
  void merge(const ValueTally& other) {
    result_value += other.result_value;
    input_value += other.input_value;
    price_sum += other.price_sum;
    priced += other.priced;
    answers += other.answers;
  }
  double value_share() const {
    return input_value > 0 ? result_value / input_value : 0.0;
  }
  double price_mean() const {
    return priced ? price_sum / static_cast<double>(priced) : 0.0;
  }
};

// --- spans ------------------------------------------------------------------

/// One traced interval.  `parent` indexes the enclosing span (-1 = root);
/// spans of one request share `request`.  `async` marks spans that overlap
/// other requests' spans (a request's whole life, its queue sojourn).
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::uint64_t request = 0;
  bool async = false;
};

/// Self time of every span: its duration minus the part of it covered by
/// the union of its direct children (children clipped to the parent).
inline std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                            s.end_ns);
    }
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, s.start_ns);
      hi = std::min(hi, s.end_ns);
      if (hi <= lo) continue;
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
      } else {
        if (open) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
        open = true;
      }
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

/// Chrome trace-event JSON of the spans in `ranges` ([begin, end) index
/// pairs; microseconds); open it in chrome://tracing or ui.perfetto.dev.
/// Synchronous spans are "X" events on the harness thread's track; async
/// spans are "b"/"e" pairs keyed by request id, so overlapping requests
/// each get their own row.
inline std::string chrome_trace(
    const std::vector<Span>& spans,
    const std::vector<std::pair<std::size_t, std::size_t>>& ranges) {
  std::string out = "{\"traceEvents\":[";
  char buf[320];
  bool first = true;
  for (auto [begin, end] : ranges) {
    for (std::size_t i = begin; i < std::min(end, spans.size()); ++i) {
      const Span& s = spans[i];
      const double ts = static_cast<double>(s.start_ns) / 1e3;
      const double dur = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
      const auto req = static_cast<unsigned long long>(s.request);
      if (s.async) {
        std::snprintf(buf, sizeof buf,
                      "%s\n{\"name\":\"%s\",\"cat\":\"request\",\"ph\":\"b\","
                      "\"id\":%llu,\"pid\":1,\"tid\":1,\"ts\":%.3f},\n"
                      "{\"name\":\"%s\",\"cat\":\"request\",\"ph\":\"e\","
                      "\"id\":%llu,\"pid\":1,\"tid\":1,\"ts\":%.3f}",
                      first ? "" : ",", s.name, req, ts, s.name, req, ts + dur);
      } else {
        std::snprintf(buf, sizeof buf,
                      "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                      "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%llu,"
                      "\"parent\":%d}}",
                      first ? "" : ",", s.name, ts, dur, req, s.parent);
      }
      out += buf;
      first = false;
    }
  }
  out += "\n]}\n";
  return out;
}

}  // namespace e2e
