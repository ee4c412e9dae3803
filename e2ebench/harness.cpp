// End-to-end solve and serve benchmark harness (README.md in this
// directory explains the workloads, metrics and trace).
//
//   pobp_e2e --workload batch_large|serve_small|serve_dup --seed N
//            --seconds S [--calibrate]
//   pobp_e2e_traced ... --trace 1 --trace-out FILE --ref-cpu-us-per-job X
//
// One process runs one workload.  It generates its inputs from --seed,
// sets the program up (timed as setup_s), drives it for --seconds through
// the public API of core, engine and io, checks every answer, and prints as
// its last stdout line one JSON object:
//   {"correct": true, "attempted": N, "failed": F, "metrics": {...}}
// Untraced, the metrics are the end-to-end ones; the traced binary (spans
// plus the counting allocator) prints the per-layer ones instead.  A failed
// check, a refused environment or a lagging generator exits non-zero
// without printing metrics.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <array>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "logic.hpp"
#include "pobp/core/scratch.hpp"
#include "pobp/engine/cache.hpp"
#include "pobp/engine/serve.hpp"
#include "pobp/io/manifest.hpp"
#include "pobp/io/wire.hpp"
#include "pobp/pobp.hpp"
#include "pobp/schedule/validate.hpp"
#include "pobp/util/alloccount.hpp"
#include "pobp/util/parallel.hpp"

#ifndef E2E_TRACED
#define E2E_TRACED 0
#endif
#ifndef E2E_BUILD_INFO
#define E2E_BUILD_INFO "unknown"
#endif

namespace {

using namespace pobp;
using Clock = std::chrono::steady_clock;

// --- fixed workload parameters ----------------------------------------------

constexpr std::size_t kWorkers = 2;        // engine workers, every workload
constexpr std::size_t kCorpusSize = 96;    // batch_large instances per pass
constexpr std::size_t kCorpusMinN = 1000;
constexpr std::size_t kCorpusMaxN = 4000;
constexpr std::size_t kChunkSize = 8;      // instances per timed batch call
constexpr int kSetupRepeats = 5;           // setup_s = median of these
constexpr std::size_t kWarmupRequests = 8192;  // serve warm-up per setup
constexpr double kLagLimitShare = 0.50;    // of the latency limit
constexpr std::uint64_t kDupSampleEvery = 32;  // serve_dup re-solve sample
constexpr std::size_t kTraceFileSpans = 50000;  // per phase, in the file
constexpr double kOpenShare = 0.5;  // serve: open-loop share of --seconds
constexpr std::size_t kClosedInflight = 256;  // serve closed-loop depth
constexpr std::size_t kClosedBlock = 4096;    // closed-loop requests per block

struct Workload {
  const char* name;
  bool serve;
  bool duplicates;
  double rate;              ///< requests/s (serve)
  double limit_ms;          ///< latency limit behind slo_share
  std::size_t cache_bytes;  ///< SolveCache budget (serve)
};

// Serve rate: about half of serve_small's saturated capacity when the
// benchmark was introduced (`pobp_e2e --calibrate`, closed loop, 2 workers:
// ~10k requests/s on a 4-vCPU x86-64 VM).  serve_dup runs at the same rate,
// so the two serve workloads differ only in their request mix.  The
// latency limit is about ten times the p99 seen at that rate; the generator
// may lag by half of it at p99 before the run is void (on a shared VM the
// lag p99 reaches 5-11 ms in noisy minutes without any backlog building).
const Workload kWorkloads[] = {
    {"batch_large", false, false, 0, 10000, 0},
    {"serve_small", true, false, 5000, 50, std::size_t{1} << 20},
    {"serve_dup", true, true, 5000, 50, std::size_t{16} << 20},
};

// --- process plumbing -------------------------------------------------------

[[noreturn]] void die(int code, const char* fmt, ...) {
  std::va_list ap;
  va_start(ap, fmt);
  std::fputs("e2ebench: ", stderr);
  std::vfprintf(stderr, fmt, ap);
  std::fputc('\n', stderr);
  va_end(ap);
  std::fflush(stdout);
  std::_Exit(code);
}
constexpr int kExitUsage = 2;
constexpr int kExitRefused = 3;
constexpr int kExitCheck = 4;
constexpr int kExitLag = 5;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// CPUs this process may run on.
int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const long online = sysconf(_SC_NPROCESSORS_ONLN);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return static_cast<int>(online);
  return std::min(static_cast<int>(online), CPU_COUNT(&set));
}

/// "<prefix><i>" (built by appending: GCC 12 misreports `"r" + to_string(i)`
/// under -Wrestrict).
std::string label(char prefix, std::size_t i) {
  std::string out(1, prefix);
  out += std::to_string(i);
  return out;
}

// --- tracing ----------------------------------------------------------------

/// In-memory span recorder for the harness thread.  Null in untraced runs,
/// so every Scope below costs one branch there.
class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {
    spans_.reserve(std::size_t{1} << 20);
  }
  std::int64_t ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }
  std::int32_t begin(const char* name, std::uint64_t request,
                     std::int32_t parent, bool async = false) {
    e2e::Span s;
    s.name = name;
    s.start_ns = ns(Clock::now());
    s.end_ns = s.start_ns;
    s.parent = parent;
    s.request = request;
    s.async = async;
    spans_.push_back(s);
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void end(std::int32_t index) {
    spans_[static_cast<std::size_t>(index)].end_ns = ns(Clock::now());
  }
  std::int32_t add(const char* name, Clock::time_point start,
                   Clock::time_point stop, std::int32_t parent,
                   std::uint64_t request, bool async) {
    std::int32_t i = begin(name, request, parent, async);
    spans_.back().start_ns = ns(start);
    spans_.back().end_ns = ns(stop);
    return i;
  }
  void set_start(std::int32_t index, Clock::time_point t) {
    spans_[static_cast<std::size_t>(index)].start_ns = ns(t);
  }
  const std::vector<e2e::Span>& spans() const { return spans_; }

 private:
  Clock::time_point origin_;
  std::vector<e2e::Span> spans_;
};

class Scope {
 public:
  Scope(Tracer* tracer, const char* name, std::uint64_t request = 0,
        std::int32_t parent = -1)
      : tracer_(tracer),
        index_(tracer ? tracer->begin(name, request, parent) : -1) {}
  ~Scope() {
    if (tracer_) tracer_->end(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  std::int32_t index() const { return index_; }

 private:
  Tracer* tracer_;
  std::int32_t index_;
};

/// Per-name totals over recorded spans.
struct SpanTotals {
  double self_s = 0;
  double dur_s = 0;
  std::size_t count = 0;
  double mean_self_s() const { return count ? self_s / double(count) : 0; }
  double mean_dur_s() const { return count ? dur_s / double(count) : 0; }
};

std::map<std::string, SpanTotals> span_totals(const std::vector<e2e::Span>& spans,
                                              std::size_t from = 0) {
  const std::vector<std::int64_t> self = e2e::self_times(spans);
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = from; i < spans.size(); ++i) {
    SpanTotals& t = out[spans[i].name];
    t.self_s += static_cast<double>(self[i]) * 1e-9;
    t.dur_s += static_cast<double>(spans[i].end_ns - spans[i].start_ns) * 1e-9;
    ++t.count;
  }
  return out;
}

// --- answer checks ----------------------------------------------------------

/// The output gate: every answer is re-validated (Def. 2.1, k-bound
/// included) and its value recomputed from the input.  Its CPU time is
/// measured so cpu_us_per_job can exclude it.  Answers and lost requests
/// go into `tally`, or into the tally the caller names.
struct Checker {
  e2e::ValueTally tally;
  std::size_t ok = 0;
  std::size_t failed = 0;
  std::size_t jobs_answered = 0;
  double cpu_s = 0;

  /// A request or instance that got no valid result.
  void lost(const JobSet& jobs, e2e::ValueTally* into = nullptr) {
    (into ? *into : tally).add_lost(jobs);
    ++failed;
  }

  void answer(const JobSet& jobs, std::size_t k, const ScheduleResult& r,
              const std::string& what, e2e::ValueTally* into = nullptr) {
    const double t0 = thread_cpu_s();
    const ValidationResult v = validate(jobs, r.schedule, k);
    if (!v.ok) {
      die(kExitCheck, "CHECK FAILED: %s: answer violates Def. 2.1 (k = %zu): %s",
          what.c_str(), k, v.error.c_str());
    }
    const double value = e2e::schedule_value(jobs, r.schedule);
    if (value != r.value || !(r.unbounded_value >= r.value)) {
      die(kExitCheck,
          "CHECK FAILED: %s: reported value %.17g, recomputed %.17g, "
          "unbounded %.17g",
          what.c_str(), r.value, value, r.unbounded_value);
    }
    (into ? *into : tally).add(jobs, r.value, r.price());
    ++ok;
    jobs_answered += jobs.size();
    cpu_s += thread_cpu_s() - t0;
  }
};

/// Byte image of a result (values, flags, every segment in stored order),
/// for the byte-identity comparisons.
std::vector<std::int64_t> result_bytes(const ScheduleResult& r) {
  std::vector<std::int64_t> out;
  std::int64_t bits = 0;
  std::memcpy(&bits, &r.value, sizeof bits);
  out.push_back(bits);
  std::memcpy(&bits, &r.unbounded_value, sizeof bits);
  out.push_back(bits);
  out.push_back(r.degraded ? 1 : 0);
  out.push_back(static_cast<std::int64_t>(r.schedule.machine_count()));
  for (const MachineSchedule& m : r.schedule.machines()) {
    out.push_back(-1);
    for (const Assignment& a : m.assignments()) {
      out.push_back(static_cast<std::int64_t>(a.job));
      out.push_back(static_cast<std::int64_t>(a.segments.size()));
      for (const Segment& s : a.segments) {
        out.push_back(s.begin);
        out.push_back(s.end);
      }
    }
  }
  return out;
}

ScheduleOptions schedule_options(std::size_t k, std::size_t machines) {
  ScheduleOptions o;
  o.k = k;
  o.machine_count = machines;
  return o;
}

// --- metrics output ---------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": true, \"attempted\": " +
                     std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  char buf[256];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (!std::isfinite(m.value)) {
      die(kExitCheck, "metric %s is not finite", m.name.c_str());
    }
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", m.name.c_str(), m.value, m.unit.c_str());
    line += buf;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}


// --- arguments and environment ----------------------------------------------

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool calibrate = false;
  std::string trace_out;
  double ref_cpu_us_per_job = 0;  ///< untraced run's value (trace overhead)
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) die(kExitUsage, "%s needs a value", flag.c_str());
      return argv[++i];
    };
    if (flag == "--workload") {
      const std::string name = value();
      for (const Workload& w : kWorkloads) {
        if (name == w.name) a.workload = &w;
      }
      if (!a.workload) die(kExitUsage, "unknown workload '%s'", name.c_str());
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::atof(value().c_str());
    } else if (flag == "--trace") {
      a.trace = value() == "1";
    } else if (flag == "--trace-out") {
      a.trace_out = value();
    } else if (flag == "--ref-cpu-us-per-job") {
      a.ref_cpu_us_per_job = std::atof(value().c_str());
    } else if (flag == "--calibrate") {
      a.calibrate = true;
    } else {
      die(kExitUsage, "unknown flag '%s'", flag.c_str());
    }
  }
  if (!a.workload) die(kExitUsage, "--workload is required");
  if (!(a.seconds > 0)) die(kExitUsage, "--seconds must be positive");
  if (a.trace != bool(E2E_TRACED)) {
    die(kExitUsage, "--trace %d needs the %s binary", a.trace ? 1 : 0,
        a.trace ? "pobp_e2e_traced" : "pobp_e2e");
  }
  return a;
}

/// Threads the workload may run at once: the harness thread (generator and
/// collector in one), the engine's workers, and the stream pump.
int planned_threads(const Workload& w) {
  return 1 + static_cast<int>(kWorkers) + (w.serve ? 1 : 0);
}

/// Environment record and guard.
void check_environment(const Workload& w) {
  const int cpus = usable_cpus();
  std::printf("e2ebench: env nproc=%d compiler=\"%s\" build=\"%s\" traced=%d "
              "threads_planned=%d\n",
              cpus, __VERSION__, E2E_BUILD_INFO, E2E_TRACED, planned_threads(w));
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  die(kExitRefused, "refused: sanitizer build");
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
  die(kExitRefused, "refused: sanitizer build");
#endif
#endif
  if (std::strstr(E2E_BUILD_INFO, "sanitize") != nullptr) {
    die(kExitRefused, "refused: sanitizer flags in the build");
  }
#if defined(POBP_FAULT_INJECTION)
  die(kExitRefused, "refused: POBP_FAULT_INJECTION build");
#endif
#if !defined(__OPTIMIZE__)
  die(kExitRefused, "refused: unoptimized build");
#endif
  if (std::getenv("POBP_FAULT_INJECT") != nullptr) {
    die(kExitRefused, "refused: POBP_FAULT_INJECT is set");
  }
  if (planned_threads(w) > cpus) {
    die(kExitRefused, "refused: %d threads planned, nproc is %d",
        planned_threads(w), cpus);
  }
}

/// Runs `fn` on a one-thread pool and waits.  Solves on a pool worker run
/// the TM DP serially, exactly as on the engine's workers; on the harness
/// thread they would fork onto the process-wide pool and add threads.
template <typename F>
void run_on_worker(F&& fn) {
  ThreadPool pool(1);
  pool.submit(std::forward<F>(fn));
  pool.wait_idle();
}

// --- replay (traced run) ----------------------------------------------------

/// One instance for the closed-loop stage replay.
struct ReplayItem {
  const JobSet* jobs = nullptr;      ///< batch corpus instance, or
  const std::string* frame = nullptr;  ///< a serve wire frame
  std::size_t k = 1;
  std::size_t machines = 1;
};

struct ReplayTotals {
  std::size_t items = 0;
  std::size_t solved = 0;   ///< items that ran the stages (not cache hits)
  std::size_t hits = 0;
  std::size_t deltas = 0;
  std::size_t seed_jobs = 0;
  std::size_t solved_jobs = 0;
  PipelineTimings timings;  ///< Σ over solved items
  std::uint64_t allocs = 0;
  std::size_t alloc_solves = 0;
  /// The reference session's EngineMetrics stage means (every item).
  std::array<double, kStageCount> ref_stage_mean_s{};
  std::size_t first_span = 0;
};

/// Replays `items` through the public stage calls — keying, probe, delta
/// lookup, seed, Algorithm 3, validator, publish, wire — composing each
/// answer the way Session::solve_into does, and asserts that every composed
/// answer is byte-identical to Session::solve_into on an uncached session.
ReplayTotals replay(const std::vector<ReplayItem>& items,
                    std::optional<SolveCacheOptions> cache_options,
                    double budget_s, Tracer& tr, Checker& checker) {
  ReplayTotals t;
  t.first_span = tr.spans().size();
  std::unique_ptr<SolveCache> cache;
  if (cache_options) cache = std::make_unique<SolveCache>(*cache_options);
  SolveScratch scratch;
  JobColumns columns;
  std::vector<std::uint64_t> subhashes;
  SolveCache::DeltaNeighbor neighbor;
  ScheduleResult composed;
  ScheduleResult reference;
  EngineOptions check_options;
  check_options.workers = 1;
  Session check(check_options);
#if E2E_TRACED
  const bool counting = alloccount::arm() && alloccount::enabled();
#else
  const bool counting = false;  // the untraced binary has no counting hooks
#endif
  Value value_sum = 0;
  Value unbounded_sum = 0;

  const Clock::time_point start = Clock::now();
  for (std::size_t idx = 0; idx < items.size(); ++idx) {
    if (idx > 0 && seconds_between(start, Clock::now()) > budget_s) break;
    const ReplayItem& item = items[idx];
    const auto req = static_cast<std::uint64_t>(idx);
    const std::int32_t request = tr.begin("request", req, -1);
    JobSet parsed;
    const JobSet* jobs = item.jobs;
    std::size_t k = item.k;
    std::size_t machines = item.machines;
    std::string id;
    if (item.frame) {
      Scope s(&tr, "io.parse", req, request);
      auto r = io::try_parse_serve_request(*item.frame, idx + 1);
      if (!r) die(kExitCheck, "CHECK FAILED: replay frame %zu rejected", idx);
      parsed = std::move(r->jobs);
      id = std::move(r->id);
      k = r->k.value_or(1);
      machines = r->machines.value_or(1);
      jobs = &parsed;
    }
    const ScheduleOptions options = schedule_options(k, machines);
    {
      Scope solve(&tr, "replay.solve", req, request);
      bool hit = false;
      CacheKey key{};
      std::uint64_t sig = 0;
      if (cache) {
        {
          Scope s(&tr, "cache.key", req, solve.index());
          columns.build(*jobs);
          sig = SolveCache::params_signature(options, false);
          subhashes.resize(jobs->size());
          SolveCache::job_subhashes(columns.view(), subhashes.data());
          key = SolveCache::instance_key(columns.view(), subhashes.data(), sig);
        }
        Scope s(&tr, "cache.probe", req, solve.index());
        hit = cache->try_get(key, columns.view(), sig, composed);
      }
      if (hit) {
        ++t.hits;
      } else {
        SolveDeltaHint hint;
        const SolveDeltaHint* delta = nullptr;
        if (cache && cache->delta_enabled()) {
          Scope s(&tr, "cache.delta", req, solve.index());
          if (cache->copy_delta_neighbor(columns.view(), subhashes.data(), sig,
                                         neighbor)) {
            hint.seed = &neighbor.seed;
            hint.strict_sched = &neighbor.strict_sched;
            hint.full_sched = &neighbor.full_sched;
            hint.job_changed = neighbor.changed.data();
            delta = &hint;
            ++t.deltas;
          }
        }
        composed.value = 0;
        composed.unbounded_value = 0;
        composed.degraded = false;
        composed.schedule.reset(machines);
        {
          Scope s(&tr, "solvers.seed", req, solve.index());
          scratch.ids.resize(jobs->size());
          std::iota(scratch.ids.begin(), scratch.ids.end(), JobId{0});
          seed_unbounded_schedule_into(*jobs, options, scratch.ids, scratch,
                                       scratch.seed);
        }
        composed.unbounded_value = scratch.seed.total_value(*jobs);
        t.seed_jobs += scratch.seed.job_count();
        t.solved_jobs += jobs->size();
        PipelineTimings timings;
        {
          Scope s(&tr, "core.bound", req, solve.index());
          CombinedOptions combined;
          combined.k = k;
          combined.use_tm = options.use_tm;
          k_preemption_combined_multi_into(*jobs, scratch.seed, combined,
                                           &timings, scratch, composed.schedule,
                                           delta);
        }
        composed.value = composed.schedule.total_value(*jobs);
        bool valid = false;
        {
          Scope s(&tr, "schedule.validate", req, solve.index());
          valid = validate_fast(*jobs, composed.schedule, k, scratch.validate);
        }
        if (!valid) die(kExitCheck, "CHECK FAILED: replay %zu invalid", idx);
        if (cache) {
          Scope s(&tr, "cache.insert", req, solve.index());
          cache->insert(key, columns.view(), subhashes.data(), sig, composed,
                        &scratch.seed, &scratch.strict_sched,
                        &scratch.full_sched);
        }
        t.timings += timings;
        ++t.solved;
      }
    }
    if (item.frame) {
      Scope s(&tr, "io.frame", req, request);
      io::ResponseStats stats;
      stats.value = composed.value;
      stats.unbounded_value = composed.unbounded_value;
      stats.price = composed.price();
      stats.degraded = composed.degraded;
      stats.jobs_scheduled = composed.schedule.job_count();
      const std::string frame = io::response_frame(id, stats);
      if (frame.empty()) die(kExitCheck, "CHECK FAILED: empty frame");
    }
    tr.end(request);

    // The reference: the engine's own per-instance path.
    {
      const alloccount::Scope allocs;
      Scope s(&tr, "engine.solve", req, -1);
      check.solve_into(*jobs, options, reference);
      if (counting && idx >= 8) {
        t.allocs += allocs.allocations();
        ++t.alloc_solves;
      }
    }
    if (result_bytes(composed) != result_bytes(reference)) {
      die(kExitCheck,
          "CHECK FAILED: replay %zu: composed stages differ from "
          "Session::solve_into",
          idx);
    }
    checker.answer(*jobs, k, composed, "replay " + std::to_string(idx));
    value_sum += composed.value;
    unbounded_sum += composed.unbounded_value;
    ++t.items;
  }

  // Cross-check against the reference session's EngineMetrics.
  const EngineMetrics& m = check.metrics();
  if (m.instances != t.items || m.value_bounded != value_sum ||
      m.value_unbounded != unbounded_sum || m.validation_failures != 0) {
    die(kExitCheck,
        "CHECK FAILED: EngineMetrics disagree with the replay (%zu vs %zu "
        "instances)",
        m.instances, t.items);
  }
  for (std::size_t i = 0; i < kStageCount; ++i) {
    t.ref_stage_mean_s[i] = m.stage_seconds[i].mean();
  }
  std::printf("e2ebench: replay items=%zu solved=%zu hits=%zu deltas=%zu "
              "(byte-identical to Session::solve_into)\n",
              t.items, t.solved, t.hits, t.deltas);
  return t;
}

// --- batch_large --------------------------------------------------------------

/// One chunk of up to kChunkSize instances of one (k, machines) setting,
/// solved by one timed solve_batch_into call.  An Engine binds its schedule
/// options at construction, so each setting has its own 2-worker Engine,
/// shared by the setting's chunks; a pass runs the chunks one after
/// another, so at most one engine's workers are busy at any time (the
/// others' pool threads stay parked).
struct Group {
  std::size_t k = 1;
  std::size_t machines = 1;
  std::shared_ptr<Engine> engine;
  std::vector<JobSet> instances;
  std::vector<ScheduleResult> results;
  std::size_t jobs = 0;
};

struct BatchInputs {
  std::string jsonl;
  std::vector<e2e::InstanceSpec> specs;
};

BatchInputs make_batch_inputs(std::uint64_t seed) {
  BatchInputs in;
  in.specs = e2e::corpus_specs(seed, kCorpusSize, kCorpusMinN, kCorpusMaxN);
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 1);
  for (std::size_t i = 0; i < in.specs.size(); ++i) {
    in.jsonl += e2e::jsonl_instance(label('c', i),
                                    e2e::make_jobs(in.specs[i].n, rng));
    in.jsonl += '\n';
  }
  return in;
}

std::vector<Group> decode_corpus(const BatchInputs& in, Tracer* tr) {
  std::vector<io::InstanceOutcome> decoded;
  {
    Scope s(tr, "io.decode");
    decoded = io::try_instances_from_jsonl(in.jsonl);
  }
  if (decoded.size() != in.specs.size()) {
    die(kExitCheck, "CHECK FAILED: corpus decoded %zu of %zu instances",
        decoded.size(), in.specs.size());
  }
  std::vector<Group> settings;
  for (std::size_t k : {1, 4}) {
    for (std::size_t m : {1, 4}) {
      Group g;
      g.k = k;
      g.machines = m;
      EngineOptions options;
      options.schedule = schedule_options(k, m);
      options.workers = kWorkers;
      g.engine = std::make_shared<Engine>(options);
      settings.push_back(std::move(g));
    }
  }
  for (std::size_t i = 0; i < decoded.size(); ++i) {
    if (!decoded[i].jobs) {
      die(kExitCheck, "CHECK FAILED: corpus line %zu rejected", i + 1);
    }
    const e2e::InstanceSpec& spec = in.specs[i];
    for (Group& g : settings) {
      if (g.k == spec.k && g.machines == spec.machines) {
        g.instances.push_back(std::move(*decoded[i].jobs));
      }
    }
  }
  std::vector<Group> groups;
  for (Group& s : settings) {
    for (std::size_t b = 0; b < s.instances.size(); b += kChunkSize) {
      Group g;
      g.k = s.k;
      g.machines = s.machines;
      g.engine = s.engine;
      const std::size_t e = std::min(b + kChunkSize, s.instances.size());
      for (std::size_t i = b; i < e; ++i) {
        g.jobs += s.instances[i].size();
        g.instances.push_back(std::move(s.instances[i]));
      }
      groups.push_back(std::move(g));
    }
  }
  return groups;
}

/// Set-up warm-up: each engine solves its setting's two largest instances,
/// one per worker, so every session's pooled scratch reaches the size the
/// timed passes need.
void warm_up(std::vector<Group>& groups) {
  std::map<const Engine*, std::vector<JobSet>> largest;
  for (const Group& g : groups) {
    std::vector<JobSet>& l = largest[g.engine.get()];
    l.insert(l.end(), g.instances.begin(), g.instances.end());
    std::sort(l.begin(), l.end(),
              [](const JobSet& a, const JobSet& b) { return a.size() > b.size(); });
    l.resize(std::min<std::size_t>(l.size(), kWorkers));
  }
  for (const Group& g : groups) {
    auto it = largest.find(g.engine.get());
    if (it == largest.end()) continue;
    std::vector<ScheduleResult> results;
    g.engine->solve_batch_into(it->second, SubmitOptions{}, results);
    largest.erase(it);
  }
}

// --- machine-speed reference --------------------------------------------------

/// One probe's fixed work, with no pobp code in it: 4000 passes of
/// independent integer arithmetic over a 64 KiB array (cache-resident,
/// vectorized, throughput-bound like the seed's hot loops), then three
/// sorts of 2^15 seeded keys (branchy, like parsing, hashing and queue
/// hand-offs on the serve path).
std::uint64_t reference_work(std::uint64_t seed) {
  std::uint64_t x = seed | 1;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::vector<std::uint32_t> a(std::size_t{1} << 14);
  for (std::uint32_t& v : a) v = static_cast<std::uint32_t>(next());
  std::uint64_t sum = 0;
  for (std::size_t r = 0; r < 4000; ++r) {
    for (std::uint32_t& v : a) v = (v * 5 + 7) ^ (v >> 3);
    sum += a[r & (a.size() - 1)];
  }
  std::vector<std::uint32_t> keys(std::size_t{1} << 15);
  for (int r = 0; r < 3; ++r) {
    for (std::uint32_t& k : keys) k = static_cast<std::uint32_t>(next());
    std::sort(keys.begin(), keys.end());
    sum += keys[keys.size() / 2];
  }
  return sum;
}

/// The machine-speed probe.  On a shared host the speed of a thread moves
/// by 20-40% over minutes (other tenants on sibling hyperthreads, turbo
/// headroom), and it moves whole runs: CPU time per job rises with wall
/// time, so neither medians nor longer runs steady the timed rates.  The
/// harness therefore runs this probe, the same fixed work on kWorkers pool
/// threads at once, between the pieces of timed work (while the engine is
/// idle) and reports rates and costs scaled by the probe's measured over
/// its nominal time (e2e::Scaled).  Of the kernels tried (sorting, binary
/// search, string maps, dependent multiplies, random memory updates,
/// array arithmetic), array arithmetic tracked batch_large's raw rate best
/// and sorting serve_dup's; the probe runs both (README.md).  kNominalWallS and kNominalCpuS are the probe's typical
/// wall and process CPU time on the 4-vCPU x86-64 VM where the benchmark
/// was introduced; they fix the units only.
class Reference {
 public:
  static constexpr double kNominalWallS = 0.025;
  static constexpr double kNominalCpuS = 0.045;

  Reference() : pool_(kWorkers) {}

  /// Runs one probe and adds it to `into`.
  void run(e2e::Scaled& into) {
    const double cpu0 = process_cpu_s();
    const Clock::time_point t0 = Clock::now();
    for (std::size_t t = 0; t < kWorkers; ++t) {
      pool_.submit([this, t] { sink_[t] += reference_work(++seed_[t] * 4 + t); });
    }
    pool_.wait_idle();
    into.probe_wall_s += seconds_between(t0, Clock::now());
    into.probe_cpu_s += process_cpu_s() - cpu0;
    into.probes += 1;
  }

 private:
  ThreadPool pool_;
  std::array<std::uint64_t, kWorkers> sink_{};
  std::array<std::uint64_t, kWorkers> seed_{};
};

/// setup_s: the median of the set-ups' wall times, scaled by the probes
/// run after each of them.  Prints the raw times.
double setup_seconds(const std::vector<double>& setups, const e2e::Scaled& probes) {
  std::string line = "e2ebench: setup_s runs:";
  char buf[32];
  for (double s : setups) {
    std::snprintf(buf, sizeof buf, " %.4f", s);
    line += buf;
  }
  const double scaled =
      probes.nominal_seconds(e2e::median(setups), Reference::kNominalWallS);
  std::printf("%s s; median %.4f s, probe mean %.4f s, scaled %.4f s\n",
              line.c_str(), e2e::median(setups),
              probes.probe_wall_s / probes.probes, scaled);
  return scaled;
}

/// The scaled rates, plus the raw ones for the log.
void print_scaled(const e2e::Scaled& sc) {
  std::printf("e2ebench: timed %.0f jobs in %.2f s wall, %.2f s CPU; raw "
              "%.0f jobs/s, %.3f CPU us/job; %.0f probes, mean %.4f s wall "
              "%.4f s CPU (nominal %.3f / %.3f); scaled %.0f jobs/s, %.3f "
              "us/job\n",
              sc.jobs, sc.wall_s, sc.cpu_s, sc.raw_jobs_per_s(),
              sc.raw_cpu_us_per_job(), sc.probes, sc.probe_wall_s / sc.probes,
              sc.probe_cpu_s / sc.probes, Reference::kNominalWallS,
              Reference::kNominalCpuS, sc.jobs_per_s(Reference::kNominalWallS),
              sc.cpu_us_per_job(Reference::kNominalCpuS));
}

/// One whole pass: every chunk through its engine's solve_batch_into, with
/// a reference probe after each chunk.  Adds the chunks' jobs, wall and
/// process CPU time (checks and probes excluded) and the probes to `sc`;
/// returns the pass's wall time.
double run_pass(std::vector<Group>& groups, Checker* checker,
                EngineMetrics* metrics, Tracer* tr, std::size_t pass,
                Reference& ref, e2e::Scaled& sc) {
  double wall = 0;
  for (Group& g : groups) {
    std::vector<std::size_t> failed;
    SubmitOptions submit;
    submit.on_error = [&failed](std::size_t i, const diag::Report&) {
      failed.push_back(i);
    };
    if (metrics) g.engine->reset_metrics();
    const double cpu0 = process_cpu_s();
    const Clock::time_point t0 = Clock::now();
    {
      Scope s(tr, "engine.solve_batch_into", pass);
      g.engine->solve_batch_into(g.instances, submit, g.results);
    }
    const double chunk_s = seconds_between(t0, Clock::now());
    sc.cpu_s += process_cpu_s() - cpu0;
    sc.wall_s += chunk_s;
    std::size_t answered = g.jobs;
    for (std::size_t i : failed) answered -= g.instances[i].size();
    sc.jobs += static_cast<double>(answered);
    wall += chunk_s;
    ref.run(sc);
    if (metrics) metrics->merge(g.engine->metrics());
    if (!checker) continue;
    for (std::size_t i = 0; i < g.instances.size(); ++i) {
      if (std::find(failed.begin(), failed.end(), i) != failed.end()) {
        checker->lost(g.instances[i]);
        continue;
      }
      checker->answer(g.instances[i], g.k, g.results[i],
                      "pass " + std::to_string(pass) + " instance " +
                          std::to_string(i));
    }
  }
  return wall;
}

// --- per-layer metrics (traced run) ------------------------------------------

/// What the traced run gathered: its end-to-end phase (spans around the
/// harness's calls into engine and io, engine counters) and the stage
/// replay.
struct LayerInputs {
  EngineMetrics engine;          ///< e2e phase, merged
  double worker_wall_s = 0;      ///< wall time the workers had work offered
  std::map<std::string, SpanTotals> e2e_spans;
  std::map<std::string, SpanTotals> replay_spans;
  ReplayTotals replay;
  std::vector<double> latency_s;  ///< serve: scheduled send → frame
  std::vector<double> sojourn_s;
  std::vector<double> queue_depth;
  std::vector<double> lag_s;
  double cpu_us_per_job = 0;      ///< traced e2e phase
  double ref_cpu_us_per_job = 0;  ///< untraced run, same workload and seed
};

SpanTotals find(const std::map<std::string, SpanTotals>& m, const char* name) {
  auto it = m.find(name);
  return it == m.end() ? SpanTotals{} : it->second;
}

std::vector<Metric> layer_metrics(const LayerInputs& in) {
  const ReplayTotals& rt = in.replay;
  const auto& rs = in.replay_spans;
  const double solved = rt.solved ? static_cast<double>(rt.solved) : 1.0;
  const double ms = 1e3, us = 1e6;
  const SpanTotals seed = find(rs, "solvers.seed");
  const SpanTotals solve = find(rs, "replay.solve");
  const SpanTotals engine_solve = find(rs, "engine.solve");
  const double items = rt.items ? static_cast<double>(rt.items) : 1.0;
  const EngineMetrics& em = in.engine;
  const double lookups = static_cast<double>(em.cache_hits + em.cache_misses);
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const double solve_sum_s =
      em.solve_seconds.mean() * static_cast<double>(em.solve_seconds.count());
  const e2e::Dist latency = e2e::summarize(in.latency_s);
  const e2e::Dist sojourn = e2e::summarize(in.sojourn_s);
  const e2e::Dist depth = e2e::summarize(in.queue_depth);
  const e2e::Dist lag = e2e::summarize(in.lag_s);
  std::printf("e2ebench: stage means, replay (solved items) vs the reference "
              "session's EngineMetrics (every item): seed %.4f / %.4f ms, "
              "validate %.4f / %.4f ms\n",
              seed.self_s / solved * ms,
              rt.ref_stage_mean_s[static_cast<std::size_t>(Stage::kSeed)] * ms,
              find(rs, "schedule.validate").self_s / solved * ms,
              rt.ref_stage_mean_s[static_cast<std::size_t>(Stage::kValidate)] * ms);
  double ref_stage_sum_s = 0;
  for (double m : rt.ref_stage_mean_s) ref_stage_sum_s += m;
  return {
      {"solvers.seed_ms", seed.self_s / solved * ms, "ms"},
      {"solvers.seed_share", ratio(seed.self_s, solve.dur_s), "ratio"},
      {"solvers.seed_keep_ratio",
       ratio(double(rt.seed_jobs), double(rt.solved_jobs)), "ratio"},
      {"schedule.laminarize_ms", rt.timings.laminarize_s / solved * ms, "ms"},
      {"schedule.validate_ms", find(rs, "schedule.validate").self_s / solved * ms,
       "ms"},
      {"reduction.forest_ms", rt.timings.forest_s / solved * ms, "ms"},
      {"reduction.merge_ms", rt.timings.merge_s / solved * ms, "ms"},
      {"bas.prune_ms", rt.timings.prune_s / solved * ms, "ms"},
      {"lsa.lsa_ms", rt.timings.lsa_s / solved * ms, "ms"},
      {"core.bound_ms", find(rs, "core.bound").dur_s / solved * ms, "ms"},
      {"engine.solve_ms", engine_solve.dur_s / items * ms, "ms"},
      {"engine.overhead_ms", (engine_solve.dur_s / items - ref_stage_sum_s) * ms,
       "ms"},
      {"engine.busy_share",
       ratio(solve_sum_s, double(kWorkers) * in.worker_wall_s), "ratio"},
      {"engine.degraded_share",
       ratio(double(em.degraded_solves), double(em.instances)), "ratio"},
      {"engine.allocs_per_solve", ratio(double(rt.allocs), double(rt.alloc_solves)),
       "allocs"},
      {"cache.hit_ratio", ratio(double(em.cache_hits), lookups), "ratio"},
      {"cache.delta_ratio", ratio(double(em.cache_delta_patches), lookups),
       "ratio"},
      {"cache.evict_per_insert",
       ratio(double(em.cache_evictions), double(em.cache_insertions)), "ratio"},
      {"cache.key_us", find(rs, "cache.key").mean_self_s() * us, "us"},
      {"cache.probe_us", find(rs, "cache.probe").mean_self_s() * us, "us"},
      {"cache.insert_us", find(rs, "cache.insert").mean_self_s() * us, "us"},
      {"serve.lat_p50_ms", latency.p50 * ms, "ms"},
      {"serve.lat_p99_ms", latency.tail * ms, "ms"},
      {"serve.submit_us", find(in.e2e_spans, "serve.submit").mean_dur_s() * us,
       "us"},
      {"serve.sojourn_p50_ms", sojourn.p50 * ms, "ms"},
      {"serve.sojourn_p99_ms", sojourn.tail * ms, "ms"},
      {"serve.queue_depth_p99", depth.tail, "count"},
      {"io.decode_ms", find(in.e2e_spans, "io.decode").mean_dur_s() * ms, "ms"},
      {"io.parse_us", find(in.e2e_spans, "io.parse").mean_dur_s() * us, "us"},
      {"io.frame_us", find(in.e2e_spans, "io.frame").mean_dur_s() * us, "us"},
      {"gen.lag_p99_ms", lag.tail * ms, "ms"},
      {"trace.overhead_share",
       in.ref_cpu_us_per_job > 0 ? in.cpu_us_per_job / in.ref_cpu_us_per_job - 1
                                 : 0.0,
       "ratio"},
  };
}

struct Report {
  std::vector<Metric> metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t replay_first_span = 0;  ///< traced: where the replay's spans start
};

// --- batch_large ------------------------------------------------------------

std::vector<ReplayItem> batch_replay_items(const std::vector<Group>& groups) {
  std::vector<ReplayItem> items;
  // Interleave the groups so a time-capped replay still covers all four.
  for (std::size_t i = 0;; ++i) {
    bool any = false;
    for (const Group& g : groups) {
      if (i < g.instances.size()) {
        items.push_back({&g.instances[i], nullptr, g.k, g.machines});
        any = true;
      }
    }
    if (!any) break;
  }
  return items;
}

Report run_batch_large(const Args& args, Tracer* tr) {
  const Workload& w = *args.workload;
  const BatchInputs inputs = make_batch_inputs(args.seed);
  std::printf("e2ebench: corpus %zu instances, %zu bytes of JSONL\n",
              inputs.specs.size(), inputs.jsonl.size());

  // Setup: decode the corpus, build the engines, warm their sessions; a
  // probe after each set-up.
  Reference reference;
  e2e::Scaled setup_probes;
  std::vector<double> setups;
  std::vector<Group> groups;
  for (int r = 0; r < kSetupRepeats; ++r) {
    groups.clear();
    const Clock::time_point t0 = Clock::now();
    groups = decode_corpus(inputs, tr);
    warm_up(groups);
    setups.push_back(seconds_between(t0, Clock::now()));
    reference.run(setup_probes);
  }
  const double setup_s = setup_seconds(setups, setup_probes);

  // Timed phase: whole passes until --seconds have elapsed (the traced run
  // splits its time between this phase and the replay).  The rates cover
  // every chunk of every pass, scaled by the probes run between chunks.
  const double phase_s = tr ? args.seconds / 2 : args.seconds;
  Checker checker;
  EngineMetrics metrics;
  e2e::Scaled timed;
  std::vector<double> pass_s;
  std::size_t jobs_per_pass = 0;
  std::size_t attempted = 0;
  std::size_t slo_ok = 0;
  for (const Group& g : groups) jobs_per_pass += g.jobs;
  const Clock::time_point phase0 = Clock::now();
  // Every pass answers the same corpus, so its value tally must repeat the
  // first pass's bit for bit; value_share and price_mean are reported from
  // one pass, independent of how many passes the time allowed.
  std::optional<e2e::ValueTally> first_tally;
  while (seconds_between(phase0, Clock::now()) < phase_s) {
    const std::size_t failed_before = checker.failed;
    checker.tally = e2e::ValueTally{};
    const double s = run_pass(groups, &checker, &metrics, tr, pass_s.size() + 1,
                              reference, timed);
    if (!first_tally) first_tally = checker.tally;
    const e2e::ValueTally& t = checker.tally;
    if (t.result_value != first_tally->result_value ||
        t.input_value != first_tally->input_value ||
        t.price_sum != first_tally->price_sum || t.priced != first_tally->priced ||
        t.answers != first_tally->answers) {
      die(kExitCheck, "CHECK FAILED: pass %zu answers differ from pass 1",
          pass_s.size() + 1);
    }
    pass_s.push_back(s);
    attempted += kCorpusSize;
    if (s * 1e3 <= w.limit_ms) {
      slo_ok += kCorpusSize - (checker.failed - failed_before);
    }
  }

  const e2e::Dist pass = e2e::summarize(pass_s);
  const double cpu_us_per_job = timed.cpu_us_per_job(Reference::kNominalCpuS);
  std::printf("e2ebench: sent=%zu ok=%zu failed=%zu passes=%zu "
              "jobs_per_pass=%zu chunks=%zu\n",
              attempted, checker.ok, checker.failed, pass_s.size(),
              jobs_per_pass, groups.size());
  std::printf("e2ebench: pass wall time over n=%zu passes: p50=%.1f ms "
              "p%.1f=%.1f ms (highest percentile with >= 10 samples beyond)\n",
              pass.n, pass.p50 * 1e3, pass.tail_pct, pass.tail * 1e3);
  print_scaled(timed);
  std::printf("e2ebench: trace_overhead_basis=%.17g\n", cpu_us_per_job);

  Report rep;
  rep.attempted = attempted;
  rep.failed = checker.failed;
  if (!tr) {
    rep.metrics = {
        {"setup_s", setup_s, "s"},
        {"jobs_per_s", timed.jobs_per_s(Reference::kNominalWallS), "jobs/s"},
        {"cpu_us_per_job", cpu_us_per_job, "us"},
        {"slo_share", static_cast<double>(slo_ok) / double(attempted), "ratio"},
        {"value_share", first_tally->value_share(), "ratio"},
        {"price_mean", first_tally->price_mean(), "ratio"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
    return rep;
  }

  LayerInputs in;
  in.engine = metrics;
  in.e2e_spans = span_totals(tr->spans());
  in.worker_wall_s = find(in.e2e_spans, "engine.solve_batch_into").dur_s;
  in.cpu_us_per_job = cpu_us_per_job;
  in.ref_cpu_us_per_job = args.ref_cpu_us_per_job;
  Checker replay_checker;
  run_on_worker([&] {
    in.replay = replay(batch_replay_items(groups), std::nullopt,
                       args.seconds / 2, *tr, replay_checker);
  });
  in.replay_spans = span_totals(tr->spans(), in.replay.first_span);
  rep.replay_first_span = in.replay.first_span;
  rep.metrics = layer_metrics(in);
  rep.attempted += replay_checker.ok;
  return rep;
}

// --- serve_small / serve_dup ------------------------------------------------

struct ServeInputs {
  std::vector<std::string> frames;  ///< warm-up requests first
  std::vector<e2e::Kind> kinds;
  std::vector<double> send_at;      ///< open-loop requests, offsets in s
};

ServeInputs make_serve_inputs(const Workload& w, std::uint64_t seed,
                              double seconds, double rate) {
  ServeInputs in;
  in.send_at = e2e::poisson_schedule(seed ^ 0xA11CE5EEDULL, rate, seconds);
  e2e::StreamShape shape;
  shape.duplicates = w.duplicates;
  e2e::StreamGen gen(seed, kWarmupRequests + in.send_at.size(), shape);
  in.frames.reserve(gen.size());
  in.kinds.reserve(gen.size());
  for (std::size_t i = 0; i < gen.size(); ++i) {
    const e2e::Request r = gen.next();
    in.frames.push_back(e2e::wire_frame(label('r', i), r));
    in.kinds.push_back(r.kind);
  }
  return in;
}

/// A parsed wire request, mapped onto the engine's options the way
/// `pobp serve` maps it.
struct Parsed {
  std::string id;
  JobSet jobs;
  ScheduleOptions schedule;
  SubmitOptions submit;
};

Parsed parse_frame(const std::string& frame, std::size_t line_no) {
  auto r = io::try_parse_serve_request(frame, line_no);
  if (!r) die(kExitCheck, "CHECK FAILED: frame %zu rejected by the parser", line_no);
  Parsed p;
  p.id = std::move(r->id);
  p.jobs = std::move(r->jobs);
  p.schedule = schedule_options(r->k.value_or(1), r->machines.value_or(1));
  p.submit.tenant = std::move(r->tenant);
  if (r->cache == "off") {
    p.submit.cache = CacheMode::kOff;
  } else if (r->cache == "read") {
    p.submit.cache = CacheMode::kRead;
  } else if (!r->cache.empty()) {
    p.submit.cache = CacheMode::kReadWrite;
  }
  return p;
}

SolveCacheOptions cache_options(const Workload& w) {
  SolveCacheOptions c;
  c.max_bytes = w.cache_bytes;
  return c;
}

std::unique_ptr<StreamEngine> make_stream(const Workload& w) {
  StreamOptions options;
  options.engine.workers = kWorkers;
  options.engine.cache = std::make_shared<SolveCache>(cache_options(w));
  options.engine.cache_mode = CacheMode::kReadWrite;
  return std::make_unique<StreamEngine>(std::move(options));
}

/// Serves requests [0, count) with at most kClosedInflight in flight (a
/// back-to-back burst would fill the queue and push admissions onto the
/// overload tier's degraded path, whose share depends on timing).
void warm_up(StreamEngine& stream, const ServeInputs& in, std::size_t count) {
  std::deque<std::future<SolveOutcome>> inflight;
  for (std::size_t i = 0; i < count || !inflight.empty();) {
    if (i < count && inflight.size() < kClosedInflight) {
      Parsed p = parse_frame(in.frames[i], i + 1);
      inflight.push_back(stream.submit(std::move(p.jobs), p.schedule,
                                       std::move(p.submit)));
      ++i;
      continue;
    }
    const SolveOutcome outcome = inflight.front().get();
    if (!outcome.has_value() || outcome->degraded) {
      die(kExitCheck, "CHECK FAILED: warm-up request %zu failed or degraded",
          i - inflight.size());
    }
    inflight.pop_front();
  }
}

/// Cache hit ratio between two metric snapshots of one engine.
double hit_ratio(const EngineMetrics& from, const EngineMetrics& to) {
  const auto lookups = static_cast<double>(to.cache_hits + to.cache_misses -
                                           from.cache_hits - from.cache_misses);
  return lookups > 0 ? static_cast<double>(to.cache_hits - from.cache_hits) / lookups
                     : 0.0;
}

/// Deterministic per-request sample choice for the serve_dup re-solve.
bool sampled(std::uint64_t seed, std::size_t i) {
  Rng rng(seed * 0x2545F4914F6CDD1DULL + i);
  return rng() % kDupSampleEvery == 0;
}

Report run_serve(const Args& args, Tracer* tr) {
  const Workload& w = *args.workload;
  // Untraced: an open-loop phase (latency, value checks), then a
  // closed-loop phase (saturated capacity: jobs_per_s, cpu_us_per_job).
  // Traced: the open-loop phase, then the stage replay.
  const double open_s = tr ? args.seconds / 2 : args.seconds * kOpenShare;
  const double closed_s = tr ? 0.0 : args.seconds - open_s;
  const ServeInputs in = make_serve_inputs(w, args.seed, open_s, w.rate);
  std::printf("e2ebench: %zu warm-up + %zu open-loop requests at %.0f/s, "
              "%zu frame bytes; closed loop %.1f s\n",
              kWarmupRequests, in.send_at.size(), w.rate,
              std::accumulate(in.frames.begin(), in.frames.end(), std::size_t{0},
                              [](std::size_t a, const std::string& f) {
                                return a + f.size();
                              }),
              closed_s);

  // Setup: engine and cache construction plus a warm-up run (for
  // serve_dup it also fills the repeat window).
  Reference reference;
  e2e::Scaled setup_probes;
  std::vector<double> setups;
  std::unique_ptr<StreamEngine> stream;
  for (int r = 0; r < kSetupRepeats; ++r) {
    stream.reset();
    const Clock::time_point t0 = Clock::now();
    stream = make_stream(w);
    warm_up(*stream, in, kWarmupRequests);
    setups.push_back(seconds_between(t0, Clock::now()));
    reference.run(setup_probes);
  }
  const double setup_s = setup_seconds(setups, setup_probes);
  const EngineMetrics before = stream->metrics();

  struct Pending {
    std::size_t i;
    Clock::time_point due;
    Clock::time_point submitted;
    std::future<SolveOutcome> future;
    JobSet jobs;
    std::size_t k;
    std::string id;
    std::int32_t span = -1;
  };
  struct Sample {
    JobSet jobs;
    ScheduleOptions options;
    ScheduleResult result;
    std::size_t i;
  };
  std::deque<Pending> pending;
  std::vector<Sample> samples;
  Checker checker;
  // value_share and price_mean cover the open-loop requests, folded in
  // request order so they repeat bit for bit per seed; a lost request
  // counts with value 0.  Closed-loop answers are checked the same way,
  // but their number depends on speed, so their tally is not reported.
  std::vector<e2e::ValueTally> by_request(in.send_at.size());
  e2e::ValueTally closed_tally;
  std::vector<double> latency_s, lag_s, depth;
  latency_s.reserve(in.send_at.size());
  lag_s.reserve(in.send_at.size());
  std::size_t slo_ok = 0;
  std::size_t frame_bytes = 0;
  Clock::time_point last_done;

  // Renders the response frame, or the error frame of a lost request.
  const auto render = [&](const SolveOutcome& outcome, const Pending& p) {
    Scope s(tr, "io.frame", p.i, p.span);
    if (!outcome.has_value()) {
      frame_bytes += io::error_frame(p.id, outcome.error()).size();
      return;
    }
    const ScheduleResult& r = *outcome;
    io::ResponseStats stats;
    stats.value = r.value;
    stats.unbounded_value = r.unbounded_value;
    stats.price = r.price();
    stats.degraded = r.degraded;
    stats.jobs_scheduled = r.schedule.job_count();
    frame_bytes += io::response_frame(p.id, stats).size();
  };
  const auto complete = [&](Pending& p, Clock::time_point ready) {
    SolveOutcome outcome = p.future.get();
    if (tr) {
      tr->add("serve.sojourn", p.submitted, ready, p.span, p.i, true);
    }
    render(outcome, p);
    const Clock::time_point done = Clock::now();
    if (tr) tr->end(p.span);
    last_done = done;
    e2e::ValueTally* slot = &by_request[p.i - kWarmupRequests];
    if (!outcome.has_value()) {
      checker.lost(p.jobs, slot);
      return;
    }
    const ScheduleResult& r = *outcome;
    const double latency = seconds_between(p.due, done);
    latency_s.push_back(latency);
    if (latency * 1e3 <= w.limit_ms) ++slo_ok;
    checker.answer(p.jobs, p.k, r, "request " + std::to_string(p.i), slot);
    if (w.duplicates && in.kinds[p.i] != e2e::Kind::kFresh &&
        sampled(args.seed, p.i)) {
      samples.push_back({std::move(p.jobs),
                         schedule_options(p.k, r.schedule.machine_count()),
                         r, p.i});
    }
  };
  const auto collect_ready = [&] {
    for (auto it = pending.begin(); it != pending.end();) {
      if (it->future.wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        complete(*it, Clock::now());
        it = pending.erase(it);
      } else {
        ++it;
      }
    }
  };
  // Parses frame i into a request record; the jobs are kept for the check.
  const auto prepare = [&](std::size_t i, std::int32_t span) {
    Parsed parsed;
    {
      Scope s(tr, "io.parse", i, span);
      parsed = parse_frame(in.frames[i], i + 1);
    }
    Pending p;
    p.i = i;
    p.span = span;
    p.jobs = parsed.jobs;
    p.k = parsed.schedule.k;
    p.id = std::move(parsed.id);
    return std::make_pair(std::move(p), std::move(parsed));
  };

  // Open loop.  Admission never blocks the generator: a full queue sheds
  // the request (try_submit), which counts as a failure, so a slow program
  // shows as lost requests and latency, never as generator lag.
  const double open_cpu0 = process_cpu_s() - checker.cpu_s;
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(2);
  for (std::size_t j = 0; j < in.send_at.size(); ++j) {
    const std::size_t i = kWarmupRequests + j;
    const Clock::time_point due =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(in.send_at[j]));
    // Collect answers until this request is due.
    for (;;) {
      if (pending.empty()) {
        std::this_thread::sleep_until(due);
        break;
      }
      if (pending.front().future.wait_until(due) !=
          std::future_status::ready) {
        break;
      }
      collect_ready();
    }
    lag_s.push_back(seconds_between(due, Clock::now()));
    std::int32_t span = -1;
    if (tr) {
      span = tr->begin("request", i, -1, true);
      tr->set_start(span, due);
      depth.push_back(static_cast<double>(stream->queue_depth()));
    }
    auto [p, parsed] = prepare(i, span);
    p.due = due;
    {
      Scope s(tr, "serve.submit", i, span);
      p.future = stream->try_submit(std::move(parsed.jobs), parsed.schedule,
                                    std::move(parsed.submit));
    }
    p.submitted = Clock::now();
    pending.push_back(std::move(p));
  }
  while (!pending.empty()) {
    if (pending.front().future.wait_for(std::chrono::seconds(60)) !=
        std::future_status::ready) {
      die(kExitCheck, "CHECK FAILED: request %zu unanswered after 60 s",
          pending.front().i);
    }
    collect_ready();
  }
  const double wall_s = seconds_between(t0, last_done);
  // Process CPU per job answered in the open loop: what the traced run's
  // overhead is measured against (trace.overhead_share).
  const double open_cpu_us_per_job =
      (process_cpu_s() - checker.cpu_s - open_cpu0) /
      double(std::max<std::size_t>(checker.jobs_answered, 1)) * 1e6;
  const std::size_t open_failed = checker.failed;
  stream->drain();
  const EngineMetrics open_end = stream->metrics();

  // Closed loop (untraced): saturated capacity, cycling through the frames
  // in order (a resent frame is far older than anything the cache still
  // holds, so the mix is the open loop's).  It runs in blocks of
  // kClosedBlock requests with at most kClosedInflight in flight; after
  // each block drains, a reference probe runs while the engine is idle.
  // jobs_per_s and cpu_us_per_job cover every block, scaled by the probes
  // (e2e::Scaled).  Every answer is checked like the open loop's.
  e2e::Scaled closed;
  std::size_t closed_sent = 0;
  std::size_t blocks = 0;
  if (closed_s > 0) {
    std::deque<Pending> inflight;
    const auto finish = [&](Pending& p) {
      SolveOutcome outcome = p.future.get();
      render(outcome, p);
      if (!outcome.has_value()) {
        checker.lost(p.jobs, &closed_tally);
        return;
      }
      checker.answer(p.jobs, p.k, *outcome,
                     "closed-loop request " + std::to_string(p.i),
                     &closed_tally);
    };
    const double harness_cpu0 = thread_cpu_s();
    const double check_cpu0 = checker.cpu_s;
    const EngineMetrics closed_start = stream->metrics();
    const Clock::time_point closed0 = Clock::now();
    while (seconds_between(closed0, Clock::now()) < closed_s) {
      const std::size_t jobs0 = checker.jobs_answered;
      const double cpu0 = process_cpu_s() - checker.cpu_s;
      const Clock::time_point b0 = Clock::now();
      for (std::size_t sent = 0; sent < kClosedBlock || !inflight.empty();) {
        if (sent < kClosedBlock && inflight.size() < kClosedInflight) {
          auto [p, parsed] = prepare(closed_sent % in.frames.size(), -1);
          p.future = stream->submit(std::move(parsed.jobs), parsed.schedule,
                                    std::move(parsed.submit));
          ++closed_sent;
          ++sent;
          inflight.push_back(std::move(p));
          continue;
        }
        finish(inflight.front());
        inflight.pop_front();
      }
      const double block_s = seconds_between(b0, Clock::now());
      closed.wall_s += block_s;
      closed.cpu_s += process_cpu_s() - checker.cpu_s - cpu0;
      closed.jobs += static_cast<double>(checker.jobs_answered - jobs0);
      ++blocks;
      reference.run(closed);
    }
    const double harness_share =
        (thread_cpu_s() - harness_cpu0) / closed.wall_s;
    const double check_share = (checker.cpu_s - check_cpu0) / closed.wall_s;
    stream->drain();
    std::printf("e2ebench: closed loop %zu requests in %zu blocks of %zu "
                "(%zu in flight), cache hit ratio %.3f (open loop %.3f), "
                "ingest thread busy %.2f (answer checks %.2f of it)\n",
                closed_sent, blocks, kClosedBlock, kClosedInflight,
                hit_ratio(closed_start, stream->metrics()),
                hit_ratio(before, open_end), harness_share, check_share);
    print_scaled(closed);
  }
  const EngineMetrics& metrics = open_end;

  // serve_dup: sampled cache hits and delta-patched answers against a fresh
  // uncached solve.
  run_on_worker([&] {
    EngineOptions options;
    options.workers = 1;
    Session fresh(options);
    ScheduleResult ref;
    for (const Sample& s : samples) {
      fresh.solve_into(s.jobs, s.options, ref);
      if (result_bytes(ref) != result_bytes(s.result)) {
        die(kExitCheck,
            "CHECK FAILED: request %zu: served answer differs from an "
            "uncached Session::solve_into",
            s.i);
      }
    }
  });
  for (const e2e::ValueTally& t : by_request) checker.tally.merge(t);

  const std::size_t sent = in.send_at.size();
  const e2e::Dist lat = e2e::summarize(latency_s);
  const e2e::Dist lag = e2e::summarize(lag_s);
  std::printf("e2ebench: sent=%zu ok=%zu failed=%zu (open loop: sent=%zu "
              "failed=%zu) resolved_samples=%zu response_bytes=%zu\n",
              sent + closed_sent, checker.ok, checker.failed, sent, open_failed,
              samples.size(), frame_bytes);
  std::printf("e2ebench: latency (scheduled send to frame) n=%zu p50=%.3f ms "
              "p%.1f=%.3f ms; generator lag p%.1f=%.3f ms (limit %.3f ms)\n",
              lat.n, lat.p50 * 1e3, lat.tail_pct, lat.tail * 1e3, lag.tail_pct,
              lag.tail * 1e3, kLagLimitShare * w.limit_ms);
  if (lag.tail * 1e3 > kLagLimitShare * w.limit_ms) {
    die(kExitLag,
        "generator fell behind: lag p%.1f %.3f ms exceeds %.0f%% of the %.0f ms "
        "latency limit; the run cannot tell a slow program from a slow harness",
        lag.tail_pct, lag.tail * 1e3, kLagLimitShare * 100, w.limit_ms);
  }

  std::printf("e2ebench: trace_overhead_basis=%.17g\n", open_cpu_us_per_job);

  Report rep;
  rep.attempted = sent + closed_sent;
  rep.failed = checker.failed;
  if (!tr) {
    rep.metrics = {
        {"setup_s", setup_s, "s"},
        {"jobs_per_s", closed.jobs_per_s(Reference::kNominalWallS), "jobs/s"},
        {"cpu_us_per_job", closed.cpu_us_per_job(Reference::kNominalCpuS), "us"},
        {"slo_share", static_cast<double>(slo_ok) / double(sent), "ratio"},
        {"value_share", checker.tally.value_share(), "ratio"},
        {"price_mean", checker.tally.price_mean(), "ratio"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
    return rep;
  }

  // Traced: engine counters of the timed phase only.
  LayerInputs li;
  li.engine = metrics;
  li.engine.instances -= before.instances;
  li.engine.degraded_solves -= before.degraded_solves;
  li.engine.cache_hits -= before.cache_hits;
  li.engine.cache_misses -= before.cache_misses;
  li.engine.cache_insertions -= before.cache_insertions;
  li.engine.cache_evictions -= before.cache_evictions;
  li.engine.cache_delta_patches -= before.cache_delta_patches;
  li.engine.solve_seconds = RunningStats();
  // Σ solve seconds of the timed phase, re-expressed as one sample.
  li.engine.solve_seconds.add(
      metrics.solve_seconds.mean() * double(metrics.solve_seconds.count()) -
      before.solve_seconds.mean() * double(before.solve_seconds.count()));
  li.worker_wall_s = wall_s;
  li.e2e_spans = span_totals(tr->spans());
  li.sojourn_s.reserve(latency_s.size());
  for (const e2e::Span& s : tr->spans()) {
    if (std::strcmp(s.name, "serve.sojourn") == 0) {
      li.sojourn_s.push_back(double(s.end_ns - s.start_ns) * 1e-9);
    }
  }
  li.latency_s = latency_s;
  li.queue_depth = std::move(depth);
  li.lag_s = std::move(lag_s);
  li.cpu_us_per_job = open_cpu_us_per_job;
  li.ref_cpu_us_per_job = args.ref_cpu_us_per_job;
  stream.reset();

  std::vector<ReplayItem> items;
  items.reserve(in.frames.size());
  for (const std::string& f : in.frames) items.push_back({nullptr, &f, 1, 1});
  Checker replay_checker;
  run_on_worker([&] {
    li.replay = replay(items, cache_options(w), args.seconds / 2, *tr,
                       replay_checker);
  });
  li.replay_spans = span_totals(tr->spans(), li.replay.first_span);
  rep.replay_first_span = li.replay.first_span;
  rep.metrics = layer_metrics(li);
  rep.attempted += replay_checker.ok;
  return rep;
}

// --- calibration ------------------------------------------------------------

/// Saturated capacity: closed loop with 256 requests in flight for
/// --seconds.  The serve rates in kWorkloads are about half of this on the
/// parent commit.
void calibrate(const Args& args) {
  const Workload& w = *args.workload;
  if (!w.serve) die(kExitUsage, "--calibrate applies to serve workloads");
  const ServeInputs in =
      make_serve_inputs(w, args.seed, args.seconds, 20000.0);
  std::unique_ptr<StreamEngine> stream = make_stream(w);
  warm_up(*stream, in, kWarmupRequests);
  std::deque<std::future<SolveOutcome>> inflight;
  std::size_t next = kWarmupRequests, done = 0;
  const Clock::time_point t0 = Clock::now();
  while (seconds_between(t0, Clock::now()) < args.seconds &&
         next < in.frames.size()) {
    while (inflight.size() < 256 && next < in.frames.size()) {
      Parsed p = parse_frame(in.frames[next], next + 1);
      inflight.push_back(stream->submit(std::move(p.jobs), p.schedule,
                                        std::move(p.submit)));
      ++next;
    }
    inflight.front().get();
    inflight.pop_front();
    ++done;
  }
  const double s = seconds_between(t0, Clock::now());
  std::printf("e2ebench: calibrate %s capacity %.0f requests/s (%zu in %.2f s)\n",
              w.name, double(done) / s, done, s);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  check_environment(*args.workload);
  if (args.calibrate) {
    calibrate(args);
    return 0;
  }
  std::unique_ptr<Tracer> tracer;
  if (args.trace) tracer = std::make_unique<Tracer>(Clock::now());
  const Report rep = args.workload->serve ? run_serve(args, tracer.get())
                                          : run_batch_large(args, tracer.get());
  if (tracer && !args.trace_out.empty()) {
    std::ofstream out(args.trace_out);
    const std::size_t replay = rep.replay_first_span;
    out << e2e::chrome_trace(tracer->spans(),
                             {{0, std::min(replay, kTraceFileSpans)},
                              {replay, replay + kTraceFileSpans}});
    if (!out) die(kExitUsage, "cannot write %s", args.trace_out.c_str());
    std::printf("e2ebench: trace %zu spans; the first %zu of the end-to-end "
                "phase and of the replay written to %s\n",
                tracer->spans().size(), kTraceFileSpans, args.trace_out.c_str());
  }
  print_result(rep.attempted, rep.failed, rep.metrics);
  return 0;
}
