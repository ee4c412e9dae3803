// Tests of the benchmark harness's own logic (logic.hpp): the percentile
// rule, probe scaling, seeded determinism and balance of the corpus and
// the Poisson schedule, the serve_dup request mix, span self time and the
// value tally.
//
//   python3 e2ebench/run.py --self-test
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>

#include "logic.hpp"
#include "pobp/io/manifest.hpp"
#include "pobp/io/wire.hpp"

namespace {

using e2e::Kind;

bool same_jobs(const pobp::JobSet& a, const pobp::JobSet& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const pobp::Job& x = a[static_cast<pobp::JobId>(i)];
    const pobp::Job& y = b[static_cast<pobp::JobId>(i)];
    if (x.release != y.release || x.deadline != y.deadline ||
        x.length != y.length || x.value != y.value) {
      return false;
    }
  }
  return true;
}

std::size_t differing_jobs(const pobp::JobSet& a, const pobp::JobSet& b) {
  std::size_t d = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const pobp::Job& x = a[static_cast<pobp::JobId>(i)];
    const pobp::Job& y = b[static_cast<pobp::JobId>(i)];
    if (x.release != y.release || x.deadline != y.deadline ||
        x.length != y.length) {
      return a.size();  // only values may change
    }
    if (x.value != y.value) ++d;
  }
  return d;
}

// --- percentiles ------------------------------------------------------------

TEST(Percentile, TailIsHighestWithTenSamplesBeyond) {
  EXPECT_DOUBLE_EQ(e2e::tail_percentile(1000), 99.0);   // rank 990, 10 beyond
  EXPECT_DOUBLE_EQ(e2e::tail_percentile(100000), 99.0);  // capped
  EXPECT_DOUBLE_EQ(e2e::tail_percentile(999), 98.9);    // p99 has 9 beyond
  EXPECT_DOUBLE_EQ(e2e::tail_percentile(100), 90.0);
  EXPECT_DOUBLE_EQ(e2e::tail_percentile(20), 50.0);
  EXPECT_DOUBLE_EQ(e2e::tail_percentile(5), 50.0);  // nothing better supported
  for (std::size_t n : {25, 137, 999, 4321}) {
    const double p = e2e::tail_percentile(n);
    const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * double(n)));
    EXPECT_GE(n - rank, 10u) << n;
    if (p < 99.0) {  // below the cap, the next step up lacks support
      const auto next = static_cast<std::size_t>(
          std::ceil((p + 0.1) / 100.0 * double(n)));
      EXPECT_LT(n - next, 10u) << n;
    }
  }
}

TEST(Percentile, NearestRankAndSummary) {
  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) v.push_back(i);  // unsorted input
  const e2e::Dist d = e2e::summarize(v);
  EXPECT_EQ(d.n, 1000u);
  EXPECT_DOUBLE_EQ(d.p50, 500.0);
  EXPECT_DOUBLE_EQ(d.tail_pct, 99.0);
  EXPECT_DOUBLE_EQ(d.tail, 990.0);
  EXPECT_DOUBLE_EQ(e2e::median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(e2e::median({4, 1, 2, 3}), 2.5);
}

TEST(Scaled, ProbeCancelsAUniformSlowdown) {
  e2e::Scaled calm;
  calm.jobs = 1000;
  calm.wall_s = 2.0;
  calm.cpu_s = 3.0;
  calm.probes = 10;
  calm.probe_wall_s = 0.5;  // 0.05 s per probe
  calm.probe_cpu_s = 1.0;   // 0.1 s per probe
  EXPECT_DOUBLE_EQ(calm.raw_jobs_per_s(), 500.0);
  EXPECT_DOUBLE_EQ(calm.raw_cpu_us_per_job(), 3000.0);
  EXPECT_DOUBLE_EQ(calm.jobs_per_s(0.05), 500.0);
  EXPECT_DOUBLE_EQ(calm.cpu_us_per_job(0.1), 3000.0);
  EXPECT_DOUBLE_EQ(calm.nominal_seconds(0.8, 0.025), 0.4);  // probe at 2x
  // The host slows program and probe by 1.5x: the scaled figures hold.
  e2e::Scaled slow = calm;
  for (double* x : {&slow.wall_s, &slow.cpu_s, &slow.probe_wall_s, &slow.probe_cpu_s}) {
    *x *= 1.5;
  }
  EXPECT_DOUBLE_EQ(slow.jobs_per_s(0.05), 500.0);
  EXPECT_DOUBLE_EQ(slow.cpu_us_per_job(0.1), 3000.0);
  // A program twice as fast on the same host shows as such.
  e2e::Scaled fast = calm;
  fast.wall_s /= 2;
  fast.cpu_s /= 2;
  EXPECT_DOUBLE_EQ(fast.jobs_per_s(0.05), 1000.0);
  EXPECT_DOUBLE_EQ(fast.cpu_us_per_job(0.1), 1500.0);
}

// --- seeded inputs ----------------------------------------------------------

TEST(Inputs, PoissonScheduleIsSeededAndHasTheRate) {
  const auto a = e2e::poisson_schedule(7, 5000, 4);
  const auto b = e2e::poisson_schedule(7, 5000, 4);
  const auto c = e2e::poisson_schedule(8, 5000, 4);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  ASSERT_FALSE(a.empty());
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_GT(a.front(), 0.0);
  EXPECT_LT(a.back(), 4.0);
  EXPECT_NEAR(double(a.size()) / 4.0, 5000.0, 5000.0 * 0.03);
}

TEST(Inputs, CorpusIsSeededStratifiedAndBalanced) {
  const auto a = e2e::corpus_specs(3, 96, 1000, 4000);
  const auto b = e2e::corpus_specs(3, 96, 1000, 4000);
  const auto c = e2e::corpus_specs(4, 96, 1000, 4000);
  ASSERT_EQ(a.size(), 96u);
  bool all_same = true, any_diff = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    all_same &= a[i].n == b[i].n && a[i].k == b[i].k &&
                a[i].machines == b[i].machines;
    any_diff |= a[i].n != c[i].n;
  }
  EXPECT_TRUE(all_same);
  EXPECT_TRUE(any_diff);
  // One size per equal-width stratum of log n; each (k, m) pair 24 times.
  std::vector<std::size_t> sizes;
  std::map<std::pair<std::size_t, std::size_t>, int> pairs;
  for (const auto& s : a) {
    EXPECT_GE(s.n, 1000u);
    EXPECT_LE(s.n, 4000u);
    sizes.push_back(s.n);
    ++pairs[{s.k, s.machines}];
  }
  std::sort(sizes.begin(), sizes.end());
  const double width = std::log(4.0) / 96.0;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const double x = std::log(double(sizes[i]) / 1000.0);
    EXPECT_GE(x, width * double(i) - 1e-3) << i;
    EXPECT_LE(x, width * double(i + 1) + 1e-3) << i;
  }
  EXPECT_EQ(pairs.size(), 4u);
  for (const auto& [pair, count] : pairs) EXPECT_EQ(count, 24);
  // Each pair holds one size from every block of four neighbouring strata.
  std::map<std::pair<std::size_t, std::size_t>, std::vector<std::size_t>> by_pair;
  for (const auto& s : a) by_pair[{s.k, s.machines}].push_back(s.n);
  for (auto& [pair, ns] : by_pair) {
    std::sort(ns.begin(), ns.end());
    for (std::size_t j = 0; j < ns.size(); ++j) {
      const double x = std::log(double(ns[j]) / 1000.0);
      EXPECT_GE(x, width * double(4 * j) - 1e-3) << j;
      EXPECT_LE(x, width * double(4 * j + 4) + 1e-3) << j;
    }
  }
}

TEST(Inputs, JobsAndFramesAreSeeded) {
  pobp::Rng r1(11), r2(11);
  EXPECT_TRUE(same_jobs(e2e::make_jobs(300, r1), e2e::make_jobs(300, r2)));
  e2e::StreamShape shape;
  e2e::StreamGen g1(5, 64, shape), g2(5, 64, shape);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(e2e::wire_frame("r", g1.next()), e2e::wire_frame("r", g2.next()));
  }
}

TEST(Inputs, EncodingsRoundTripThroughTheIoLayer) {
  e2e::StreamShape shape;
  e2e::StreamGen gen(9, 8, shape);
  std::string corpus;
  std::vector<e2e::Request> requests;
  for (int i = 0; i < 8; ++i) {
    requests.push_back(gen.next());
    corpus += e2e::jsonl_instance("c", requests.back().jobs) + "\n";
    auto parsed = pobp::io::try_parse_serve_request(
        e2e::wire_frame("r1", requests.back()), 1);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_TRUE(same_jobs(parsed->jobs, requests.back().jobs));
    EXPECT_EQ(parsed->k.value_or(0), requests.back().k);
    EXPECT_EQ(parsed->machines.value_or(0), requests.back().machines);
    EXPECT_EQ(parsed->cache, "read_write");
    std::string tenant = "t";
    tenant += std::to_string(requests.back().tenant);
    EXPECT_EQ(parsed->tenant, tenant);
  }
  const auto decoded = pobp::io::try_instances_from_jsonl(corpus);
  ASSERT_EQ(decoded.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(decoded[i].jobs.has_value());
    EXPECT_TRUE(same_jobs(*decoded[i].jobs, requests[i].jobs));
  }
}

// --- the serve_dup mix -------------------------------------------------------

TEST(Mix, KindsAreExactlyFiftyTwentyFiveTwentyFive) {
  const auto kinds = e2e::dup_kinds(1, 4000, 0);
  EXPECT_EQ(std::count(kinds.begin(), kinds.end(), Kind::kExact), 2000);
  EXPECT_EQ(std::count(kinds.begin(), kinds.end(), Kind::kNear), 1000);
  EXPECT_EQ(std::count(kinds.begin(), kinds.end(), Kind::kFresh), 1000);
  EXPECT_EQ(kinds, e2e::dup_kinds(1, 4000, 0));
  EXPECT_NE(kinds, e2e::dup_kinds(2, 4000, 0));
  const auto prefixed = e2e::dup_kinds(1, 4000, 64);
  for (std::size_t i = 0; i < 64; ++i) EXPECT_EQ(prefixed[i], Kind::kFresh);
}

TEST(Mix, RepeatsComeFromTheWindowAndNearRepeatsChangeOneOrTwoJobs) {
  e2e::StreamShape shape;
  shape.duplicates = true;
  const std::size_t count = 3000;
  e2e::StreamGen gen(21, count, shape);
  std::vector<e2e::Request> all;
  std::size_t exact = 0, near = 0, fresh = 0;
  for (std::size_t i = 0; i < count; ++i) {
    e2e::Request r = gen.next();
    if (i < shape.gap) {
      EXPECT_EQ(r.kind, Kind::kFresh);
    }
    const std::size_t lo = i >= shape.window ? i - shape.window : 0;
    const std::size_t hi = i >= shape.gap ? i - shape.gap : 0;  // inclusive
    bool found = false;
    for (std::size_t j = lo; r.kind != Kind::kFresh && j <= hi && !found; ++j) {
      const e2e::Request& src = all[j];
      if (src.k != r.k || src.machines != r.machines ||
          src.jobs.size() != r.jobs.size()) {
        continue;
      }
      if (r.kind == Kind::kExact) {
        found = same_jobs(src.jobs, r.jobs);
      } else {
        const std::size_t d = differing_jobs(src.jobs, r.jobs);
        found = d == 1 || d == 2;
      }
    }
    switch (r.kind) {
      case Kind::kExact: ++exact; EXPECT_TRUE(found) << i; break;
      case Kind::kNear: ++near; EXPECT_TRUE(found) << i; break;
      case Kind::kFresh: ++fresh; break;
    }
    all.push_back(std::move(r));
  }
  // Past the fresh prefix the mix is exact per block of four.
  EXPECT_EQ(exact, (count - shape.gap) / 2);
  EXPECT_EQ(near, (count - shape.gap) / 4);
  EXPECT_EQ(fresh, shape.gap + (count - shape.gap) / 4);
}

TEST(Mix, PlainStreamsAreAllFreshAndDistinct) {
  e2e::StreamShape shape;
  e2e::StreamGen gen(4, 500, shape);
  std::set<std::string> frames;
  for (int i = 0; i < 500; ++i) {
    const e2e::Request r = gen.next();
    EXPECT_EQ(r.kind, Kind::kFresh);
    EXPECT_GE(r.jobs.size(), shape.n_lo);
    EXPECT_LE(r.jobs.size(), shape.n_hi);
    frames.insert(e2e::wire_frame("same-id", r));
  }
  EXPECT_EQ(frames.size(), 500u);
}

// --- spans ------------------------------------------------------------------

TEST(Spans, SelfTimeSubtractsTheUnionOfChildren) {
  std::vector<e2e::Span> s(6);
  s[0] = {"request", 0, 100, -1, 1};
  s[1] = {"a", 10, 30, 0, 1};   // overlaps b: union of a and b is [10, 50)
  s[2] = {"b", 20, 50, 0, 1};
  s[3] = {"a.inner", 12, 15, 1, 1};
  s[4] = {"late", 90, 120, 0, 1};  // clipped to the parent: covers 10
  s[5] = {"other", 0, 40, -1, 2};  // another root, no children
  const auto self = e2e::self_times(s);
  EXPECT_EQ(self[0], 100 - 40 - 10);
  EXPECT_EQ(self[1], 20 - 3);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 3);
  EXPECT_EQ(self[4], 30);
  EXPECT_EQ(self[5], 40);
}

TEST(Spans, ChromeTraceWritesTheRequestedRanges) {
  std::vector<e2e::Span> s(3);
  s[0] = {"io.parse", 1000, 3000, -1, 7};
  s[1] = {"request", 0, 5000, -1, 7, true};
  s[2] = {"replay.solve", 9000, 9500, -1, 8};
  const std::string all = e2e::chrome_trace(s, {{0, 3}});
  EXPECT_NE(all.find("\"name\":\"io.parse\",\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(all.find("\"ph\":\"b\",\"id\":7"), std::string::npos);
  EXPECT_NE(all.find("\"ph\":\"e\",\"id\":7"), std::string::npos);
  const std::string part = e2e::chrome_trace(s, {{0, 1}, {2, 10}});
  EXPECT_EQ(part.find("\"request\",\"cat\""), std::string::npos);
  EXPECT_NE(part.find("replay.solve"), std::string::npos);
}

// --- value tally ------------------------------------------------------------

TEST(Value, ShareAndPriceOnAHandBuiltInstance) {
  pobp::JobSet jobs;
  jobs.add({.release = 0, .deadline = 4, .length = 2, .value = 2.0});
  jobs.add({.release = 0, .deadline = 4, .length = 2, .value = 3.0});
  jobs.add({.release = 4, .deadline = 8, .length = 4, .value = 5.0});
  pobp::Schedule schedule(2);
  schedule.machine(0).add_block(0, 0, 2);
  schedule.machine(1).add_block(2, 4, 4);
  EXPECT_DOUBLE_EQ(e2e::schedule_value(jobs, schedule), 7.0);

  e2e::ValueTally tally;
  tally.add(jobs, 7.0, 10.0 / 7.0);  // the seed kept every job
  EXPECT_DOUBLE_EQ(tally.value_share(), 0.7);
  EXPECT_DOUBLE_EQ(tally.price_mean(), 10.0 / 7.0);
  tally.add(jobs, 10.0, 1.0);
  EXPECT_DOUBLE_EQ(tally.value_share(), 17.0 / 20.0);
  EXPECT_DOUBLE_EQ(tally.price_mean(), (10.0 / 7.0 + 1.0) / 2.0);
  tally.add(jobs, 0.0, std::numeric_limits<double>::infinity());
  EXPECT_DOUBLE_EQ(tally.value_share(), 17.0 / 30.0);
  EXPECT_DOUBLE_EQ(tally.price_mean(), (10.0 / 7.0 + 1.0) / 2.0);
  EXPECT_EQ(tally.answers, 3u);
}

TEST(Value, LostAnswersCountAsZeroValue) {
  pobp::JobSet jobs;
  jobs.add({.release = 0, .deadline = 4, .length = 2, .value = 2.0});
  jobs.add({.release = 0, .deadline = 4, .length = 2, .value = 3.0});
  e2e::ValueTally tally;
  tally.add(jobs, 5.0, 1.0);
  tally.add_lost(jobs);  // shed or failed: no answer, value 0
  EXPECT_DOUBLE_EQ(tally.value_share(), 0.5);
  EXPECT_DOUBLE_EQ(tally.price_mean(), 1.0);
  EXPECT_EQ(tally.answers, 1u);

  e2e::ValueTally first, second, merged;
  first.add(jobs, 4.0, 1.25);
  second.add_lost(jobs);
  merged.merge(first);
  merged.merge(second);
  EXPECT_DOUBLE_EQ(merged.value_share(), 0.4);
  EXPECT_DOUBLE_EQ(merged.price_mean(), 1.25);
  EXPECT_EQ(merged.answers, 1u);
}

}  // namespace
