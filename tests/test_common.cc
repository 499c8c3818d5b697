// Unit tests for src/common: RNG, bit utilities, statistics, tables,
// histograms, thread pool, status.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <set>
#include <stdexcept>
#include <thread>

#include "common/bitutil.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/table.h"
#include "common/thread_pool.h"

namespace gfi {
namespace {

// ---------------------------------------------------------------- status --

TEST(Status, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.is_ok());
  EXPECT_EQ(status.to_string(), "OK");
}

TEST(Status, CarriesCodeAndMessage) {
  Status status = Status::invalid_argument("bad thing");
  EXPECT_FALSE(status.is_ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.to_string(), "INVALID_ARGUMENT: bad thing");
}

TEST(Result, HoldsValueOrStatus) {
  Result<int> good(7);
  ASSERT_TRUE(good.is_ok());
  EXPECT_EQ(good.value(), 7);

  Result<int> bad(Status::not_found("nope"));
  EXPECT_FALSE(bad.is_ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);
}

// ------------------------------------------------------------------- rng --

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, StreamsAreIndependent) {
  Rng a = Rng::for_stream(1, 0);
  Rng b = Rng::for_stream(1, 1);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng rng(9);
  for (u64 bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowCoversAllResidues) {
  Rng rng(5);
  std::set<u64> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.next_below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(77);
  for (int i = 0; i < 1000; ++i) {
    const f64 x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, StreamSeedIsPositionIndependent) {
  // The contract sharded/resumable campaigns rely on: the seed of stream i
  // is a pure function of (seed, i), so drawing streams in any order, from
  // any shard, yields identical generators.
  EXPECT_EQ(Rng::stream_seed(42, 7), Rng::stream_seed(42, 7));
  EXPECT_NE(Rng::stream_seed(42, 7), Rng::stream_seed(42, 8));
  EXPECT_NE(Rng::stream_seed(42, 7), Rng::stream_seed(43, 7));
  Rng direct = Rng(Rng::stream_seed(42, 7));
  Rng stream = Rng::for_stream(42, 7);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(direct.next(), stream.next());
}

TEST(Rng, RoughlyUniform) {
  Rng rng(31337);
  int buckets[10] = {};
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++buckets[rng.next_below(10)];
  for (int count : buckets) {
    EXPECT_NEAR(count, n / 10, n / 100);  // within 10% relative
  }
}

// --------------------------------------------------------------- bitutil --

TEST(BitUtil, FlipBit32) {
  EXPECT_EQ(flip_bit32(0, 0), 1u);
  EXPECT_EQ(flip_bit32(1, 0), 0u);
  EXPECT_EQ(flip_bit32(0, 31), 0x80000000u);
  EXPECT_EQ(flip_bit32(flip_bit32(0xDEADBEEF, 13), 13), 0xDEADBEEFu);
}

TEST(BitUtil, FlipBit64RoundTrips) {
  const u64 value = 0x0123456789ABCDEFULL;
  for (u32 bit = 0; bit < 64; ++bit) {
    EXPECT_EQ(flip_bit64(flip_bit64(value, bit), bit), value);
    EXPECT_NE(flip_bit64(value, bit), value);
  }
}

TEST(BitUtil, FloatBitCastsRoundTrip) {
  for (f32 v : {0.0f, 1.0f, -2.5f, 3.1415926f, 1e-30f, 1e30f}) {
    EXPECT_EQ(bits_f32(f32_bits(v)), v);
  }
  for (f64 v : {0.0, -1.0, 2.718281828459045, 1e-300}) {
    EXPECT_EQ(bits_f64(f64_bits(v)), v);
  }
}

TEST(BitUtil, Make64SplitsAndJoins) {
  const u64 v = 0xAABBCCDD11223344ULL;
  EXPECT_EQ(make64(lo32(v), hi32(v)), v);
  EXPECT_EQ(lo32(v), 0x11223344u);
  EXPECT_EQ(hi32(v), 0xAABBCCDDu);
}

TEST(BitUtil, Tf32DropsLowMantissaBits) {
  const f32 x = 1.0f + 0x1.0p-20f;  // sits entirely in the dropped bits
  EXPECT_EQ(to_tf32(x), 1.0f);
  // Values representable in 10 mantissa bits are unchanged.
  EXPECT_EQ(to_tf32(1.5f), 1.5f);
  EXPECT_EQ(to_tf32(-0.75f), -0.75f);
  EXPECT_EQ(to_tf32(0.0f), 0.0f);
}

TEST(BitUtil, Tf32RoundsToNearest) {
  // 1 + 1024.5 ulp(tf32) should round up to 1 + 1025 units? Verify
  // monotonicity and closeness instead of exact ties.
  const f32 x = 1.0f + 0x1.8p-11f;  // halfway+ between two tf32 values
  const f32 t = to_tf32(x);
  EXPECT_NEAR(t, x, 0x1.0p-11f);
}

// ----------------------------------------------------------------- stats --

TEST(Stats, RunningStatsMatchesClosedForm) {
  stats::RunningStats rs;
  for (f64 v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) rs.add(v);
  EXPECT_EQ(rs.count(), 8u);
  EXPECT_DOUBLE_EQ(rs.mean(), 5.0);
  EXPECT_NEAR(rs.stddev(), 2.138, 1e-3);  // sample stddev
  EXPECT_EQ(rs.min(), 2.0);
  EXPECT_EQ(rs.max(), 9.0);
}

TEST(Stats, MergeMatchesSequentialAccumulation) {
  // Shard-merge semantics: accumulating [0,20) in one pass must equal
  // accumulating two halves separately and merging.
  stats::RunningStats sequential, left, right;
  for (int i = 0; i < 20; ++i) {
    const f64 x = static_cast<f64>(i * i) - 7.5;
    sequential.add(x);
    (i < 9 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), sequential.count());
  EXPECT_NEAR(left.mean(), sequential.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), sequential.variance(), 1e-6);
  EXPECT_EQ(left.min(), sequential.min());
  EXPECT_EQ(left.max(), sequential.max());
}

TEST(Stats, MergeWithEmptySidesIsIdentity) {
  stats::RunningStats stats, empty;
  stats.add(1.0);
  stats.add(3.0);
  stats.merge(empty);
  EXPECT_EQ(stats.count(), 2u);
  EXPECT_NEAR(stats.mean(), 2.0, 1e-12);

  stats::RunningStats target;
  target.merge(stats);
  EXPECT_EQ(target.count(), 2u);
  EXPECT_NEAR(target.mean(), 2.0, 1e-12);
  EXPECT_EQ(target.min(), 1.0);
  EXPECT_EQ(target.max(), 3.0);
}

TEST(Stats, WilsonIntervalContainsPointEstimate) {
  const auto ci = stats::wilson_interval(30, 100);
  EXPECT_LT(ci.lo, 0.30);
  EXPECT_GT(ci.hi, 0.30);
  EXPECT_GT(ci.lo, 0.0);
  EXPECT_LT(ci.hi, 1.0);
}

TEST(Stats, WilsonBehavesAtExtremes) {
  const auto zero = stats::wilson_interval(0, 100);
  EXPECT_NEAR(zero.lo, 0.0, 1e-12);
  EXPECT_GT(zero.hi, 0.0);
  EXPECT_LT(zero.hi, 0.05);

  const auto one = stats::wilson_interval(100, 100);
  EXPECT_NEAR(one.hi, 1.0, 1e-12);
  EXPECT_LT(one.lo, 1.0);
  EXPECT_GT(one.lo, 0.95);
}

TEST(Stats, WaldNarrowerWithMoreTrials) {
  const auto small = stats::wald_interval(10, 100);
  const auto large = stats::wald_interval(1000, 10000);
  EXPECT_LT(large.half_width(), small.half_width());
}

TEST(Stats, SampleSizePlannerMatchesLeveugle) {
  // Classic result: large population, 95% confidence, e=3.1% -> ~1000.
  const std::size_t n = stats::required_sample_size(1ULL << 40, 0.031);
  EXPECT_NEAR(static_cast<double>(n), 1000.0, 10.0);
  // e=2.2% -> ~2000.
  const std::size_t n2 = stats::required_sample_size(1ULL << 40, 0.0219);
  EXPECT_NEAR(static_cast<double>(n2), 2000.0, 25.0);
}

TEST(Stats, SampleSizeCappedByPopulation) {
  EXPECT_LE(stats::required_sample_size(50, 0.01), 50u);
}

TEST(Stats, Percentile) {
  std::vector<f64> values = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(stats::percentile(values, 0), 1.0);
  EXPECT_DOUBLE_EQ(stats::percentile(values, 100), 10.0);
  EXPECT_DOUBLE_EQ(stats::percentile(values, 50), 5.5);
}

TEST(Stats, PercentileClampsOutOfRangePct) {
  // Callers passing a fraction (0.5 for the median) or an overshoot (150)
  // get the nearest defined percentile, never an out-of-bounds read.
  std::vector<f64> values = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(stats::percentile(values, -5.0), 1.0);
  EXPECT_DOUBLE_EQ(stats::percentile(values, 150.0), 4.0);
}

TEST(Stats, SampleSizeDegenerateProportionIsClamped) {
  // p of exactly 0 or 1 used to divide by zero in the Leveugle denominator;
  // the planner clamps p into [eps, 1-eps] and returns a sane positive n.
  const std::size_t at_zero =
      stats::required_sample_size(1ULL << 30, 0.01, 0.95, 0.0);
  const std::size_t at_one =
      stats::required_sample_size(1ULL << 30, 0.01, 0.95, 1.0);
  EXPECT_GT(at_zero, 0u);
  EXPECT_EQ(at_zero, at_one);  // symmetric clamp: p(1-p) identical
  EXPECT_EQ(at_zero, stats::required_sample_size(1ULL << 30, 0.01, 0.95,
                                                 stats::kPlannerEps));
}

TEST(Stats, ZForConfidenceAnswersArbitraryLevels) {
  // The canonical campaign levels keep their historical 4-decimal values...
  EXPECT_DOUBLE_EQ(stats::z_for_confidence(0.90), 1.6449);
  EXPECT_DOUBLE_EQ(stats::z_for_confidence(0.95), 1.9600);
  EXPECT_DOUBLE_EQ(stats::z_for_confidence(0.99), 2.5758);
  // ...while any other level in (0, 1) goes through the inverse normal CDF
  // instead of being silently coerced to 95%.
  EXPECT_NEAR(stats::z_for_confidence(0.80), 1.2816, 1e-3);
  EXPECT_NEAR(stats::z_for_confidence(0.999), 3.2905, 1e-3);
  // Nonsense levels are rejected with NaN (poisoning downstream intervals),
  // including the classic percent-instead-of-fraction mistake.
  EXPECT_TRUE(std::isnan(stats::z_for_confidence(0.0)));
  EXPECT_TRUE(std::isnan(stats::z_for_confidence(1.0)));
  EXPECT_TRUE(std::isnan(stats::z_for_confidence(-0.5)));
  EXPECT_TRUE(std::isnan(stats::z_for_confidence(95.0)));
}

TEST(Stats, IntervalsClampImpossibleSuccessCounts) {
  // successes > trials (a caller bug) degrades to the p = 1 interval rather
  // than a NaN CI that would wedge the stopping rule forever.
  const auto wilson = stats::wilson_interval(150, 100);
  const auto wilson_capped = stats::wilson_interval(100, 100);
  EXPECT_DOUBLE_EQ(wilson.lo, wilson_capped.lo);
  EXPECT_DOUBLE_EQ(wilson.hi, wilson_capped.hi);
  const auto wald = stats::wald_interval(150, 100);
  const auto wald_capped = stats::wald_interval(100, 100);
  EXPECT_DOUBLE_EQ(wald.lo, wald_capped.lo);
  EXPECT_DOUBLE_EQ(wald.hi, wald_capped.hi);
}

TEST(Stats, ApportionSumsExactlyAndBreaksTiesTowardLowIndex) {
  EXPECT_EQ(stats::apportion({0.5, 0.3, 0.2}, 100),
            (std::vector<u64>{50, 30, 20}));
  // Equal remainders: the extra unit goes to the lowest index, making the
  // allocation a pure function of (weights, total) — no tie RNG.
  EXPECT_EQ(stats::apportion({0.5, 0.5}, 1), (std::vector<u64>{1, 0}));
  EXPECT_EQ(stats::apportion({1.0, 1.0, 1.0}, 7),
            (std::vector<u64>{3, 2, 2}));
  const auto shares = stats::apportion({0.1234, 0.00001, 0.9, 0.31}, 97);
  u64 sum = 0;
  for (u64 share : shares) sum += share;
  EXPECT_EQ(sum, 97u);
}

TEST(Stats, NeymanFavorsHighSpreadStrata) {
  // Same population weight, but stratum 0 has p~0.5 (max Bernoulli spread)
  // and stratum 1 p~0.02: Neyman allocates stratum 0 the larger share.
  const auto weights = stats::neyman_weights({0.5, 0.5}, {50, 2}, {100, 100});
  ASSERT_EQ(weights.size(), 2u);
  EXPECT_GT(weights[0], weights[1]);
}

TEST(Stats, PoststratifiedMatchesPooledUnderProportionalSampling) {
  // With sampling proportional to the stratum weights, post-stratification
  // reduces to the pooled estimate.
  const std::vector<stats::StratumCount> strata = {{0.5, 10, 100},
                                                   {0.5, 30, 100}};
  EXPECT_NEAR(stats::poststratified_rate(strata), 0.2, 1e-12);
  const auto ci = stats::poststratified_interval(strata);
  EXPECT_LT(ci.lo, 0.2);
  EXPECT_GT(ci.hi, 0.2);
  // Unobserved strata drop out via weight renormalization instead of
  // dragging the estimate toward zero.
  const std::vector<stats::StratumCount> partial = {{0.25, 10, 100},
                                                    {0.75, 0, 0}};
  EXPECT_NEAR(stats::poststratified_rate(partial), 0.1, 1e-12);
}

// ----------------------------------------------------------------- table --

TEST(Table, AsciiAlignsColumns) {
  Table table("T");
  table.set_header({"name", "value"});
  table.add_row({"x", "1"});
  table.add_row({"longer", "22"});
  const std::string ascii = table.to_ascii();
  EXPECT_NE(ascii.find("| name   | value |"), std::string::npos);
  EXPECT_NE(ascii.find("| longer | 22    |"), std::string::npos);
}

TEST(Table, CsvEscapesSpecials) {
  Table table;
  table.set_header({"a", "b"});
  table.add_row({"has,comma", "has\"quote"});
  const std::string csv = table.to_csv();
  EXPECT_NE(csv.find("\"has,comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"has\"\"quote\""), std::string::npos);
}

TEST(Table, FormattersRound) {
  EXPECT_EQ(Table::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Table::pct(0.1234, 1), "12.3%");
}

TEST(Table, ShortRowsArePadded) {
  Table table;
  table.set_header({"a", "b", "c"});
  table.add_row({"only"});
  EXPECT_EQ(table.rows(), 1u);
  EXPECT_NE(table.to_ascii().find("only"), std::string::npos);
}

// ------------------------------------------------------------- histogram --

TEST(Histogram, BinsAndClamps) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(9.5);
  h.add(-100.0);  // clamps to bin 0
  h.add(100.0);   // clamps to last bin
  EXPECT_EQ(h.count(0), 2.0);
  EXPECT_EQ(h.count(9), 2.0);
  EXPECT_EQ(h.total(), 4.0);
}

TEST(Histogram, BinEdges) {
  Histogram h(0.0, 10.0, 10);
  EXPECT_DOUBLE_EQ(h.bin_lo(3), 3.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(3), 4.0);
}

TEST(Histogram, LogScaleBinsAreEqualRatios) {
  Histogram h(0.01, 10000.0, 60, Histogram::Scale::kLog);  // 10 per decade
  EXPECT_EQ(h.scale(), Histogram::Scale::kLog);
  EXPECT_DOUBLE_EQ(h.bin_lo(0), 0.01);
  EXPECT_DOUBLE_EQ(h.bin_hi(59), 10000.0);
  EXPECT_NEAR(h.bin_lo(10), 0.1, 1e-12);
  EXPECT_NEAR(h.bin_lo(30), 10.0, 1e-9);
  h.add(0.05);   // 0.70 decades above lo -> bin 6
  h.add(5.0);    // 2.70 decades -> bin 26
  h.add(0.0);    // non-positive clamps to bin 0
  h.add(-3.0);
  h.add(1e9);    // clamps to the last bin
  h.add(std::numeric_limits<f64>::infinity());
  EXPECT_EQ(h.count(6), 1.0);
  EXPECT_EQ(h.count(26), 1.0);
  EXPECT_EQ(h.count(0), 2.0);
  EXPECT_EQ(h.count(59), 2.0);
  EXPECT_EQ(h.total(), 6.0);
}

TEST(Histogram, NanSamplesAreDroppedNotBinned) {
  Histogram h(0.0, 10.0, 10);
  h.add(std::nan(""), 2.0);
  h.add(5.0);
  EXPECT_EQ(h.total(), 1.0);    // the NaN never entered a bin
  EXPECT_EQ(h.dropped(), 2.0);  // but its weight is accounted for
  EXPECT_EQ(h.count(5), 1.0);
}

TEST(Histogram, DegenerateRangeCollectsEverythingInBinZero) {
  // lo == hi used to divide by a zero span (UB, then an OOB bin index).
  Histogram h(3.0, 3.0, 4);
  h.add(3.0);
  h.add(-1e300);
  h.add(1e300);
  EXPECT_EQ(h.count(0), 3.0);
  EXPECT_EQ(h.total(), 3.0);
}

TEST(Histogram, InfinitiesAndHugeValuesClampToEdgeBins) {
  // Values far outside [lo, hi) used to overflow the f64->size_t cast
  // before the index clamp could run.
  Histogram h(0.0, 10.0, 10);
  h.add(std::numeric_limits<f64>::infinity());
  h.add(-std::numeric_limits<f64>::infinity());
  h.add(1e300);
  h.add(-1e300);
  EXPECT_EQ(h.count(0), 2.0);
  EXPECT_EQ(h.count(9), 2.0);
  EXPECT_EQ(h.total(), 4.0);
}

TEST(Histogram, AsciiRenders) {
  Histogram h(0.0, 2.0, 2);
  h.add(0.5, 3.0);
  h.add(1.5, 1.0);
  const std::string out = h.to_ascii(10);
  EXPECT_NE(out.find("##########"), std::string::npos);
}

// ------------------------------------------------------------ threadpool --

TEST(ThreadPool, RunsAllJobs) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  pool.parallel_for(1000, [&](std::size_t) { ++counter; });
  EXPECT_EQ(counter.load(), 1000);
}

TEST(ThreadPool, ParallelForPassesIndices) {
  ThreadPool pool(3);
  std::vector<int> hits(64, 0);
  pool.parallel_for(64, [&](std::size_t i) { hits[i] = static_cast<int>(i); });
  for (int i = 0; i < 64; ++i) EXPECT_EQ(hits[i], i);
}

TEST(ThreadPool, WaitIdleWithNoWorkReturns) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not deadlock
  SUCCEED();
}

TEST(ThreadPool, ReusableAcrossBatches) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int batch = 0; batch < 5; ++batch) {
    pool.parallel_for(100, [&](std::size_t) { ++counter; });
  }
  EXPECT_EQ(counter.load(), 500);
}

TEST(ThreadPool, ThrowingJobRethrownFromWaitIdle) {
  // A throwing job used to escape worker_loop (std::terminate) and skip the
  // in_flight_ decrement, deadlocking wait_idle() forever.
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 8; ++i) {
    pool.submit([&ran, i] {
      ++ran;
      if (i == 3) throw std::runtime_error("job 3 failed");
    });
  }
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  EXPECT_EQ(ran.load(), 8);  // the rest of the batch still drained
}

TEST(ThreadPool, ParallelForPropagatesFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(64,
                        [](std::size_t i) {
                          if (i % 16 == 0) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
}

TEST(ThreadPool, UsableAfterAJobThrew) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("once"); });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  // The exception slot was consumed; the pool keeps working.
  std::atomic<int> counter{0};
  pool.parallel_for(50, [&](std::size_t) { ++counter; });
  EXPECT_EQ(counter.load(), 50);
}

}  // namespace
}  // namespace gfi
