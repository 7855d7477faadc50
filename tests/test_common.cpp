// Tests for the common runtime: RNG determinism, statistics helpers,
// tables, thread pool, config scaling.
#include <cstdlib>
#include <limits>
#include <set>
#include <sstream>

#include "gtest/gtest.h"
#include "src/common/config.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/table.h"
#include "src/common/thread_pool.h"

namespace fms {
namespace {

TEST(Rng, DeterministicGivenSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, ForkProducesIndependentStreams) {
  Rng a(1);
  Rng fork1 = a.fork();
  Rng fork2 = a.fork();
  // Forks differ from each other.
  EXPECT_NE(fork1.next_u64(), fork2.next_u64());
}

TEST(Rng, RandintBounds) {
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    const int v = rng.randint(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
  }
  EXPECT_THROW(rng.randint(5, 3), CheckError);
}

TEST(Rng, DirichletSumsToOne) {
  Rng rng(3);
  for (double alpha : {0.1, 0.5, 1.0, 10.0}) {
    auto p = rng.dirichlet(alpha, 8);
    double sum = 0.0;
    for (double v : p) {
      EXPECT_GE(v, 0.0);
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(Rng, CategoricalRespectsWeights) {
  Rng rng(4);
  std::vector<float> w{0.0F, 1.0F, 0.0F};
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.categorical(w), 1);
}

TEST(Rng, CategoricalRejectsWeightsWithoutAFinitePositiveSum) {
  Rng rng(4);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_THROW(rng.categorical({nan, 1.0F}), CheckError);
  EXPECT_THROW(rng.categorical({inf, 1.0F}), CheckError);
  EXPECT_THROW(rng.categorical({0.0F, 0.0F}), CheckError);
  EXPECT_THROW(rng.categorical({-1.0F, 2.0F}), CheckError);
  EXPECT_EQ(rng.categorical({0.0F, 2.0F}), 1);
}

TEST(Stats, ExpMovingAverageMatchesEq9) {
  // b_{t+1} = beta * x + (1-beta) * b_t after initialization.
  ExpMovingAverage ema(0.2);
  EXPECT_FALSE(ema.initialized());
  EXPECT_DOUBLE_EQ(ema.update(1.0), 1.0);
  EXPECT_DOUBLE_EQ(ema.update(0.0), 0.8);
  EXPECT_NEAR(ema.update(0.5), 0.2 * 0.5 + 0.8 * 0.8, 1e-12);
}

TEST(Stats, WindowAverage) {
  WindowAverage w(3);
  w.update(1.0);
  w.update(2.0);
  EXPECT_DOUBLE_EQ(w.value(), 1.5);
  w.update(3.0);
  w.update(4.0);  // 1.0 falls out of the window
  EXPECT_DOUBLE_EQ(w.value(), 3.0);
}

TEST(Stats, WindowAverageResistsFloatingPointDrift) {
  // Regression: the rolling sum used to accumulate cancellation error when
  // a huge value passed through the window — subtracting it back out loses
  // the low-order bits of its small neighbors. The window recomputes its
  // sum from the stored values once per window turnover, so after the
  // poison value has aged out the average must be *exact* again.
  WindowAverage w(4);
  w.update(1e16);  // swamps the mantissa of subsequent small values
  for (double x : {1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0}) w.update(x);
  // Window now holds exactly {5, 6, 7, 8}.
  EXPECT_DOUBLE_EQ(w.value(), 6.5);
}

TEST(Stats, WindowAverageLongRunStaysExact) {
  // Repeated large/small churn over many windows; periodic rebuilds keep
  // the sum anchored to the stored values instead of drifting.
  WindowAverage w(8);
  const double big = 1099511627776.0;  // 2^40: sums with 0.25 stay exact
  for (int i = 0; i < 10000; ++i) {
    w.update(i % 2 == 0 ? big : 0.25);
  }
  EXPECT_DOUBLE_EQ(w.value(), (4.0 * big + 4.0 * 0.25) / 8.0);
}

TEST(Stats, OnlineMeanVar) {
  OnlineMeanVar mv;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) mv.update(x);
  EXPECT_NEAR(mv.mean(), 5.0, 1e-12);
  EXPECT_NEAR(mv.variance(), 32.0 / 7.0, 1e-9);  // sample variance
}

TEST(Stats, VectorHelpers) {
  std::vector<double> v{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(mean_of(v), 2.0);
  EXPECT_NEAR(stddev_of(v), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(mean_of({}), 0.0);
}

TEST(Table, PrintsAlignedRowsAndCsv) {
  Table t("demo");
  t.columns({"a", "bb"});
  t.row({"1", "2"});
  t.row({"333", "4"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("demo"), std::string::npos);
  EXPECT_NE(out.find("333"), std::string::npos);
  EXPECT_THROW(t.row({"only-one"}), CheckError);
}

TEST(Table, NumFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(2.0, 0), "2");
}

TEST(Series, StoresPointsAndEnforcesWidth) {
  Series s("curve");
  s.axes("x", {"y1", "y2"});
  s.point(0.0, {1.0, 2.0});
  s.point(1.0, {3.0, 4.0});
  EXPECT_EQ(s.size(), 2u);
  EXPECT_THROW(s.point(2.0, {1.0}), CheckError);
}

TEST(ThreadPool, ParallelForRunsAllIndices) {
  ThreadPool pool(4);
  std::vector<int> hits(100, 0);
  pool.parallel_for(100, [&](std::size_t i) { hits[i] = 1; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(8,
                        [](std::size_t i) {
                          // fms-lint: allow(bare-throw) -- tests that a
                          // non-CheckError exception still propagates
                          if (i == 3) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
}

TEST(ThreadPool, SingleWorkerDegradesToSerial) {
  ThreadPool pool(1);
  int counter = 0;
  pool.parallel_for(10, [&](std::size_t) { ++counter; });
  EXPECT_EQ(counter, 10);
}

TEST(Config, DefaultsMatchPaperTable1) {
  SearchConfig cfg;  // unscaled defaults
  EXPECT_FLOAT_EQ(cfg.theta.learning_rate, 0.025F);
  EXPECT_FLOAT_EQ(cfg.theta.momentum, 0.9F);
  EXPECT_FLOAT_EQ(cfg.theta.weight_decay, 0.0003F);
  EXPECT_FLOAT_EQ(cfg.alpha.learning_rate, 0.003F);
  EXPECT_FLOAT_EQ(cfg.alpha.baseline_decay, 0.99F);
  EXPECT_EQ(cfg.schedule.num_participants, 10);
  EXPECT_FLOAT_EQ(cfg.retrain.lr_federated, 0.1F);
  EXPECT_FLOAT_EQ(cfg.retrain.momentum_federated, 0.5F);
}

TEST(Config, EnvScaleLengthensSchedules) {
  setenv("FMS_SCALE", "2", 1);
  SearchConfig scaled = default_config();
  unsetenv("FMS_SCALE");
  SearchConfig base = default_config();
  EXPECT_EQ(scaled.schedule.search_steps, 2 * base.schedule.search_steps);
  EXPECT_EQ(scaled.schedule.warmup_steps, 2 * base.schedule.warmup_steps);
}

TEST(Config, BadEnvScaleFallsBackToOne) {
  setenv("FMS_SCALE", "not-a-number", 1);
  SearchConfig cfg = default_config();
  unsetenv("FMS_SCALE");
  SearchConfig base = default_config();
  EXPECT_EQ(cfg.schedule.search_steps, base.schedule.search_steps);
}

}  // namespace
}  // namespace fms
