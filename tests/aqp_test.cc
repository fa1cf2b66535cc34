#include <algorithm>
#include <cmath>
#include <numeric>

#include <gtest/gtest.h>

#include "aqp/confidence.h"
#include "aqp/sampler.h"
#include "tests/test_util.h"

namespace idebench::aqp {
namespace {

TEST(ConfidenceTest, NormalCdfKnownPoints) {
  EXPECT_NEAR(NormalCdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(NormalCdf(1.96), 0.975, 1e-4);
  EXPECT_NEAR(NormalCdf(-1.96), 0.025, 1e-4);
  EXPECT_GT(NormalCdf(6.0), 0.999999);
  EXPECT_LT(NormalCdf(-6.0), 1e-6);
}

TEST(ConfidenceTest, QuantileInvertsCdf) {
  for (double p : {0.001, 0.025, 0.1, 0.5, 0.9, 0.975, 0.999}) {
    EXPECT_NEAR(NormalCdf(NormalQuantile(p)), p, 1e-6) << "p=" << p;
  }
}

TEST(ConfidenceTest, QuantileEdges) {
  EXPECT_LT(NormalQuantile(0.0), -1e6);
  EXPECT_GT(NormalQuantile(1.0), 1e6);
}

TEST(ConfidenceTest, ZScores) {
  EXPECT_NEAR(ZScoreForConfidence(0.95), 1.95996, 1e-3);
  EXPECT_NEAR(ZScoreForConfidence(0.99), 2.57583, 1e-3);
  EXPECT_NEAR(ZScoreForConfidence(0.6827), 1.0, 1e-2);
  EXPECT_EQ(ZScoreForConfidence(0.0), 0.0);
}

constexpr int64_t kBaseRows = 800;
constexpr int64_t kEpochRows = 200;

/// Appends `epochs` segments of 200 rows to `index`, each shuffled by its
/// own stream, as `EngineBase::WalkOrder` extends a walk per epoch.
void AddEpochs(ShuffledIndex* index, int epochs) {
  for (int e = 0; e < epochs; ++e) {
    Rng rng = Rng(5).Fork(static_cast<uint64_t>(e));
    index->ExtendTo(index->size() + kEpochRows, &rng);
  }
}

/// Row id at walk position `pos` of the walk keyed `key`.
int64_t WalkAt(const ShuffledIndex& index, int64_t key, int64_t pos) {
  int64_t row = -1;
  index.GatherWalk(key, pos, 1, &row);
  return row;
}

/// Checks that the walk keyed `key` over every position of `index` visits
/// each row exactly once, and each segment's positions only its own rows.
void ExpectWalkVisitsEachRowOnce(const ShuffledIndex& index, int64_t key) {
  const int64_t n = index.size();
  std::vector<int64_t> rows(static_cast<size_t>(n));
  index.GatherWalk(key, 0, n, rows.data());
  std::vector<int> visits(static_cast<size_t>(n));
  int64_t s0 = 0;
  for (const int64_t s1 : index.segment_bounds()) {
    for (int64_t pos = s0; pos < s1; ++pos) {
      const int64_t row = rows[static_cast<size_t>(pos)];
      ASSERT_GE(row, s0) << "key " << key << " pos " << pos;
      ASSERT_LT(row, s1) << "key " << key << " pos " << pos;
      ++visits[static_cast<size_t>(row)];
    }
    s0 = s1;
  }
  EXPECT_EQ(std::count(visits.begin(), visits.end(), 1), n) << "key " << key;
}

TEST(ShuffledIndexTest, IsPermutation) {
  for (const int epochs : {0, 1, 3}) {
    ShuffledIndex index(kBaseRows);
    AddEpochs(&index, epochs);
    ASSERT_EQ(index.size(), kBaseRows + epochs * kEpochRows);
    for (int64_t key = 0; key < index.size(); ++key) {
      ExpectWalkVisitsEachRowOnce(index, key);
    }
  }
}

TEST(ShuffledIndexTest, PositionsWrap) {
  for (const int epochs : {0, 1, 3}) {
    ShuffledIndex index(kBaseRows);
    AddEpochs(&index, epochs);
    // The base is a ring over the table's own order: position p of the
    // walk keyed k is row (k % B + p) % B, so keys wrap modulo B.
    for (const int64_t key : {0, 3, 799, 800, 803, 1999}) {
      for (const int64_t pos : {0, 1, 2, 796, 797, 799}) {
        EXPECT_EQ(WalkAt(index, key, pos), (key % kBaseRows + pos) % kBaseRows)
            << "key " << key << " pos " << pos;
      }
    }
    // Each epoch is a ring over its own shuffle, read from step k % L on.
    for (int e = 0; e < epochs; ++e) {
      const int64_t s0 = kBaseRows + e * kEpochRows;
      EXPECT_EQ(WalkAt(index, 3, s0), WalkAt(index, 3 + kEpochRows, s0));
      EXPECT_EQ(WalkAt(index, 3, s0 + 2), WalkAt(index, 5, s0));
      EXPECT_EQ(WalkAt(index, 3, s0 + kEpochRows - 3), WalkAt(index, 0, s0));
    }
  }
}

/// `BaseRun` names the first row exactly when a window's positions are
/// consecutive base rows, and -1 when it wraps the base ring or reaches
/// an epoch, whose rows only `GatherWalk` can list.
TEST(ShuffledIndexTest, BaseRunIsTheGatheredRunInsideTheBase) {
  for (const int epochs : {0, 1, 3}) {
    ShuffledIndex index(kBaseRows);
    AddEpochs(&index, epochs);
    for (const int64_t key : {0, 3, 799, 803}) {
      for (const int64_t pos : {0, 1, 500, 796, 799, 800, 950}) {
        for (const int64_t count : {1, 3, 4, 301}) {
          if (pos + count > index.size()) continue;
          std::vector<int64_t> rows(static_cast<size_t>(count));
          index.GatherWalk(key, pos, count, rows.data());
          bool consecutive = true;
          for (int64_t i = 0; i < count; ++i) {
            consecutive &= rows[static_cast<size_t>(i)] == rows[0] + i;
          }
          const bool in_base = pos + count <= kBaseRows;
          EXPECT_EQ(index.BaseRun(key, pos, count),
                    in_base && consecutive ? rows[0] : -1)
              << epochs << " epochs, key " << key << " pos " << pos
              << " count " << count;
        }
      }
    }
  }
  EXPECT_EQ(ShuffledIndex(0).BaseRun(5, 0, 0), -1);
}

TEST(ShuffledIndexTest, EmptyAndSingle) {
  for (const int epochs : {0, 1, 3}) {
    ShuffledIndex empty(0);
    AddEpochs(&empty, epochs);
    EXPECT_EQ(empty.size(), epochs * kEpochRows);
    for (int64_t key = 0; key < 2 * kEpochRows; key += 7) {
      ExpectWalkVisitsEachRowOnce(empty, key);
    }
    ShuffledIndex one(1);
    AddEpochs(&one, epochs);
    EXPECT_EQ(WalkAt(one, 0, 0), 0);
    EXPECT_EQ(WalkAt(one, 5, 0), 0);
    for (int64_t key = 0; key < 2 * kEpochRows; key += 7) {
      ExpectWalkVisitsEachRowOnce(one, key);
    }
  }
  int64_t untouched = -1;
  ShuffledIndex(0).GatherWalk(5, 0, 0, &untouched);
  EXPECT_EQ(untouched, -1);
}

TEST(StratifiedSampleTest, RespectsRateAndMinimum) {
  storage::Table t = testutil::MakeTinyTable();
  Rng rng(6);
  auto sample = BuildStratifiedSample(t, "group", 0.25, 1, &rng);
  ASSERT_TRUE(sample.ok());
  EXPECT_EQ(sample->num_strata, 2);
  EXPECT_EQ(sample->base_rows, 8);
  // 4 rows per stratum * 0.25 = 1 row each.
  EXPECT_EQ(sample->size(), 2);
  for (double w : sample->weights) EXPECT_DOUBLE_EQ(w, 4.0);
}

TEST(StratifiedSampleTest, MinimumPerStratumOverridesRate) {
  storage::Table t = testutil::MakeTinyTable();
  Rng rng(7);
  auto sample = BuildStratifiedSample(t, "group", 0.01, 3, &rng);
  ASSERT_TRUE(sample.ok());
  EXPECT_EQ(sample->size(), 6);  // 3 per stratum
  for (double w : sample->weights) EXPECT_NEAR(w, 4.0 / 3.0, 1e-12);
}

TEST(StratifiedSampleTest, FullRateTakesEverything) {
  storage::Table t = testutil::MakeTinyTable();
  Rng rng(8);
  auto sample = BuildStratifiedSample(t, "group", 1.0, 0, &rng);
  ASSERT_TRUE(sample.ok());
  EXPECT_EQ(sample->size(), 8);
  for (double w : sample->weights) EXPECT_DOUBLE_EQ(w, 1.0);
  std::vector<int64_t> rows = sample->rows;
  std::sort(rows.begin(), rows.end());
  for (int64_t i = 0; i < 8; ++i) EXPECT_EQ(rows[static_cast<size_t>(i)], i);
}

TEST(StratifiedSampleTest, EmptyStratColumnIsUniform) {
  storage::Table t = testutil::MakeTinyTable();
  Rng rng(9);
  auto sample = BuildStratifiedSample(t, "", 0.5, 0, &rng);
  ASSERT_TRUE(sample.ok());
  EXPECT_EQ(sample->num_strata, 1);
  EXPECT_EQ(sample->size(), 4);
  for (double w : sample->weights) EXPECT_DOUBLE_EQ(w, 2.0);
}

TEST(StratifiedSampleTest, InvalidInputs) {
  storage::Table t = testutil::MakeTinyTable();
  Rng rng(10);
  EXPECT_FALSE(BuildStratifiedSample(t, "group", 0.0, 1, &rng).ok());
  EXPECT_FALSE(BuildStratifiedSample(t, "group", 1.5, 1, &rng).ok());
  EXPECT_FALSE(BuildStratifiedSample(t, "ghost", 0.5, 1, &rng).ok());
}

TEST(StratifiedSampleTest, WeightsReconstructPopulation) {
  storage::Table t = testutil::MakeTinyTable();
  Rng rng(11);
  auto sample = BuildStratifiedSample(t, "group", 0.5, 1, &rng);
  ASSERT_TRUE(sample.ok());
  const double total =
      std::accumulate(sample->weights.begin(), sample->weights.end(), 0.0);
  EXPECT_DOUBLE_EQ(total, 8.0);  // HT weights sum to the population size
}

/// Property sweep over sampling rates: HT weights always reconstruct the
/// population size.
class StratifiedRateProperty : public ::testing::TestWithParam<double> {};

TEST_P(StratifiedRateProperty, WeightSumMatchesPopulation) {
  storage::Table t = testutil::MakeTinyTable();
  Rng rng(static_cast<uint64_t>(GetParam() * 1000));
  auto sample = BuildStratifiedSample(t, "group", GetParam(), 1, &rng);
  ASSERT_TRUE(sample.ok());
  const double total =
      std::accumulate(sample->weights.begin(), sample->weights.end(), 0.0);
  EXPECT_NEAR(total, 8.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Rates, StratifiedRateProperty,
                         ::testing::Values(0.1, 0.25, 0.5, 0.75, 1.0));

}  // namespace
}  // namespace idebench::aqp
