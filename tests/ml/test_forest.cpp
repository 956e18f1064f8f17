#include "ml/forest.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>

#include "common/rng.hpp"
#include "ml/knn.hpp"
#include "ml/linear.hpp"

namespace src::ml {
namespace {

Dataset friedman_like(std::size_t n, std::uint64_t seed) {
  // Nonlinear benchmark target over 5 features.
  Dataset data(5, 1);
  common::Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    double x[5];
    for (double& v : x) v = rng.uniform();
    const double y = 10 * std::sin(M_PI * x[0] * x[1]) +
                     20 * (x[2] - 0.5) * (x[2] - 0.5) + 10 * x[3] + 5 * x[4] +
                     rng.normal(0.0, 0.5);
    data.add(x, y);
  }
  return data;
}

TEST(ForestTest, FitsNonlinearTarget) {
  const Dataset train = friedman_like(800, 1);
  const Dataset test = friedman_like(200, 2);
  ForestConfig config;
  config.n_trees = 100;
  RandomForestRegressor forest(config);
  forest.fit(train);
  EXPECT_GT(forest.score(test), 0.82);
}

TEST(ForestTest, BeatsSingleTreeOutOfSample) {
  const Dataset train = friedman_like(600, 3);
  const Dataset test = friedman_like(200, 4);
  ForestConfig fc;
  fc.n_trees = 80;
  RandomForestRegressor forest(fc);
  forest.fit(train);
  TreeConfig tc;
  DecisionTreeRegressor tree(tc);
  tree.fit(train);
  EXPECT_GT(forest.score(test), tree.score(test));
}

TEST(ForestTest, DeterministicAcrossThreadCounts) {
  const Dataset train = friedman_like(300, 5);
  ForestConfig one_thread;
  one_thread.n_trees = 16;
  one_thread.threads = 1;
  one_thread.seed = 9;
  ForestConfig many_threads = one_thread;
  many_threads.threads = 8;

  RandomForestRegressor a(one_thread), b(many_threads);
  a.fit(train);
  b.fit(train);
  const Dataset probe = friedman_like(50, 6);
  for (std::size_t i = 0; i < probe.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.predict(probe.row(i)), b.predict(probe.row(i)));
  }
}

TEST(ForestTest, FeatureImportancesSumToOne) {
  const Dataset train = friedman_like(400, 7);
  ForestConfig config;
  config.n_trees = 30;
  RandomForestRegressor forest(config);
  forest.fit(train);
  const auto imp = forest.feature_importances();
  ASSERT_EQ(imp.size(), 5u);
  double total = 0.0;
  for (double v : imp) {
    EXPECT_GE(v, 0.0);
    total += v;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ForestTest, ImportanceIdentifiesInformativeFeatures) {
  Dataset data(4, 1);
  common::Rng rng(8);
  for (int i = 0; i < 600; ++i) {
    double x[4];
    for (double& v : x) v = rng.uniform();
    data.add(x, 5.0 * x[2]);  // only feature 2 matters
  }
  ForestConfig config;
  config.n_trees = 40;
  RandomForestRegressor forest(config);
  forest.fit(data);
  const auto imp = forest.feature_importances();
  EXPECT_GT(imp[2], 0.6);
}

TEST(ForestTest, TreeCountMatchesConfig) {
  ForestConfig config;
  config.n_trees = 7;
  RandomForestRegressor forest(config);
  forest.fit(friedman_like(100, 9));
  EXPECT_EQ(forest.tree_count(), 7u);
}

TEST(ForestTest, UnfittedThrows) {
  RandomForestRegressor forest;
  const double x[5] = {0, 0, 0, 0, 0};
  EXPECT_THROW(forest.predict(std::span{x, 5}), std::runtime_error);
}

// The contiguous FlatNode inference layout must be bit-identical to the
// reference per-tree walk: same descents, same leaf values, summed in tree
// order and divided once.
TEST(ForestTest, FlatInferenceMatchesPerTreeWalkBitExactly) {
  const Dataset train = friedman_like(600, 11);
  ForestConfig config;
  config.n_trees = 25;
  config.seed = 3;
  RandomForestRegressor forest(config);
  forest.fit(train);

  common::Rng rng(99);
  for (int i = 0; i < 200; ++i) {
    double x[5];
    for (double& v : x) v = rng.uniform() * 1.2 - 0.1;  // includes off-grid
    double sum = 0.0;
    for (std::size_t t = 0; t < forest.tree_count(); ++t) {
      sum += forest.tree(t).predict(x);
    }
    const double reference = sum / static_cast<double>(forest.tree_count());
    EXPECT_EQ(forest.predict(x), reference);
  }
}

// predict_batch is the tree-major path behind Dataset scoring: it must be
// bit-identical to N independent predict() calls — same descents, same
// tree-order accumulation.
TEST(ForestTest, PredictBatchMatchesPerRowPredictBitExactly) {
  const Dataset train = friedman_like(500, 41);
  ForestConfig config;
  config.n_trees = 20;
  config.seed = 4;
  RandomForestRegressor forest(config);
  forest.fit(train);

  const Dataset probe = friedman_like(64, 42);
  std::vector<double> out(probe.size());
  forest.predict_batch(probe.features(), probe.feature_count(), out);
  for (std::size_t i = 0; i < probe.size(); ++i) {
    EXPECT_EQ(out[i], forest.predict(probe.row(i)));
  }
}

TEST(ForestTest, PredictBatchHonoursWideStride) {
  const Dataset train = friedman_like(300, 43);
  ForestConfig config;
  config.n_trees = 12;
  RandomForestRegressor forest(config);
  forest.fit(train);

  // Rows padded to stride 7 (5 live features + 2 ignored columns).
  constexpr std::size_t kStride = 7, kRows = 10;
  std::vector<double> xs(kRows * kStride, -1e9);  // poison the padding
  common::Rng rng(44);
  for (std::size_t r = 0; r < kRows; ++r) {
    for (std::size_t f = 0; f < 5; ++f) xs[r * kStride + f] = rng.uniform();
  }
  std::vector<double> out(kRows);
  forest.predict_batch(xs, kStride, out);
  for (std::size_t r = 0; r < kRows; ++r) {
    EXPECT_EQ(out[r], forest.predict(std::span{xs.data() + r * kStride, 5}));
  }
}

TEST(ForestTest, PredictBatchRejectsBadShapes) {
  const Dataset train = friedman_like(100, 45);
  RandomForestRegressor unfitted;
  std::vector<double> xs(10, 0.0);
  std::vector<double> out(2);
  EXPECT_THROW(unfitted.predict_batch(xs, 5, out), std::runtime_error);

  ForestConfig config;
  config.n_trees = 5;
  RandomForestRegressor forest(config);
  forest.fit(train);
  EXPECT_THROW(forest.predict_batch(xs, 3, out), std::invalid_argument);  // stride < dim
  std::vector<double> short_xs(7, 0.0);  // 2 rows need 1*5+5 = 10 doubles
  EXPECT_THROW(forest.predict_batch(short_xs, 5, out), std::invalid_argument);
}

TEST(ForestTest, FlatLayoutRebuiltAfterSerializeRoundTrip) {
  const Dataset train = friedman_like(400, 21);
  ForestConfig config;
  config.n_trees = 10;
  RandomForestRegressor forest(config);
  forest.fit(train);

  std::stringstream buffer;
  forest.save(buffer);
  RandomForestRegressor restored;
  restored.load(buffer);

  common::Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    double x[5];
    for (double& v : x) v = rng.uniform();
    EXPECT_EQ(restored.predict(x), forest.predict(x));
  }
}

TEST(FlatNodeTest, FlattenedTreeMatchesRecursiveDescent) {
  const Dataset train = friedman_like(300, 31);
  DecisionTreeRegressor tree;
  tree.fit(train);

  std::vector<FlatNode> nodes;
  const std::uint32_t root = tree.flatten_into(nodes);
  ASSERT_LT(root, nodes.size());

  common::Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    double x[5];
    for (double& v : x) v = rng.uniform();
    std::uint32_t n = root;
    while (nodes[n].feature != FlatNode::kLeaf) {
      n = x[nodes[n].feature] <= nodes[n].value ? n + 1 : nodes[n].right;
    }
    EXPECT_EQ(nodes[n].value, tree.predict(x));
  }
}

TEST(CrossValTest, ReasonableScoreOnLearnableData) {
  const Dataset data = friedman_like(500, 10);
  ForestConfig config;
  config.n_trees = 30;
  const double cv = cross_val_r2(RandomForestRegressor(config), data, 5, 11);
  EXPECT_GT(cv, 0.8);
}

TEST(CrossValTest, RandomForestBeatsItsIngredients) {
  // The ensemble must beat both a single tree and the linear baseline on
  // nonlinear data — the property behind the paper's Table I winner. (The
  // full five-model Table I ordering is regenerated on actual TPM data by
  // bench/table1_regression_accuracy.)
  const Dataset data = friedman_like(600, 12);
  ForestConfig fc;
  fc.n_trees = 50;
  const double rf = cross_val_r2(RandomForestRegressor(fc), data, 4, 13);
  const double tree = cross_val_r2(DecisionTreeRegressor(), data, 4, 13);
  const double linear = cross_val_r2(LinearRegression(), data, 4, 13);
  EXPECT_GT(rf, tree);
  EXPECT_GT(rf, linear);
}

TEST(MultiOutputTest, IndependentTargets) {
  Dataset data(1, 2);
  common::Rng rng(14);
  for (int i = 0; i < 200; ++i) {
    const double x[1] = {rng.uniform(0, 10)};
    const double y[2] = {2.0 * x[0], -3.0 * x[0] + 1.0};
    data.add(x, y);
  }
  MultiOutputRegressor multi(LinearRegression(), 2);
  multi.fit(data);
  const double probe[1] = {4.0};
  const auto out = multi.predict(probe);
  EXPECT_NEAR(out[0], 8.0, 1e-6);
  EXPECT_NEAR(out[1], -11.0, 1e-6);
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// Pins the fitted trees on data full of ties: three feature columns take a
// handful of values, targets take few values, and every seventh row is
// repeated verbatim, so split searches see equal (x, y) pairs from distinct
// rows and, through the bootstrap, from one row drawn several times. Nodes
// range from the whole sample down to single rows. The constant pins every
// threshold, leaf and importance, so a split search that orders tied points
// or sums them differently shows.
TEST(ForestTest, TieHeavyForestDigest) {
  Dataset data(4, 1);
  common::Rng rng(41);
  for (int i = 0; i < 700; ++i) {
    const double x[4] = {static_cast<double>(rng.uniform_index(3)),
                         static_cast<double>(rng.uniform_index(5)),
                         0.5 * static_cast<double>(rng.uniform_index(7)), rng.uniform()};
    // Tenths are inexact in binary, so the sums depend on the order the
    // split search adds tied-x points in.
    const double y = 3.0 * x[0] + x[1] + std::floor(4.0 * x[3]) +
                     0.1 * static_cast<double>(rng.uniform_index(3));
    data.add(x, y);
    if (i % 7 == 0) data.add(x, y);
  }
  ForestConfig config;
  config.n_trees = 24;
  config.max_features = 2;
  config.seed = 17;
  config.threads = 3;
  RandomForestRegressor forest(config);
  forest.fit(data);
  DecisionTreeRegressor tree;  // every row once, all features
  tree.fit(data);
  std::ostringstream text;
  forest.save(text);
  tree.save(text);
  EXPECT_EQ(fnv1a(text.str()), 10243662197540135859ull);
}

}  // namespace
}  // namespace src::ml
