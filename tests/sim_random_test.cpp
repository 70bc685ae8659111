#include "rst/sim/random.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "rst/sim/stats.hpp"

namespace rst::sim {
namespace {

TEST(RandomStream, DeterministicForSameSeedAndName) {
  RandomStream a{42, "channel"};
  RandomStream b{42, "channel"};
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform01(), b.uniform01());
  }
}

TEST(RandomStream, DifferentNamesAreIndependent) {
  RandomStream a{42, "alpha"};
  RandomStream b{42, "beta"};
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform01() == b.uniform01()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(RandomStream, ChildStreamsAreStable) {
  RandomStream root{7, "root"};
  RandomStream c1 = root.child("x");
  RandomStream c2 = RandomStream{7, "root"}.child("x");
  for (int i = 0; i < 20; ++i) EXPECT_DOUBLE_EQ(c1.uniform01(), c2.uniform01());
}

TEST(RandomStream, ConsumingParentDoesNotAffectChild) {
  RandomStream root1{9, "r"};
  RandomStream root2{9, "r"};
  (void)root1.uniform01();  // consume from one parent only
  RandomStream c1 = root1.child("k");
  RandomStream c2 = root2.child("k");
  EXPECT_DOUBLE_EQ(c1.uniform01(), c2.uniform01());
}

TEST(RandomStream, UniformRespectsBounds) {
  RandomStream r{1, "u"};
  for (int i = 0; i < 1000; ++i) {
    const double v = r.uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
  EXPECT_THROW((void)r.uniform(1.0, 0.0), std::invalid_argument);
}

TEST(RandomStream, UniformIntCoversInclusiveRange) {
  RandomStream r{1, "ui"};
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = r.uniform_int(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    saw_lo |= v == 0;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RandomStream, NormalMomentsApproximatelyCorrect) {
  RandomStream r{123, "n"};
  RunningStats s;
  for (int i = 0; i < 20000; ++i) s.add(r.normal(10.0, 2.0));
  EXPECT_NEAR(s.mean(), 10.0, 0.1);
  EXPECT_NEAR(s.stddev(), 2.0, 0.1);
}

TEST(RandomStream, NormalMinNeverBelowFloor) {
  RandomStream r{5, "nm"};
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(r.normal_min(1.0, 5.0, 0.5), 0.5);
  }
}

TEST(RandomStream, ExponentialMeanApproximatelyCorrect) {
  RandomStream r{11, "e"};
  RunningStats s;
  for (int i = 0; i < 20000; ++i) s.add(r.exponential(3.0));
  EXPECT_NEAR(s.mean(), 3.0, 0.1);
  EXPECT_THROW((void)r.exponential(0.0), std::invalid_argument);
}

TEST(RandomStream, BernoulliEdgeCases) {
  RandomStream r{2, "b"};
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.bernoulli(0.0));
    EXPECT_TRUE(r.bernoulli(1.0));
  }
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += r.bernoulli(0.25) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.25, 0.02);
}

TEST(RandomStream, UniformTimeWithinBounds) {
  using namespace rst::sim::literals;
  RandomStream r{3, "t"};
  for (int i = 0; i < 1000; ++i) {
    const SimTime t = r.uniform_time(10_ms, 20_ms);
    EXPECT_GE(t, 10_ms);
    EXPECT_LE(t, 20_ms);
  }
}

TEST(RandomStream, NormalTimeRespectsMinimum) {
  using namespace rst::sim::literals;
  RandomStream r{4, "nt"};
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(r.normal_time(5_ms, 10_ms, 1_ms), 1_ms);
  }
}

// The first draws of each distribution from a fresh stream, captured from
// the eager-engine implementation (libstdc++'s distributions). The engine
// is seeded on the first draw, so every draw method must seed it exactly
// as construction used to.
struct PinnedDraws {
  std::uint64_t seed;
  const char* name;
  double uniform01[3];
  std::int64_t uniform_int[3];  // uniform_int(-50, 1000)
  double normal[3];             // normal(10, 2)
  double normal_min[3];         // normal_min(1, 2, 0.5)
  double gamma[3];              // gamma(2, 1.5)
  double lognormal[3];          // lognormal(0, 0.5)
  double exponential[3];        // exponential(3)
  const char* bernoulli;        // bernoulli(0.5) x 16
};

constexpr PinnedDraws kPinned[] = {
    {42,
     "channel",
     {0.66849346129019316, 0.1766735049207897, 0.91130736511762911},
     {652, 135, 907},
     {8.0065345937660783, 7.7327193899572944, 9.575980232511073},
     {0.575980232511073, 1.7082359198036317, 1.7565172628620762},
     {1.0239607420927519, 3.6246718709476231, 2.1115086382200849},
     {0.60752232737722667, 0.56732658551434245, 0.8994202032452141},
     {3.3123232348078369, 0.58320733090357402, 7.2677352814042191},
     "0100010101001010"},
    {2023,
     "yolo",
     {0.14181906779382125, 0.14475038443414262, 0.92550538998071286},
     {99, 102, 922},
     {10.057861239481552, 8.4723852454454232, 11.722885057196235},
     {1.0578612394815525, 2.7228850571962355, 3.277483181719822},
     {2.556443436625699, 0.93995944290453948, 1.8486535082749693},
     {1.0145704387609009, 0.68256078839855505, 1.5383666924723651},
     {0.45882097508508635, 0.46908571387100328, 7.7910855148449603},
     "1100101010111011"},
};

TEST(RandomStream, FirstDrawsOfEveryDistributionArePinned) {
  for (const PinnedDraws& p : kPinned) {
    SCOPED_TRACE(p.name);
    const RandomStream fresh{p.seed, p.name};
    {
      RandomStream r = fresh;
      for (double v : p.uniform01) EXPECT_EQ(r.uniform01(), v);
    }
    {
      RandomStream r = fresh;
      for (std::int64_t v : p.uniform_int) EXPECT_EQ(r.uniform_int(-50, 1000), v);
    }
    {
      RandomStream r = fresh;
      for (double v : p.normal) EXPECT_EQ(r.normal(10.0, 2.0), v);
    }
    {
      RandomStream r = fresh;
      for (double v : p.normal_min) EXPECT_EQ(r.normal_min(1.0, 2.0, 0.5), v);
    }
    {
      RandomStream r = fresh;
      for (double v : p.gamma) EXPECT_EQ(r.gamma(2.0, 1.5), v);
    }
    {
      RandomStream r = fresh;
      for (double v : p.lognormal) EXPECT_EQ(r.lognormal(0.0, 0.5), v);
    }
    {
      RandomStream r = fresh;
      for (double v : p.exponential) EXPECT_EQ(r.exponential(3.0), v);
    }
    {
      RandomStream r = fresh;
      std::string bits;
      for (int i = 0; i < 16; ++i) bits += r.bernoulli(0.5) ? '1' : '0';
      EXPECT_EQ(bits, p.bernoulli);
    }
  }
}

TEST(RandomStream, ACopyTakenBeforeTheFirstDrawDrawsTheSameSequence) {
  RandomStream original{42, "channel"};
  RandomStream copy = original;
  RandomStream to_move = original;
  RandomStream moved = std::move(to_move);
  for (int i = 0; i < 1000; ++i) {
    const double v = original.uniform01();
    ASSERT_EQ(copy.uniform01(), v) << "draw " << i;
    ASSERT_EQ(moved.uniform01(), v) << "draw " << i;
  }
  // A copy taken mid-sequence continues from the same point.
  RandomStream later = original;
  for (int i = 0; i < 100; ++i) ASSERT_EQ(later.normal(0, 1), original.normal(0, 1));
}

TEST(RandomStream, ChildrenDependOnlyOnTheSeedNotOnDraws) {
  RandomStream undrawn{9, "r"};
  RandomStream drawn{9, "r"};
  for (int i = 0; i < 700; ++i) (void)drawn.uniform01();  // past one engine regeneration
  RandomStream a = undrawn.child("k");
  RandomStream b = drawn.child("k");
  for (int i = 0; i < 20; ++i) EXPECT_EQ(a.uniform01(), b.uniform01());
  CounterStream ca = undrawn.counter_child(77);
  CounterStream cb = drawn.counter_child(77);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(ca.uniform01(), cb.uniform01());
  // Deriving did not draw: the parents still agree with a fresh stream.
  RandomStream fresh{9, "r"};
  EXPECT_EQ(undrawn.uniform01(), fresh.uniform01());
}

TEST(RandomStream, ThreadsDeriveChildrenFromASharedStream) {
  // Trial pools derive per-trial streams from one shared parent; deriving
  // only reads the parent's seeds, so it needs no lock (TSan checks this).
  const RandomStream shared{5, "pool"};
  constexpr int kThreads = 4;
  std::vector<double> first(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&shared, &first, t] {
      RandomStream mine = shared.child("trial").child(std::to_string(t % 2));
      first[static_cast<std::size_t>(t)] = mine.uniform01();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(first[0], first[2]);
  EXPECT_EQ(first[1], first[3]);
  EXPECT_NE(first[0], first[1]);
  EXPECT_EQ(first[0], shared.child("trial").child("0").uniform01());
}

TEST(StableHash, KnownPropertiesHold) {
  EXPECT_EQ(stable_hash("abc"), stable_hash("abc"));
  EXPECT_NE(stable_hash("abc"), stable_hash("abd"));
  EXPECT_NE(stable_hash(""), stable_hash("a"));
}

}  // namespace
}  // namespace rst::sim
