// Campaign server tests: spec canonicalization, trial-record round trips,
// the ResultStore segment file, and the CampaignEngine's acceptance
// criteria — an identical (spec, seed) resubmission is a full cache hit
// (zero trials executed, byte-identical artifact), output is bit-identical
// across worker counts, and only a valid campaign is admitted.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "rst/core/config_io.hpp"
#include "rst/server/campaign.hpp"
#include "rst/server/campaign_engine.hpp"
#include "rst/server/protocol.hpp"
#include "rst/server/result_store.hpp"

namespace rst::server {
namespace {

constexpr const char* kSpec =
    "# blind-corner campaign\n"
    "target_speed_mps = 0.45\n"
    "detection_fps = 20\n";

/// A scratch path in the build tree; removed before use so each test run
/// starts from an empty segment.
std::string scratch_path(const char* name) {
  std::string path = std::string{"campaign_test_"} + name + ".seg";
  std::remove(path.c_str());
  return path;
}

// --- Canonicalization ------------------------------------------------------

TEST(Canonicalize, IsAFixedPoint) {
  const std::string once = core::canonicalize_spec(kSpec);
  EXPECT_EQ(core::canonicalize_spec(once), once);
}

TEST(Canonicalize, CommentsWhitespaceAndOrderDoNotMatter) {
  const std::string reordered =
      "detection_fps=20\n"
      "   target_speed_mps   =   0.45   # trailing comment\n";
  EXPECT_EQ(core::canonicalize_spec(reordered), core::canonicalize_spec(kSpec));
}

TEST(Canonicalize, NumericFormattingIsNormalized) {
  // 0.450 and 4.5e-1 are the same double; the canonical form renders it
  // one way, so all three spell the same campaign.
  EXPECT_EQ(core::canonicalize_spec("target_speed_mps = 0.450\n"),
            core::canonicalize_spec("target_speed_mps = 4.5e-1\n"));
}

TEST(Canonicalize, RepeatedFaultClausesKeepTheirOrder) {
  const std::string spec =
      "fault = node-down:rsu:10:20:1\n"
      "seed = 9\n"
      "fault = http-loss:lan:0:5:0.5\n";
  const std::string canon = core::canonicalize_spec(spec);
  // Stable sort: both clauses survive, in submission order.
  const auto first = canon.find("node-down");
  const auto second = canon.find("http-loss");
  ASSERT_NE(first, std::string::npos);
  ASSERT_NE(second, std::string::npos);
  EXPECT_LT(first, second);
  EXPECT_EQ(core::canonicalize_spec(canon), canon);
}

TEST(Canonicalize, DistinctSpecsGetDistinctKeys) {
  const auto key = [](const char* spec) { return trial_key(core::canonicalize_spec(spec), 1); };
  EXPECT_NE(key("target_speed_mps = 0.45\n"), key("target_speed_mps = 0.46\n"));
  EXPECT_NE(trial_key(core::canonicalize_spec(kSpec), 1),
            trial_key(core::canonicalize_spec(kSpec), 2));
}

// --- Trial records ---------------------------------------------------------

TEST(TrialRecord, RoundTripsExactly) {
  core::TrialResult r;
  r.stopped_by_denm = true;
  r.t_detection = sim::SimTime::nanoseconds(13612044980);
  r.t_halt = sim::SimTime::nanoseconds(13816000000);
  r.meas_total_ms = 40.580674999999999;
  r.braking_distance_m = 0.056521836067378928;
  r.detection_distance_m = 1.49783050298794;
  r.speed_at_detection_mps = 0.45107080754431228;
  const std::string line = serialize_trial_record(42, r);
  const TrialRecord back = parse_trial_record(line);
  EXPECT_EQ(back.seed, 42u);
  EXPECT_EQ(back.result.stopped_by_denm, r.stopped_by_denm);
  EXPECT_EQ(back.result.t_detection, r.t_detection);
  EXPECT_EQ(back.result.t_halt, r.t_halt);
  // %.17g round-trips every finite double bit-for-bit.
  EXPECT_EQ(back.result.meas_total_ms, r.meas_total_ms);
  EXPECT_EQ(back.result.braking_distance_m, r.braking_distance_m);
  EXPECT_EQ(back.result.detection_distance_m, r.detection_distance_m);
  EXPECT_EQ(back.result.speed_at_detection_mps, r.speed_at_detection_mps);
  // Serializing the parsed record reproduces the exact bytes.
  EXPECT_EQ(serialize_trial_record(back.seed, back.result), line);
}

TEST(TrialRecord, TruncatedOrCorruptRecordsFailLoud) {
  const std::string line = serialize_trial_record(1, core::TrialResult{});
  EXPECT_THROW((void)parse_trial_record(line.substr(0, line.size() / 2)), std::invalid_argument);
  EXPECT_THROW((void)parse_trial_record(line + " bogus=1"), std::invalid_argument);
  EXPECT_THROW((void)parse_trial_record("seed=abc"), std::invalid_argument);
}

TEST(TrialRecord, DuplicatedFieldCannotMaskAMissingOne) {
  const std::string line = serialize_trial_record(1, core::TrialResult{});
  // Swap one field for a duplicate of another: the token count is still 17,
  // but the record would silently decode total_ms as default-zero.
  const auto total = line.find(" total_ms=");
  const auto after_total = line.find(' ', total + 1);
  ASSERT_NE(total, std::string::npos);
  const std::string dup_for_missing =
      line.substr(0, total) + " brake_m=1" +
      (after_total == std::string::npos ? "" : line.substr(after_total));
  EXPECT_THROW((void)parse_trial_record(dup_for_missing), std::invalid_argument);
  // A plain 18-token duplicate fails too.
  EXPECT_THROW((void)parse_trial_record(line + " seed=1"), std::invalid_argument);
}

// --- ResultStore -----------------------------------------------------------

TEST(ResultStore, MemoryOnlyPutGet) {
  ResultStore store;
  EXPECT_EQ(store.get(7), nullptr);
  store.put(7, "value");
  ASSERT_NE(store.get(7), nullptr);
  EXPECT_EQ(*store.get(7), "value");
  EXPECT_EQ(store.count(), 1u);
}

TEST(ResultStore, SurvivesReopen) {
  const std::string path = scratch_path("reopen");
  {
    ResultStore store{path};
    store.put(1, "one");
    store.put(2, "two");
  }
  ResultStore reopened{path};
  EXPECT_EQ(reopened.count(), 2u);
  EXPECT_EQ(*reopened.get(1), "one");
  EXPECT_EQ(*reopened.get(2), "two");
  std::remove(path.c_str());
}

TEST(ResultStore, ToleratesTornTail) {
  const std::string path = scratch_path("torn");
  {
    ResultStore store{path};
    store.put(1, "one");
    store.put(2, "two");
  }
  // Chop a few bytes off the tail — a crash mid-append.
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    std::fclose(f);
    ASSERT_EQ(::truncate(path.c_str(), size - 2), 0);
  }
  ResultStore reopened{path};
  EXPECT_EQ(reopened.count(), 1u);  // the torn record is dropped
  EXPECT_EQ(*reopened.get(1), "one");
  std::remove(path.c_str());
}

TEST(ResultStore, AppendsAfterTornTailStayParseable) {
  // A torn tail must be truncated from the file, not just skipped in the
  // index: records appended after partial bytes would misalign every later
  // replay (the torn length header eats the next record's start).
  const std::string path = scratch_path("torn_append");
  {
    ResultStore store{path};
    store.put(1, "one");
    store.put(2, "two");
  }
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    std::fclose(f);
    ASSERT_EQ(::truncate(path.c_str(), size - 2), 0);
  }
  {
    ResultStore store{path};
    EXPECT_EQ(store.count(), 1u);
    store.put(3, "three");  // lands where the torn bytes were
    store.put(2, "two again");
  }
  ResultStore reopened{path};
  EXPECT_EQ(reopened.count(), 3u);
  EXPECT_EQ(*reopened.get(1), "one");
  EXPECT_EQ(*reopened.get(2), "two again");
  EXPECT_EQ(*reopened.get(3), "three");
  std::remove(path.c_str());
}

TEST(ResultStore, TornMagicHeaderIsTruncatedAway) {
  // A crash during the very first append can leave a prefix of the magic;
  // that is a torn write, not a foreign file — reopen treats it as empty.
  const std::string path = scratch_path("torn_magic");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(ResultStore::kMagic, 1, 3, f);
    std::fclose(f);
  }
  {
    ResultStore store{path};
    EXPECT_EQ(store.count(), 0u);
    store.put(9, "nine");
  }
  ResultStore reopened{path};
  EXPECT_EQ(reopened.count(), 1u);
  EXPECT_EQ(*reopened.get(9), "nine");
  std::remove(path.c_str());
}

TEST(ResultStore, CompactionReclaimsSupersededBytes) {
  const std::string path = scratch_path("compact");
  {
    ResultStore store{path};
    store.put(1, "first version, rather long so the dead bytes are visible");
    store.put(1, "second");
    store.put(2, "other");
    EXPECT_GT(store.appended_bytes(), store.live_bytes());
    const std::uint64_t reclaimed = store.compact();
    EXPECT_GT(reclaimed, 0u);
    EXPECT_EQ(store.appended_bytes(), store.live_bytes());
    EXPECT_EQ(*store.get(1), "second");
  }
  ResultStore reopened{path};
  EXPECT_EQ(reopened.count(), 2u);
  EXPECT_EQ(*reopened.get(1), "second");
  EXPECT_EQ(*reopened.get(2), "other");
  std::remove(path.c_str());
}

TEST(ResultStore, RejectsForeignFile) {
  const std::string path = scratch_path("foreign");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    std::fputs("this is not a segment", f);
    std::fclose(f);
  }
  EXPECT_THROW(ResultStore{path}, std::runtime_error);
  std::remove(path.c_str());
}

// --- CampaignEngine --------------------------------------------------------

CampaignRequest small_campaign(int trials = 4) {
  CampaignRequest request;
  request.spec = kSpec;
  request.trials = trials;
  request.base_seed = 42;
  return request;
}

TEST(CampaignEngine, ResubmissionIsAFullCacheHit) {
  CampaignEngine engine{{}};
  const CampaignOutcome cold = engine.execute(small_campaign());
  ASSERT_EQ(cold.status, CampaignOutcome::Status::Ok);
  EXPECT_EQ(cold.cache_hits, 0u);
  EXPECT_EQ(cold.cache_misses, 4u);
  EXPECT_EQ(cold.executed, 4u);
  const std::uint64_t executed_after_cold = engine.trials_executed();

  const CampaignOutcome warm = engine.execute(small_campaign());
  ASSERT_EQ(warm.status, CampaignOutcome::Status::Ok);
  EXPECT_EQ(warm.cache_hits, 4u);
  EXPECT_EQ(warm.cache_misses, 0u);
  EXPECT_EQ(warm.executed, 0u);
  // Zero trials re-executed, proven by the engine-lifetime counter...
  EXPECT_EQ(engine.trials_executed(), executed_after_cold);
  // ...and the artifact is byte-identical.
  EXPECT_EQ(warm.artifact, cold.artifact);
  EXPECT_EQ(warm.id, cold.id);
}

TEST(CampaignEngine, SpellingVariantsShareTheCache) {
  CampaignEngine engine{{}};
  const CampaignOutcome cold = engine.execute(small_campaign());
  CampaignRequest variant = small_campaign();
  variant.spec = "detection_fps=20\ntarget_speed_mps = 4.5e-1  # same campaign\n";
  const CampaignOutcome warm = engine.execute(variant);
  EXPECT_EQ(warm.executed, 0u);
  EXPECT_EQ(warm.artifact, cold.artifact);
}

TEST(CampaignEngine, ArtifactIsBitIdenticalAcrossWorkerCounts) {
  CampaignEngineConfig serial;
  serial.threads = 1;
  CampaignEngineConfig pooled;
  pooled.threads = 8;
  CampaignEngine a{serial};
  CampaignEngine b{pooled};
  const CampaignOutcome ra = a.execute(small_campaign(8));
  const CampaignOutcome rb = b.execute(small_campaign(8));
  ASSERT_EQ(ra.status, CampaignOutcome::Status::Ok);
  ASSERT_EQ(rb.status, CampaignOutcome::Status::Ok);
  EXPECT_EQ(ra.artifact, rb.artifact);
  // Both executed everything — this is a cold-vs-cold comparison.
  EXPECT_EQ(ra.executed, 8u);
  EXPECT_EQ(rb.executed, 8u);
}

TEST(CampaignEngine, PartialOverlapRunsOnlyTheMisses) {
  CampaignEngine engine{{}};
  (void)engine.execute(small_campaign(4));  // seeds 42..45
  CampaignRequest wider = small_campaign(6);  // seeds 42..47
  const CampaignOutcome out = engine.execute(wider);
  EXPECT_EQ(out.cache_hits, 4u);
  EXPECT_EQ(out.cache_misses, 2u);
  EXPECT_EQ(out.executed, 2u);
}

TEST(CampaignEngine, StreamsInSeedOrderIncrementally) {
  CampaignEngineConfig config;
  config.threads = 4;
  CampaignEngine engine{config};
  std::vector<std::string> lines;
  const CampaignOutcome out =
      engine.execute(small_campaign(6), [&](const std::string& line) { lines.push_back(line); });
  ASSERT_EQ(out.status, CampaignOutcome::Status::Ok);
  ASSERT_GE(lines.size(), 6u);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(lines[static_cast<std::size_t>(i)].rfind("TRIAL " + std::to_string(i) + " ", 0), 0u);
  }
  // The streamed lines are exactly the artifact.
  std::string joined;
  for (const auto& line : lines) joined += line + "\n";
  EXPECT_EQ(joined, out.artifact);
}

TEST(CampaignEngine, CacheHitsComeFromTheSegmentFileAfterReopen) {
  const std::string path = scratch_path("engine");
  std::string cold_artifact;
  {
    CampaignEngineConfig config;
    config.store_path = path;
    CampaignEngine engine{config};
    cold_artifact = engine.execute(small_campaign()).artifact;
  }
  CampaignEngineConfig config;
  config.store_path = path;
  CampaignEngine reopened{config};
  const CampaignOutcome warm = reopened.execute(small_campaign());
  EXPECT_EQ(warm.executed, 0u);
  EXPECT_EQ(warm.artifact, cold_artifact);
  EXPECT_EQ(reopened.trials_executed(), 0u);
  std::remove(path.c_str());
}

TEST(CampaignEngine, RecordsStoredUnderAnOlderCodeVersionAreNotServed) {
  // A near-sensitivity trial whose outcome changed with the medium's draw
  // order: under code version rst-campaign/1 this seed lost its DENM.
  CampaignRequest request;
  request.spec = "fault = radio-attenuation:medium:0:30000:62\n";
  request.trials = 1;
  request.base_seed = 319;
  // The rst-campaign/1 content address, spelled out: FNV-1a over the
  // canonical spec, then the seed's 8 little-endian bytes, then the version.
  std::string seed_bytes;
  for (int i = 0; i < 8; ++i) {
    seed_bytes += static_cast<char>((request.base_seed >> (8 * i)) & 0xffu);
  }
  const std::uint64_t stale_key =
      fnv1a("rst-campaign/1", fnv1a(seed_bytes, fnv1a(core::canonicalize_spec(request.spec))));
  core::TrialResult lost;
  lost.timed_out = true;
  const std::string planted = serialize_trial_record(request.base_seed, lost);

  CampaignEngine engine{{}};
  engine.store().put(stale_key, planted);
  const CampaignOutcome out = engine.execute(request);
  ASSERT_EQ(out.status, CampaignOutcome::Status::Ok) << out.error;
  EXPECT_EQ(out.cache_hits, 0u);
  EXPECT_EQ(out.executed, 1u);
  EXPECT_EQ(out.artifact.find(planted), std::string::npos);
  // The current medium delivers this trial's DENM.
  EXPECT_NE(out.artifact.find(" stopped=1 "), std::string::npos) << out.artifact;
}

/// Specs that must fail before any trial runs, with the key each names: an
/// unknown key, out-of-bound values, and a cross-field validate() rule.
const std::pair<const char*, const char*> kBadSpecs[] = {
    {"no_such_knob = 1\n", "no_such_knob"},
    {"poll_period_ms = 0\n", "poll_period_ms"},
    {"medium_power_floor_dbm = 1\n", "medium_power_floor_dbm"},
    {"cpm_enable = true\ncpm_interval_ms = 0\n", "cpm_interval"},
};

TEST(CampaignEngine, BadSpecIsAnErrorNotACrash) {
  for (const unsigned threads : {1u, 4u}) {
    for (const auto& [spec, key] : kBadSpecs) {
      CampaignEngineConfig config;
      config.threads = threads;
      CampaignEngine engine{config};
      CampaignRequest bad = small_campaign();
      bad.spec = spec;
      const CampaignOutcome out = engine.execute(bad);
      EXPECT_EQ(out.status, CampaignOutcome::Status::Error) << spec;
      EXPECT_NE(out.error.find(key), std::string::npos) << out.error;
      EXPECT_EQ(engine.trials_executed(), 0u);
      EXPECT_EQ(engine.store().count(), 0u);
    }
  }
}

TEST(CampaignEngine, SpellingsOfOneConfigShareTrials) {
  // Six spellings of two configs (CPM on, and the default): only the two
  // configs' trials run and are stored.
  CampaignEngine engine{{}};
  const auto campaign = [](const char* spec) {
    CampaignRequest request;
    request.spec = spec;
    request.trials = 8;
    request.base_seed = 1;
    return request;
  };
  for (const char* spec : {"cpm_enable = true\n", "cpm_enable = on\n", "cpm_enable = 1\n", "",
                           "poll_period_ms = 50\n", "seed = 99\n"}) {
    ASSERT_EQ(engine.execute(campaign(spec)).status, CampaignOutcome::Status::Ok) << spec;
  }
  EXPECT_EQ(engine.trials_executed(), 16u);
  EXPECT_EQ(engine.store().count(), 16u);
  EXPECT_EQ(engine.execute(campaign("# once more\ncpm_enable=1\npoll_period_ms = 5e1\n")).executed,
            0u);
}

TEST(CampaignEngine, AdmissionTraceEventsCarryTheCampaignId) {
  CampaignEngine engine{{}};
  const CampaignRequest request = small_campaign();
  const CampaignOutcome out = engine.execute(request);
  ASSERT_EQ(out.status, CampaignOutcome::Status::Ok);
  EXPECT_EQ(out.id,
            campaign_id(core::canonicalize_spec(request.spec), request.trials, request.base_seed));
  CampaignRequest bad = small_campaign();
  bad.spec = "not_a_knob = 3\n";
  ASSERT_EQ(engine.execute(bad).status, CampaignOutcome::Status::Error);
  // Only the campaign that passed validation is admitted, under its id.
  std::vector<std::uint64_t> admitted;
  for (const auto& e : engine.trace().events()) {
    if (e.stage == sim::Stage::CampaignAdmitted) admitted.push_back(e.a);
  }
  EXPECT_EQ(admitted, std::vector<std::uint64_t>{out.id});
  EXPECT_EQ(engine.metrics().counter("campaigns_admitted").value(), 1u);
}

TEST(CampaignEngine, ObservabilityCountsMatchOutcomes) {
  CampaignEngine engine{{}};
  (void)engine.execute(small_campaign());
  (void)engine.execute(small_campaign());
  auto& m = engine.metrics();
  EXPECT_EQ(m.counter("cache_hits").value(), 4u);
  EXPECT_EQ(m.counter("cache_misses").value(), 4u);
  EXPECT_EQ(m.counter("trials_executed").value(), 4u);
  EXPECT_EQ(m.counter("campaigns_admitted").value(), 2u);
  EXPECT_EQ(m.histogram("campaign.trial_total_ms").count(), 8u);
  // One CampaignTrial trace event per trial per run, hit/miss in `detail`.
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  for (const auto& e : engine.trace().events()) {
    if (e.stage != sim::Stage::CampaignTrial) continue;
    (e.detail == sim::kCampaignTrialHit ? hits : misses) += 1;
  }
  EXPECT_EQ(hits, 4u);
  EXPECT_EQ(misses, 4u);
}

// --- LineSession protocol --------------------------------------------------

TEST(LineSession, PingStatsAndUnknownCommands) {
  CampaignEngine engine{{}};
  LineSession session{engine};
  EXPECT_EQ(session.handle_text("PING\n"), "PONG\n");
  EXPECT_EQ(session.handle_text("STATS\n"),
            "STATS admitted=0 cache_hits=0 cache_misses=0 executed=0 store_records=0\n");
  const std::string bad = session.handle_text("FROB\n");
  EXPECT_EQ(bad.rfind("ERROR unknown command", 0), 0u);
}

TEST(LineSession, CampaignRoundTripAndCacheHitReplay) {
  CampaignEngine engine{{}};
  const std::string request = format_campaign_request(small_campaign(3));
  LineSession a{engine};
  const std::string cold = a.handle_text(request);
  LineSession b{engine};
  const std::string warm = b.handle_text(request);

  // Both responses: OK header, artifact, ENDARTIFACT, STATS, DONE.
  EXPECT_EQ(cold.rfind("OK id=", 0), 0u);
  EXPECT_NE(cold.find("\nENDARTIFACT\nSTATS "), std::string::npos);
  EXPECT_NE(cold.find("STATS hits=0 misses=3 executed=3\n"), std::string::npos);
  EXPECT_NE(warm.find("STATS hits=3 misses=0 executed=0\n"), std::string::npos);
  // The byte-stable artifact block (everything before the STATS trailer)
  // is identical across the cold and cache-hit paths.
  EXPECT_EQ(cold.substr(0, cold.find("STATS ")), warm.substr(0, warm.find("STATS ")));
}

TEST(LineSession, BadSpecYieldsError) {
  CampaignEngine engine{{}};
  LineSession session{engine};
  const std::string response =
      session.handle_text("CAMPAIGN trials=2 seed=1\nnot_a_knob = 3\nEND\n");
  EXPECT_EQ(response.rfind("ERROR ", 0), 0u);
  EXPECT_NE(response.find("DONE\n"), std::string::npos);
  for (const unsigned threads : {1u, 4u}) {
    for (const auto& [spec, key] : kBadSpecs) {
      CampaignEngineConfig config;
      config.threads = threads;
      CampaignEngine bad_engine{config};
      LineSession bad_session{bad_engine};
      const std::string text =
          bad_session.handle_text(std::string{"CAMPAIGN trials=2 seed=1\n"} + spec + "END\n");
      EXPECT_EQ(text.rfind("ERROR ", 0), 0u) << text;
      EXPECT_NE(text.find(key), std::string::npos) << text;
      EXPECT_NE(text.find("DONE\n"), std::string::npos);
      EXPECT_EQ(bad_engine.trials_executed(), 0u);
      EXPECT_EQ(bad_engine.store().count(), 0u);
    }
  }
}

TEST(LineSession, OverflowingFaultSeverityIsAnErrorAndTheEngineServesOn) {
  // A stall whose nanosecond count overflows SimTime is refused when the
  // spec is parsed, before any trial runs, and the session serves on.
  CampaignEngine engine{{}};
  LineSession session{engine};
  const std::string bad = session.handle_text(
      "CAMPAIGN trials=2 seed=1\nfault = http-stall:lan:0:1000:1e300\nEND\n");
  EXPECT_EQ(bad.rfind("ERROR ", 0), 0u) << bad;
  EXPECT_NE(bad.find("http-stall"), std::string::npos) << bad;
  EXPECT_NE(bad.find("DONE\n"), std::string::npos);
  EXPECT_EQ(engine.trials_executed(), 0u);
  EXPECT_EQ(engine.store().count(), 0u);

  const std::string good = session.handle_text(format_campaign_request(small_campaign(2)));
  EXPECT_EQ(good.rfind("OK id=", 0), 0u) << good;
  EXPECT_NE(good.find("STATS hits=0 misses=2 executed=2\n"), std::string::npos) << good;
  EXPECT_EQ(engine.trials_executed(), 2u);
}

TEST(LineSession, CampaignHeaderNumbersAreStrictDecimals) {
  // A sign, an overflow or an empty value is a bad token, never a wrapped
  // or saturated number.
  const std::vector<std::pair<std::string, std::string>> cases{
      {"CAMPAIGN trials=1 seed=-1", "seed=-1"},
      {"CAMPAIGN trials=1 seed=99999999999999999999999", "seed=99999999999999999999999"},
      {"CAMPAIGN trials=1 seed=+7", "seed=+7"},
      {"CAMPAIGN trials=1 seed=", "seed="},
      {"CAMPAIGN trials=+3 seed=1", "trials=+3"},
  };
  for (const auto& [header, token] : cases) {
    CampaignEngine engine{{}};
    LineSession session{engine};
    EXPECT_EQ(session.handle_text(header + "\n"),
              "ERROR campaign header: bad token '" + token + "'\nDONE\n");
    EXPECT_EQ(engine.trials_executed(), 0u) << header;
    EXPECT_EQ(engine.store().count(), 0u) << header;
  }
  // The largest seed still runs.
  CampaignEngine engine{{}};
  LineSession session{engine};
  const std::string response =
      session.handle_text("CAMPAIGN trials=1 seed=18446744073709551615\nEND\n");
  EXPECT_EQ(response.rfind("OK id=", 0), 0u) << response;
  EXPECT_EQ(engine.trials_executed(), 1u);
}

TEST(LineSession, QuitEndsTheSession) {
  CampaignEngine engine{{}};
  LineSession session{engine};
  bool open = session.consume_line("QUIT", [](const std::string&) {});
  EXPECT_FALSE(open);
}

}  // namespace
}  // namespace rst::server
