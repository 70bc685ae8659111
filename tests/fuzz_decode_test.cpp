// Robustness fuzzing: the decoders face bytes from a lossy radio and from
// other implementations; arbitrary input must produce either a valid value
// or asn1::DecodeError — never a crash, hang or out-of-bounds access.

#include <gtest/gtest.h>

#include "rst/its/messages/cam.hpp"
#include "rst/its/messages/cpm.hpp"
#include "rst/its/messages/denm.hpp"
#include "rst/its/network/btp.hpp"
#include "rst/its/network/geonet.hpp"
#include "rst/sim/random.hpp"

namespace rst {
namespace {

class FuzzSeeds : public ::testing::TestWithParam<std::uint64_t> {};

std::vector<std::uint8_t> random_bytes(sim::RandomStream& r, std::size_t max_len) {
  std::vector<std::uint8_t> out(static_cast<std::size_t>(r.uniform_int(0, static_cast<long>(max_len))));
  for (auto& b : out) b = static_cast<std::uint8_t>(r.uniform_int(0, 255));
  return out;
}

TEST_P(FuzzSeeds, RandomBytesNeverCrashDecoders) {
  sim::RandomStream r{GetParam(), "fuzz"};
  for (int i = 0; i < 300; ++i) {
    const auto bytes = random_bytes(r, 200);
    try {
      (void)its::Cam::decode(bytes);
    } catch (const asn1::DecodeError&) {
    }
    try {
      (void)its::Denm::decode(bytes);
    } catch (const asn1::DecodeError&) {
    }
    try {
      (void)its::Cpm::decode(bytes);
    } catch (const asn1::DecodeError&) {
    }
    try {
      (void)its::GnPacket::decode(bytes);
    } catch (const asn1::DecodeError&) {
    }
    try {
      (void)its::BtpHeader::parse(bytes);
    } catch (const asn1::DecodeError&) {
    }
  }
}

TEST_P(FuzzSeeds, TruncatedValidMessagesAreRejectedCleanly) {
  sim::RandomStream r{GetParam(), "trunc"};
  its::Denm denm;
  denm.header.station_id = 900;
  denm.management.action_id = {900, 1};
  denm.management.detection_time = its::kSimEpochItsMs;
  denm.management.reference_time = its::kSimEpochItsMs;
  denm.situation = its::SituationContainer{
      .information_quality = 5, .event_type = its::EventType::of(its::Cause::CollisionRisk, 2),
      .linked_cause = {}};
  const auto full = denm.encode();
  for (int i = 0; i < 100; ++i) {
    auto cut = full;
    cut.resize(static_cast<std::size_t>(r.uniform_int(0, static_cast<long>(full.size() - 1))));
    try {
      (void)its::Denm::decode(cut);
      // Some prefixes may decode if the truncation hits padding; fine.
    } catch (const asn1::DecodeError&) {
    }
  }
}

TEST_P(FuzzSeeds, BitflippedMessagesNeverCrash) {
  sim::RandomStream r{GetParam(), "flip"};
  its::GnPacket pkt;
  pkt.type = its::GnPacketType::Gbc;
  pkt.sequence_number = 3;
  pkt.source.address = its::GnAddress::from_station(1);
  pkt.forwarder = pkt.source;
  pkt.destination_area = its::WireGeoArea{411780000, -86080000, 100, 100, 0, 0};
  pkt.payload = {1, 2, 3, 4, 5, 6, 7, 8};
  const auto clean = pkt.encode();
  for (int i = 0; i < 300; ++i) {
    auto corrupt = clean;
    const auto flips = r.uniform_int(1, 8);
    for (long f = 0; f < flips; ++f) {
      const auto byte = static_cast<std::size_t>(r.uniform_int(0, static_cast<long>(corrupt.size() - 1)));
      corrupt[byte] ^= static_cast<std::uint8_t>(1u << r.uniform_int(0, 7));
    }
    try {
      (void)its::GnPacket::decode(corrupt);
    } catch (const asn1::DecodeError&) {
    }
  }
}

// --- Chained-stack corpus ---------------------------------------------------
//
// A lossy radio corrupts whole GN PDUs, so robustness must hold through the
// chain a real reception takes: GnPacket::decode -> BtpHeader::parse ->
// Cam/Denm::decode. The corpus is valid CAM-over-BTP-over-GN and
// DENM-over-BTP-over-GN encodings mutated by bit flips and truncation; any
// accepted (fully decodable) mutant must also round-trip stably through its
// own re-encoding.

its::Cam corpus_cam() {
  its::Cam cam;
  cam.header.station_id = 7;
  cam.generation_delta_time = 1234;
  cam.basic.station_type = its::StationType::PassengerCar;
  cam.high_frequency.heading.value_01deg = 900;
  cam.high_frequency.speed.value_cms = 500;
  return cam;
}

its::Denm corpus_denm() {
  its::Denm denm;
  denm.header.station_id = 900;
  denm.management.action_id = {900, 1};
  denm.management.detection_time = its::kSimEpochItsMs;
  denm.management.reference_time = its::kSimEpochItsMs;
  denm.situation = its::SituationContainer{
      .information_quality = 5, .event_type = its::EventType::of(its::Cause::CollisionRisk, 2),
      .linked_cause = {}};
  return denm;
}

its::Cpm corpus_cpm() {
  its::Cpm cpm;
  cpm.header.station_id = 900;
  cpm.generation_delta_time = 777;
  cpm.management.station_type = its::StationType::RoadSideUnit;
  cpm.management.reference_position.latitude = 411780000;
  cpm.management.reference_position.longitude = -86080000;
  cpm.objects.push_back({9, 120, -250, 430, -25, 0, 1, 92});
  cpm.objects.push_back({10, 0, 1200, -90, 0, 120, 7, 77});
  return cpm;
}

std::vector<std::uint8_t> wrap_in_gn(std::vector<std::uint8_t> facilities_pdu,
                                     std::uint16_t port) {
  its::GnPacket pkt;
  pkt.type = its::GnPacketType::Gbc;
  pkt.sequence_number = 9;
  pkt.source.address = its::GnAddress::from_station(7);
  pkt.forwarder = pkt.source;
  pkt.destination_area = its::WireGeoArea{411780000, -86080000, 300, 300, 0, 0};
  pkt.payload = its::BtpHeader{port, 0}.prepend_to(facilities_pdu);
  return pkt.encode();
}

/// Runs the receive chain on `bytes`. Returns the re-encoded bytes when the
/// whole chain accepted the input, an empty vector when any stage rejected
/// it with DecodeError. Anything else (crash, UB, unexpected exception)
/// fails the test from inside.
std::vector<std::uint8_t> chain_decode_reencode(const std::vector<std::uint8_t>& bytes) {
  its::GnPacket pkt;
  try {
    pkt = its::GnPacket::decode(bytes);
  } catch (const asn1::DecodeError&) {
    return {};
  }
  if (pkt.payload.size() < its::BtpHeader::kSize) return {};
  its::BtpHeader::Parsed btp;
  try {
    btp = its::BtpHeader::parse(pkt.payload);
  } catch (const asn1::DecodeError&) {
    return {};
  }
  try {
    if (btp.header.destination_port == its::kBtpPortCam) {
      const auto cam = its::Cam::decode(btp.payload);
      pkt.payload = its::BtpHeader{its::kBtpPortCam, 0}.prepend_to(cam.encode());
    } else if (btp.header.destination_port == its::kBtpPortDenm) {
      const auto denm = its::Denm::decode(btp.payload);
      pkt.payload = its::BtpHeader{its::kBtpPortDenm, 0}.prepend_to(denm.encode());
    } else if (btp.header.destination_port == its::kBtpPortCpm) {
      const auto cpm = its::Cpm::decode(btp.payload);
      pkt.payload = its::BtpHeader{its::kBtpPortCpm, 0}.prepend_to(cpm.encode());
    }
  } catch (const asn1::DecodeError&) {
    return {};
  }
  return pkt.encode();
}

TEST_P(FuzzSeeds, ChainedStackSurvivesBitflipCorpus) {
  sim::RandomStream r{GetParam(), "chain-flip"};
  const std::vector<std::vector<std::uint8_t>> corpus = {
      wrap_in_gn(corpus_cam().encode(), its::kBtpPortCam),
      wrap_in_gn(corpus_denm().encode(), its::kBtpPortDenm),
      wrap_in_gn(corpus_cpm().encode(), its::kBtpPortCpm),
  };
  for (const auto& clean : corpus) {
    // The unmutated encoding must be accepted and must round-trip to a
    // fixed point: decode(encode(decode(x))) == decode(encode(x)).
    const auto once = chain_decode_reencode(clean);
    ASSERT_FALSE(once.empty());
    EXPECT_EQ(chain_decode_reencode(once), once);

    for (int i = 0; i < 300; ++i) {
      auto corrupt = clean;
      const auto flips = r.uniform_int(1, 12);
      for (long f = 0; f < flips; ++f) {
        const auto byte =
            static_cast<std::size_t>(r.uniform_int(0, static_cast<long>(corrupt.size() - 1)));
        corrupt[byte] ^= static_cast<std::uint8_t>(1u << r.uniform_int(0, 7));
      }
      const auto reencoded = chain_decode_reencode(corrupt);
      if (reencoded.empty()) continue;  // cleanly rejected somewhere in the chain
      // Accepted mutants must have reached a stable representation: the
      // re-encoding decodes to exactly the same bytes again.
      EXPECT_EQ(chain_decode_reencode(reencoded), reencoded);
    }
  }
}

TEST_P(FuzzSeeds, ChainedStackSurvivesTruncationCorpus) {
  sim::RandomStream r{GetParam(), "chain-trunc"};
  const std::vector<std::vector<std::uint8_t>> corpus = {
      wrap_in_gn(corpus_cam().encode(), its::kBtpPortCam),
      wrap_in_gn(corpus_denm().encode(), its::kBtpPortDenm),
      wrap_in_gn(corpus_cpm().encode(), its::kBtpPortCpm),
  };
  for (const auto& clean : corpus) {
    // Every prefix length once: deterministic sweep, then a random batch of
    // truncate-then-flip combinations.
    for (std::size_t len = 0; len < clean.size(); ++len) {
      auto cut = clean;
      cut.resize(len);
      const auto reencoded = chain_decode_reencode(cut);
      if (!reencoded.empty()) {
        EXPECT_EQ(chain_decode_reencode(reencoded), reencoded);
      }
    }
    for (int i = 0; i < 100; ++i) {
      auto cut = clean;
      cut.resize(static_cast<std::size_t>(r.uniform_int(1, static_cast<long>(clean.size()))));
      const auto byte =
          static_cast<std::size_t>(r.uniform_int(0, static_cast<long>(cut.size() - 1)));
      cut[byte] ^= static_cast<std::uint8_t>(1u << r.uniform_int(0, 7));
      const auto reencoded = chain_decode_reencode(cut);
      if (!reencoded.empty()) {
        EXPECT_EQ(chain_decode_reencode(reencoded), reencoded);
      }
    }
  }
}

TEST(CpmFuzz, ObjectCountLieIsRejected) {
  // A CPM whose count field promises more perceived-object containers than
  // the buffer carries: the decoder must reject it, not read past the end.
  its::Cpm empty = corpus_cpm();
  empty.objects.clear();
  its::Cpm full = corpus_cpm();
  full.objects.clear();
  for (std::size_t i = 0; i < its::kCpmMaxPerceivedObjects; ++i) {
    full.objects.push_back({static_cast<std::uint16_t>(i), 10, 100, -100, 5, -5, 1, 80});
  }
  auto lying = full.encode();
  // Same bit layout up to the count field, so cutting the full encoding to
  // the empty one's length leaves count = 128 with zero object payload.
  lying.resize(empty.encode().size());
  EXPECT_THROW((void)its::Cpm::decode(lying), asn1::DecodeError);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeeds, ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace rst
