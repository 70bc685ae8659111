#pragma once

#include <cstddef>
#include <cstdint>

#include "rst/sim/time.hpp"

namespace rst::dot11p {

/// Modulation and coding schemes of IEEE 802.11p on a 10 MHz channel
/// (ITS-G5 access layer, EN 302 663). Default for CAM/DENM is Qpsk12
/// (6 Mbit/s), the ITS-G5 default transfer rate.
enum class Mcs : std::uint8_t {
  Bpsk12,   // 3 Mbit/s
  Bpsk34,   // 4.5 Mbit/s
  Qpsk12,   // 6 Mbit/s
  Qpsk34,   // 9 Mbit/s
  Qam16_12, // 12 Mbit/s
  Qam16_34, // 18 Mbit/s
  Qam64_23, // 24 Mbit/s
  Qam64_34, // 27 Mbit/s
};

/// Data bits carried per 8 us OFDM symbol for each MCS.
[[nodiscard]] unsigned data_bits_per_symbol(Mcs mcs);

/// 802.11p @ 10 MHz timing (all values double those of 20 MHz 802.11a).
inline constexpr sim::SimTime kSymbolDuration = sim::SimTime::microseconds(8);
inline constexpr sim::SimTime kPreambleDuration = sim::SimTime::microseconds(32);
inline constexpr sim::SimTime kSignalDuration = sim::SimTime::microseconds(8);
inline constexpr sim::SimTime kSlotTime = sim::SimTime::microseconds(13);
inline constexpr sim::SimTime kSifs = sim::SimTime::microseconds(32);

/// PSDU service + tail bits added by the PHY.
inline constexpr unsigned kServiceBits = 16;
inline constexpr unsigned kTailBits = 6;

/// MAC framing overhead added to the payload handed down by the LLC:
/// 802.11 QoS data header (26 B) + FCS (4 B) + LLC/SNAP (8 B).
inline constexpr std::size_t kMacOverheadBytes = 38;

/// Airtime of a frame whose PSDU is `psdu_bytes` long at the given MCS
/// (preamble + SIGNAL + data symbols).
[[nodiscard]] sim::SimTime frame_airtime(std::size_t psdu_bytes, Mcs mcs);

/// EDCA parameter set for the ITS-G5 control channel (EN 302 663 Table B.3).
struct EdcaParams {
  unsigned aifsn;
  unsigned cw_min;  // contention window (slots), lower bound
  unsigned cw_max;
};

enum class AccessCategory : std::uint8_t { Voice = 0, Video = 1, BestEffort = 2, Background = 3 };
inline constexpr std::size_t kAccessCategoryCount = 4;

[[nodiscard]] EdcaParams edca_params(AccessCategory ac);
[[nodiscard]] sim::SimTime aifs(AccessCategory ac);

/// Default radio configuration used by the testbed OBU/RSU (matches the
/// Compex WLE200NX class of hardware the paper deployed).
struct RadioConfig {
  double tx_power_dbm{23.0};
  double noise_figure_db{6.0};
  /// Carrier-sense (energy detection) threshold.
  double cs_threshold_dbm{-85.0};
  /// Minimum power to attempt frame decoding at all.
  double rx_sensitivity_dbm{-95.0};
  Mcs mcs{Mcs::Qpsk12};
  double antenna_gain_dbi{2.0};
  /// MAC transmit queue bound per access category; the oldest frame is
  /// dropped on overflow (stale awareness is worthless).
  std::size_t max_queue_per_ac{64};
};

/// Thermal noise floor for a 10 MHz channel, plus receiver noise figure.
[[nodiscard]] double noise_floor_dbm(double noise_figure_db);

/// Packet error rate for a PSDU of `psdu_bytes` at the given SINR, using an
/// AWGN BER approximation per modulation with a convolutional-coding gain.
[[nodiscard]] double packet_error_rate(double sinr_db, std::size_t psdu_bytes, Mcs mcs);

[[nodiscard]] double dbm_to_mw(double dbm);
[[nodiscard]] double mw_to_dbm(double mw);

/// Dimensionless dB gain/loss to a linear power ratio. Numerically the same
/// map as dbm_to_mw, but for quantities (noise figures, coding gains, SINR)
/// that are ratios, not absolute powers referenced to 1 mW — use this at
/// dB-ratio call sites so the units stay honest.
[[nodiscard]] double db_to_ratio(double db);

}  // namespace rst::dot11p
