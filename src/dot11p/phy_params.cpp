#include "rst/dot11p/phy_params.hpp"

#include <cmath>
#include <stdexcept>

namespace rst::dot11p {

unsigned data_bits_per_symbol(Mcs mcs) {
  switch (mcs) {
    case Mcs::Bpsk12: return 24;
    case Mcs::Bpsk34: return 36;
    case Mcs::Qpsk12: return 48;
    case Mcs::Qpsk34: return 72;
    case Mcs::Qam16_12: return 96;
    case Mcs::Qam16_34: return 144;
    case Mcs::Qam64_23: return 192;
    case Mcs::Qam64_34: return 216;
  }
  throw std::logic_error{"data_bits_per_symbol: unknown MCS"};
}

sim::SimTime frame_airtime(std::size_t psdu_bytes, Mcs mcs) {
  const auto bits = kServiceBits + 8 * psdu_bytes + kTailBits;
  const auto nbps = data_bits_per_symbol(mcs);
  const auto symbols = (bits + nbps - 1) / nbps;
  return kPreambleDuration + kSignalDuration + kSymbolDuration * static_cast<std::int64_t>(symbols);
}

EdcaParams edca_params(AccessCategory ac) {
  // EN 302 663 / 802.11 OCB defaults for the G5-CCH.
  switch (ac) {
    case AccessCategory::Voice: return {2, 3, 7};
    case AccessCategory::Video: return {3, 7, 15};
    case AccessCategory::BestEffort: return {6, 15, 1023};
    case AccessCategory::Background: return {9, 15, 1023};
  }
  throw std::logic_error{"edca_params: unknown AC"};
}

sim::SimTime aifs(AccessCategory ac) {
  return kSifs + kSlotTime * static_cast<std::int64_t>(edca_params(ac).aifsn);
}

double dbm_to_mw(double dbm) { return std::pow(10.0, dbm / 10.0); }
double mw_to_dbm(double mw) { return 10.0 * std::log10(mw); }
double db_to_ratio(double db) { return std::pow(10.0, db / 10.0); }

double noise_floor_dbm(double noise_figure_db) {
  // -174 dBm/Hz thermal + 10*log10(10 MHz) = -104 dBm, plus the NF.
  return -174.0 + 10.0 * std::log10(10e6) + noise_figure_db;
}

namespace {
double q_function(double x) { return 0.5 * std::erfc(x / std::sqrt(2.0)); }

/// Uncoded bit error rate on AWGN for the modulation of the MCS.
double modulation_ber(double snr_linear, Mcs mcs) {
  switch (mcs) {
    case Mcs::Bpsk12:
    case Mcs::Bpsk34:
      return q_function(std::sqrt(2.0 * snr_linear));
    case Mcs::Qpsk12:
    case Mcs::Qpsk34:
      return q_function(std::sqrt(snr_linear));
    case Mcs::Qam16_12:
    case Mcs::Qam16_34:
      return 0.75 * q_function(std::sqrt(snr_linear / 5.0));
    case Mcs::Qam64_23:
    case Mcs::Qam64_34:
      return (7.0 / 12.0) * q_function(std::sqrt(snr_linear / 21.0));
  }
  throw std::logic_error{"modulation_ber: unknown MCS"};
}

/// Effective coding gain (dB) of the convolutional code, coarse.
double coding_gain_db(Mcs mcs) {
  switch (mcs) {
    case Mcs::Bpsk12:
    case Mcs::Qpsk12:
    case Mcs::Qam16_12:
      return 5.0;  // rate 1/2
    case Mcs::Qam64_23:
      return 4.0;  // rate 2/3
    case Mcs::Bpsk34:
    case Mcs::Qpsk34:
    case Mcs::Qam16_34:
    case Mcs::Qam64_34:
      return 3.0;  // rate 3/4
  }
  throw std::logic_error{"coding_gain_db: unknown MCS"};
}
}  // namespace

double packet_error_rate(double sinr_db, std::size_t psdu_bytes, Mcs mcs) {
  const double effective_snr = db_to_ratio(sinr_db + coding_gain_db(mcs));
  const double ber = modulation_ber(effective_snr, mcs);
  if (ber <= 0) return 0.0;
  const double bits = static_cast<double>(8 * psdu_bytes + kServiceBits + kTailBits);
  // P(frame error) = 1 - (1-BER)^bits, computed in log space for stability.
  const double log_ok = bits * std::log1p(-std::min(ber, 1.0 - 1e-12));
  return 1.0 - std::exp(log_ok);
}

}  // namespace rst::dot11p
