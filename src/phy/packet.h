#pragma once
/// \file packet.h
/// \brief Packet framing: PN preamble for acquisition + channel estimation,
///        start-frame delimiter, header (rate/length) with CRC-16, payload
///        with CRC-32 -- the structure the paper's back end synchronizes to.

#include <cstdint>
#include <optional>
#include <span>

#include "common/types.h"

namespace uwb::phy {

/// Frame-level configuration shared by TX and RX.
struct PacketConfig {
  int preamble_msequence_degree = 7;  ///< preamble PN degree (period 2^d - 1)
  int preamble_repetitions = 4;       ///< PN period repeats for acq averaging
  int sfd_length = 16;                ///< start-frame-delimiter bits
  int header_length_bits = 16;        ///< payload length field + reserved
};

/// A framed packet: the on-air bits in one vector, its sections back to
/// back -- the repeated m-sequence preamble, the SFD (Barker-13 extended),
/// the header (length field + CRC-16) and the payload (+ CRC-32).
struct FramedPacket {
  BitVec all;
  std::size_t preamble_bits = 0;
  std::size_t sfd_bits = 0;
  std::size_t header_bits = 0;

  [[nodiscard]] std::span<const uint8_t> preamble() const noexcept {
    return std::span(all).first(preamble_bits);
  }
  [[nodiscard]] std::span<const uint8_t> sfd() const noexcept {
    return std::span(all).subspan(preamble_bits, sfd_bits);
  }
  [[nodiscard]] std::span<const uint8_t> header() const noexcept {
    return std::span(all).subspan(preamble_bits + sfd_bits, header_bits);
  }
  [[nodiscard]] std::span<const uint8_t> payload() const noexcept {
    return std::span(all).subspan(preamble_bits + sfd_bits + header_bits);
  }
  [[nodiscard]] std::size_t total_bits() const noexcept { return all.size(); }
};

/// Result of deframing received bits.
struct DeframeResult {
  bool header_ok = false;
  bool payload_ok = false;           ///< CRC-32 verdict
  std::size_t payload_bits = 0;      ///< decoded length field
  BitVec payload;                    ///< recovered payload (without CRC)
};

/// Builds and parses packets.
class PacketFramer {
 public:
  explicit PacketFramer(const PacketConfig& config = {});

  [[nodiscard]] const PacketConfig& config() const noexcept { return config_; }

  /// Preamble bit pattern (deterministic for a config; what the receiver's
  /// acquisition correlates against).
  [[nodiscard]] const BitVec& preamble_bits() const noexcept { return preamble_; }

  /// One period of the preamble m-sequence.
  [[nodiscard]] const BitVec& preamble_period() const noexcept { return pn_period_; }

  /// SFD bit pattern.
  [[nodiscard]] const BitVec& sfd_bits() const noexcept { return sfd_; }

  /// Frames \p payload into a packet, built in one allocation.
  [[nodiscard]] FramedPacket frame(const BitVec& payload) const;

  /// Parses the header+payload section (bits after the SFD). Returns
  /// nullopt when the header CRC fails (length field untrustworthy).
  [[nodiscard]] std::optional<DeframeResult> deframe(const BitVec& post_sfd_bits) const;

  /// Number of header bits on air (length field + CRC-16).
  [[nodiscard]] std::size_t header_bits_on_air() const noexcept {
    return static_cast<std::size_t>(config_.header_length_bits) + 16;
  }

 private:
  PacketConfig config_;
  BitVec pn_period_;
  BitVec preamble_;
  BitVec sfd_;
};

}  // namespace uwb::phy
