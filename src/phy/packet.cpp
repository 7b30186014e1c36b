#include "phy/packet.h"

#include "common/error.h"
#include "phy/bits.h"
#include "phy/crc.h"
#include "phy/scrambler.h"

namespace uwb::phy {

namespace {

/// Barker-13 (+ 3 padding bits when sfd_length == 16): excellent aperiodic
/// autocorrelation makes a robust frame delimiter.
BitVec make_sfd(int length) {
  detail::require(length >= 13, "PacketFramer: SFD must be at least 13 bits");
  static constexpr uint8_t barker13[13] = {1, 1, 1, 1, 1, 0, 0, 1, 1, 0, 1, 0, 1};
  BitVec sfd(static_cast<std::size_t>(length), 0);
  for (std::size_t i = 0; i < 13; ++i) sfd[i] = barker13[i];
  // Pad with alternating bits.
  for (std::size_t i = 13; i < sfd.size(); ++i) sfd[i] = static_cast<uint8_t>(i & 1u);
  return sfd;
}

}  // namespace

PacketFramer::PacketFramer(const PacketConfig& config) : config_(config) {
  detail::require(config.preamble_repetitions >= 1,
                  "PacketFramer: preamble repetitions must be >= 1");
  pn_period_ = msequence(config.preamble_msequence_degree);
  preamble_.reserve(pn_period_.size() * static_cast<std::size_t>(config.preamble_repetitions));
  for (int r = 0; r < config.preamble_repetitions; ++r) {
    preamble_.insert(preamble_.end(), pn_period_.begin(), pn_period_.end());
  }
  sfd_ = make_sfd(config.sfd_length);
}

FramedPacket PacketFramer::frame(const BitVec& payload) const {
  detail::require(payload.size() < (1u << config_.header_length_bits),
                  "PacketFramer::frame: payload too long for length field");
  FramedPacket pkt;
  pkt.preamble_bits = preamble_.size();
  pkt.sfd_bits = sfd_.size();
  pkt.header_bits = header_bits_on_air();
  BitVec& all = pkt.all;
  all.reserve(pkt.preamble_bits + pkt.sfd_bits + pkt.header_bits + payload.size() + 32);
  all.insert(all.end(), preamble_.begin(), preamble_.end());
  all.insert(all.end(), sfd_.begin(), sfd_.end());
  const std::size_t header_begin = all.size();
  append_uint_bits(all, payload.size(), config_.header_length_bits);
  append_uint_bits(all, crc16_ccitt(std::span(all).subspan(header_begin)), 16);
  const std::size_t payload_begin = all.size();
  all.insert(all.end(), payload.begin(), payload.end());
  append_uint_bits(all, crc32_ieee(std::span(all).subspan(payload_begin)), 32);
  return pkt;
}

std::optional<DeframeResult> PacketFramer::deframe(const BitVec& post_sfd_bits) const {
  const std::size_t hdr_len = header_bits_on_air();
  if (post_sfd_bits.size() < hdr_len) return std::nullopt;

  const BitVec header(post_sfd_bits.begin(),
                      post_sfd_bits.begin() + static_cast<std::ptrdiff_t>(hdr_len));
  if (!check_crc16(header)) return std::nullopt;

  DeframeResult result;
  result.header_ok = true;
  result.payload_bits = static_cast<std::size_t>(
      bits_to_uint(header, 0, static_cast<std::size_t>(config_.header_length_bits)));

  const std::size_t body_len = result.payload_bits + 32;  // payload + CRC-32
  if (post_sfd_bits.size() < hdr_len + body_len) {
    result.payload_ok = false;
    return result;
  }
  const BitVec body(post_sfd_bits.begin() + static_cast<std::ptrdiff_t>(hdr_len),
                    post_sfd_bits.begin() + static_cast<std::ptrdiff_t>(hdr_len + body_len));
  result.payload_ok = check_crc32(body);
  result.payload.assign(body.begin(), body.end() - 32);
  return result;
}

}  // namespace uwb::phy
