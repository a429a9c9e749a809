// TDMA frames.
//
// A frame is what a node broadcasts in its slot: a header (sender, slot,
// round), the application payload bytes handed down by the component's
// virtual-network layer, the sender's membership vector, and a CRC. The
// simulation computes a real CRC-32 over the payload so that value-domain
// corruption (EMI bit flips, connector noise) is detected exactly the way a
// real controller would detect it.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sim/time.hpp"
#include "tta/types.hpp"

namespace decos::tta {

/// CRC-32 (IEEE 802.3 polynomial, bit-reflected) over a byte span.
[[nodiscard]] std::uint32_t crc32(std::span<const std::uint8_t> bytes);

struct Frame {
  NodeId sender = kInvalidNode;
  SlotId slot = 0;
  RoundId round = 0;
  /// Bit i set = sender believes node i is operational.
  std::uint64_t membership = 0;
  std::vector<std::uint8_t> payload;
  /// CRC as transmitted (the channel may corrupt payload bytes after the
  /// CRC was computed, which is how receivers detect value faults).
  std::uint32_t crc = 0;

  /// Computes and stores the CRC over the current payload.
  void seal() { crc = crc32(payload); }

  /// True when the stored CRC matches the (possibly corrupted) payload.
  /// Recomputes over the bytes on every call; the bus checks each
  /// distinct delivered byte content once and hands receivers the verdict
  /// (BusReceiver::on_frame).
  [[nodiscard]] bool crc_ok() const { return crc == crc32(payload); }
};

/// Receiver-side verdict about one slot of one round.
enum class SlotVerdict : std::uint8_t {
  kCorrect,        // frame arrived in-window with valid CRC
  kCrcError,       // frame arrived but payload failed the CRC check
  kTimingError,    // frame arrived outside the receive window
  kOmission,       // nothing arrived in the slot
};

[[nodiscard]] const char* to_string(SlotVerdict v);

/// One receiver's observation of one slot — the raw material from which
/// the diagnostic layer builds symptoms.
struct SlotObservation {
  NodeId observer = kInvalidNode;
  NodeId sender = kInvalidNode;
  SlotId slot = 0;
  RoundId round = 0;
  SlotVerdict verdict = SlotVerdict::kOmission;
  /// Arrival offset from the expected receive instant (local time base);
  /// zero for omissions.
  sim::Duration arrival_offset{};
};

}  // namespace decos::tta
