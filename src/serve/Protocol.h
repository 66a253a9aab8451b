//===- Protocol.h - mcsafe-serve wire protocol ------------------*- C++ -*-===//
//
// Part of mcsafe, a reproduction of "Safety Checking of Machine Code"
// (Xu, Miller, Reps; PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The length-prefixed binary protocol between mcsafe-serve and its
/// clients, over a Unix-domain stream socket. One frame:
///
///   offset  size  field
///        0     4  magic "MSRV"
///        4     1  protocol version (ProtocolVersion)
///        5     1  message type (MsgType)
///        6     4  payload length, u32 little-endian
///       10     8  digest of (type byte || payload), u64 little-endian
///
/// followed by exactly `length` payload bytes. The digest covers the type
/// byte as well as the payload, so a bit flip anywhere past the magic —
/// including one that turns a CheckRequest into a Shutdown — fails
/// validation instead of being obeyed. Payloads are built on
/// constraints/Serialize's ByteWriter and parsed with its latching
/// ByteReader: truncation, overruns, and trailing garbage all fail the
/// decode, never fabricate a message.
///
/// The protocol is deliberately request/response over one socket with no
/// multiplexing: a client may pipeline requests (the corpus path does)
/// and every response carries its request's ReqId. Responses are not
/// guaranteed to arrive in request order — a shed response is sent
/// immediately, overtaking earlier requests still being checked — so
/// clients match on ReqId.
///
//===----------------------------------------------------------------------===//

#ifndef MCSAFE_SERVE_PROTOCOL_H
#define MCSAFE_SERVE_PROTOCOL_H

#include "checker/SafetyChecker.h"
#include "constraints/Serialize.h"

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace mcsafe {
namespace serve {

/// Bump when the frame layout, a message payload, or the CheckReport
/// codec (checker/ReportCodec.h) changes shape. Version 2: the failure
/// taxonomy grew WorkerCrashed/Quarantined, widening the valid Kind
/// range in serialized reports. Version 3: prover stats in serialized
/// reports carry the query-slicing counters. Version 4: the tiers and
/// slicing request flags (bits 2 and 5) are retired, and prover stats
/// drop the equality pre-pass counter. Version 5: global-verification
/// stats carry the back-substitution step count.
inline constexpr uint8_t ProtocolVersion = 5;

inline constexpr char FrameMagic[4] = {'M', 'S', 'R', 'V'};
inline constexpr size_t FrameHeaderSize = 18;

/// Upper bound on one frame's payload. Requests carry assembly + policy
/// text and responses one serialized report; 16 MiB is far beyond
/// anything legitimate, so a larger length field means a corrupt or
/// hostile peer and the connection is dropped.
inline constexpr uint32_t MaxFramePayload = 16u << 20;

enum class MsgType : uint8_t {
  CheckRequest = 1,
  CheckResponse = 2,
  Ping = 3,
  Pong = 4,
  StatsRequest = 5,
  StatsResponse = 6,
  Shutdown = 7,
  ShutdownAck = 8,
};

/// Request option bits (CheckRequestMsg::Flags).
enum : uint32_t {
  ReqFlagLint = 1u << 0,      ///< Run the phase-0 lint (+ dead-reg prune).
  ReqFlagKnownBits = 1u << 1, ///< Known-bits domain + congruence tier.
  ReqFlagFailSoft = 1u << 3,  ///< Enumerate obligations after a trip.
  ReqFlagTrace = 1u << 4,     ///< Induction-iteration stderr trace.
};

/// A parsed frame header.
struct FrameHeader {
  MsgType Type = MsgType::Ping;
  uint32_t PayloadLen = 0;
  uint64_t PayloadDigest = 0;
};

/// One check request. Flags defaults match the CLI defaults, so an
/// unconfigured request checks exactly like a plain `mcsafe-check` run.
struct CheckRequestMsg {
  uint64_t ReqId = 0;
  std::string Name;   ///< Display name ("corpus/Sum", a file path, ...).
  std::string Asm;
  std::string Policy;
  /// Requested governor budgets; the server clamps them to its caps.
  uint32_t DeadlineMs = 0;
  uint64_t ProverSteps = 0;
  uint32_t Flags = ReqFlagLint | ReqFlagKnownBits;
};

/// One check response: the request's id, whether admission control shed
/// it, and the exact report bytes (checker/ReportCodec.h) — a client
/// renders them with the same code paths as a local run, so the printed
/// output is byte-identical to `mcsafe-check` on the same inputs.
struct CheckResponseMsg {
  uint64_t ReqId = 0;
  bool Shed = false;
  checker::CheckReport Report;
};

/// The digest the frame header carries for a (type, payload) pair.
uint64_t framePayloadDigest(MsgType Type, std::string_view Payload);

/// Builds one complete frame (header + payload) for the wire.
std::string encodeFrame(MsgType Type, std::string_view Payload);

/// Parses and validates an 18-byte header: magic, version, known type,
/// and PayloadLen <= MaxFramePayload. Returns false on any mismatch.
bool decodeFrameHeader(std::string_view HeaderBytes, FrameHeader &Out);

/// Verifies a payload against its header's digest.
bool validateFramePayload(const FrameHeader &H, std::string_view Payload);

/// Decodes one whole frame from a byte buffer (header + payload, nothing
/// trailing). The pure-function entry the wire tests sweep: every
/// truncation, oversize, and bit flip of a valid frame must fail.
std::optional<std::pair<MsgType, std::string>>
decodeFrame(std::string_view Bytes);

std::string encodeCheckRequest(const CheckRequestMsg &Msg);
bool decodeCheckRequest(std::string_view Payload, CheckRequestMsg &Out);

std::string encodeCheckResponse(const CheckResponseMsg &Msg);
bool decodeCheckResponse(std::string_view Payload, CheckResponseMsg &Out);

} // namespace serve
} // namespace mcsafe

#endif // MCSAFE_SERVE_PROTOCOL_H
