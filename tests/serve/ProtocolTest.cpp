//===- ProtocolTest.cpp - mcsafe-serve wire format ------------------------===//
//
// The frame format's contract, mirroring SerializeTest's approach to
// untrusted bytes: a valid frame round-trips exactly; EVERY truncation,
// every single-bit flip, and any oversized length fails the decode —
// the reader never fabricates a message, never crashes, and never obeys
// a frame whose type byte was corrupted (the digest covers it).
//
//===----------------------------------------------------------------------===//

#include "serve/Protocol.h"

#include <gtest/gtest.h>

#include <string>

using namespace mcsafe;
using namespace mcsafe::serve;
using namespace mcsafe::checker;

namespace {

CheckRequestMsg sampleRequest() {
  CheckRequestMsg Req;
  Req.ReqId = 0x1122334455667788ULL;
  Req.Name = "corpus/Sum";
  Req.Asm = "sum:\n  retl\n  nop\n";
  Req.Policy = "policy {}\n";
  Req.DeadlineMs = 1500;
  Req.ProverSteps = 100000;
  Req.Flags = ReqFlagLint | ReqFlagKnownBits | ReqFlagFailSoft | ReqFlagTrace;
  return Req;
}

CheckResponseMsg sampleResponse() {
  CheckResponseMsg Resp;
  Resp.ReqId = 99;
  Resp.Shed = false;
  CheckReport &R = Resp.Report;
  R.InputsOk = true;
  R.Safe = false;
  R.Verdict = CheckVerdict::Unsafe;
  R.Failures.push_back({CheckPhase::Global, FailureKind::ResourceExhausted,
                        std::optional<uint32_t>(7), "budget gone"});
  R.Diags.report(DiagSeverity::Violation, SafetyKind::ArrayBounds,
                 "out-of-bounds store", 3, 12);
  R.Chars.Instructions = 41;
  R.Chars.GlobalConditions = 5;
  R.TypestateNodeVisits = 77;
  R.Global.ObligationsProved = 4;
  R.ProverStats.SatQueries = 12;
  return Resp;
}

TEST(Protocol, FrameRoundTripsEveryMessageType) {
  for (MsgType T : {MsgType::CheckRequest, MsgType::CheckResponse,
                    MsgType::Ping, MsgType::Pong, MsgType::StatsRequest,
                    MsgType::StatsResponse, MsgType::Shutdown,
                    MsgType::ShutdownAck}) {
    std::string Payload = "payload-for-" +
                          std::to_string(static_cast<int>(T));
    std::string Frame = encodeFrame(T, Payload);
    EXPECT_EQ(Frame.size(), FrameHeaderSize + Payload.size());
    auto Decoded = decodeFrame(Frame);
    ASSERT_TRUE(Decoded.has_value());
    EXPECT_EQ(Decoded->first, T);
    EXPECT_EQ(Decoded->second, Payload);
  }
}

TEST(Protocol, EmptyPayloadFrameRoundTrips) {
  std::string Frame = encodeFrame(MsgType::Ping, {});
  EXPECT_EQ(Frame.size(), FrameHeaderSize);
  auto Decoded = decodeFrame(Frame);
  ASSERT_TRUE(Decoded.has_value());
  EXPECT_EQ(Decoded->first, MsgType::Ping);
  EXPECT_TRUE(Decoded->second.empty());
}

TEST(Protocol, EveryTruncationOfAFrameFailsTheDecode) {
  std::string Frame =
      encodeFrame(MsgType::CheckRequest, encodeCheckRequest(sampleRequest()));
  for (size_t Len = 0; Len < Frame.size(); ++Len)
    EXPECT_FALSE(decodeFrame(std::string_view(Frame).substr(0, Len))
                     .has_value())
        << "truncation to " << Len << " bytes decoded";
}

TEST(Protocol, EverySingleBitFlipFailsTheDecode) {
  std::string Frame =
      encodeFrame(MsgType::CheckRequest, encodeCheckRequest(sampleRequest()));
  ASSERT_TRUE(decodeFrame(Frame).has_value());
  for (size_t Pos = 0; Pos < Frame.size(); ++Pos) {
    for (int Bit = 0; Bit < 8; ++Bit) {
      std::string Mutant = Frame;
      Mutant[Pos] = static_cast<char>(Mutant[Pos] ^ (1 << Bit));
      // A flipped type byte must fail via the digest, not route the
      // frame to a different handler; a flipped length must fail the
      // size check; a flipped payload or digest byte must fail the
      // digest comparison.
      EXPECT_FALSE(decodeFrame(Mutant).has_value())
          << "bit " << Bit << " at byte " << Pos << " decoded";
    }
  }
}

TEST(Protocol, TrailingGarbageFailsTheDecode) {
  std::string Frame = encodeFrame(MsgType::Ping, {});
  Frame.push_back('x');
  EXPECT_FALSE(decodeFrame(Frame).has_value());
}

TEST(Protocol, OversizedLengthIsRejectedAtTheHeader) {
  std::string Frame = encodeFrame(MsgType::CheckRequest, "abc");
  // Patch the length field (offset 6, u32 LE) to just past the cap.
  uint32_t Huge = MaxFramePayload + 1;
  for (int I = 0; I < 4; ++I)
    Frame[6 + I] = static_cast<char>((Huge >> (8 * I)) & 0xff);
  FrameHeader H;
  EXPECT_FALSE(
      decodeFrameHeader(std::string_view(Frame).substr(0, FrameHeaderSize),
                        H));
}

TEST(Protocol, WrongMagicVersionAndTypeAreRejected) {
  std::string Good = encodeFrame(MsgType::Ping, {});
  FrameHeader H;

  std::string BadMagic = Good;
  BadMagic[0] = 'X';
  EXPECT_FALSE(decodeFrameHeader(
      std::string_view(BadMagic).substr(0, FrameHeaderSize), H));

  std::string BadVersion = Good;
  BadVersion[4] = static_cast<char>(ProtocolVersion + 1);
  EXPECT_FALSE(decodeFrameHeader(
      std::string_view(BadVersion).substr(0, FrameHeaderSize), H));

  std::string BadType = Good;
  BadType[5] = 0; // Below CheckRequest.
  EXPECT_FALSE(decodeFrameHeader(
      std::string_view(BadType).substr(0, FrameHeaderSize), H));
  BadType[5] = static_cast<char>(
      static_cast<uint8_t>(MsgType::ShutdownAck) + 1);
  EXPECT_FALSE(decodeFrameHeader(
      std::string_view(BadType).substr(0, FrameHeaderSize), H));
}

TEST(Protocol, CheckRequestRoundTripsExactly) {
  CheckRequestMsg Req = sampleRequest();
  std::string Payload = encodeCheckRequest(Req);
  CheckRequestMsg Out;
  ASSERT_TRUE(decodeCheckRequest(Payload, Out));
  EXPECT_EQ(Out.ReqId, Req.ReqId);
  EXPECT_EQ(Out.Name, Req.Name);
  EXPECT_EQ(Out.Asm, Req.Asm);
  EXPECT_EQ(Out.Policy, Req.Policy);
  EXPECT_EQ(Out.DeadlineMs, Req.DeadlineMs);
  EXPECT_EQ(Out.ProverSteps, Req.ProverSteps);
  EXPECT_EQ(Out.Flags, Req.Flags);
}

TEST(Protocol, EveryTruncationOfACheckRequestFails) {
  std::string Payload = encodeCheckRequest(sampleRequest());
  for (size_t Len = 0; Len < Payload.size(); ++Len) {
    CheckRequestMsg Out;
    EXPECT_FALSE(
        decodeCheckRequest(std::string_view(Payload).substr(0, Len), Out))
        << "truncation to " << Len << " bytes decoded";
  }
}

TEST(Protocol, CheckRequestTrailingGarbageFails) {
  std::string Payload = encodeCheckRequest(sampleRequest());
  Payload.push_back('\0');
  CheckRequestMsg Out;
  EXPECT_FALSE(decodeCheckRequest(Payload, Out));
}

TEST(Protocol, CheckResponseRoundTripsTheWholeReport) {
  CheckResponseMsg Resp = sampleResponse();
  std::string Payload = encodeCheckResponse(Resp);
  CheckResponseMsg Out;
  ASSERT_TRUE(decodeCheckResponse(Payload, Out));
  EXPECT_EQ(Out.ReqId, Resp.ReqId);
  EXPECT_EQ(Out.Shed, Resp.Shed);
  // Re-encoding the decoded response must reproduce the bytes exactly —
  // the property the daemon-vs-CLI byte comparisons stand on.
  EXPECT_EQ(encodeCheckResponse(Out), Payload);
  EXPECT_EQ(Out.Report.Verdict, Resp.Report.Verdict);
  EXPECT_EQ(Out.Report.Diags.str(), Resp.Report.Diags.str());
  ASSERT_EQ(Out.Report.Failures.size(), 1u);
  EXPECT_EQ(Out.Report.Failures[0].str(),
            Resp.Report.Failures[0].str());
}

TEST(Protocol, EveryTruncationOfACheckResponseFails) {
  std::string Payload = encodeCheckResponse(sampleResponse());
  for (size_t Len = 0; Len < Payload.size(); ++Len) {
    CheckResponseMsg Out;
    EXPECT_FALSE(
        decodeCheckResponse(std::string_view(Payload).substr(0, Len), Out))
        << "truncation to " << Len << " bytes decoded";
  }
}

TEST(Protocol, ShedResponseRoundTripsAndStaysUnknown) {
  CheckResponseMsg Resp;
  Resp.ReqId = 5;
  Resp.Shed = true;
  Resp.Report.Verdict = CheckVerdict::Unknown;
  Resp.Report.Failures.push_back({CheckPhase::Driver,
                                  FailureKind::ResourceExhausted,
                                  std::nullopt,
                                  "load shed: admission queue full"});
  CheckResponseMsg Out;
  ASSERT_TRUE(decodeCheckResponse(encodeCheckResponse(Resp), Out));
  EXPECT_TRUE(Out.Shed);
  EXPECT_EQ(Out.Report.Verdict, CheckVerdict::Unknown);
  EXPECT_FALSE(Out.Report.Safe);
}

TEST(Protocol, BogusShedByteFails) {
  std::string Payload = encodeCheckResponse(sampleResponse());
  Payload[8] = 2; // Shed flag is at offset 8, after the u64 ReqId.
  CheckResponseMsg Out;
  EXPECT_FALSE(decodeCheckResponse(Payload, Out));
}

} // namespace
