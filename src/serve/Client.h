//===- Client.h - mcsafe-serve client connection ----------------*- C++ -*-===//
//
// Part of mcsafe, a reproduction of "Safety Checking of Machine Code"
// (Xu, Miller, Reps; PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The client side of the mcsafe-serve protocol: one Unix-domain
/// connection, blocking, EINTR-safe, SIGPIPE-free (all sends use
/// MSG_NOSIGNAL). `mcsafe-check --connect` is built on this; tests use
/// it directly. Requests may be pipelined; responses are matched by
/// ReqId, never by arrival order.
///
//===----------------------------------------------------------------------===//

#ifndef MCSAFE_SERVE_CLIENT_H
#define MCSAFE_SERVE_CLIENT_H

#include "serve/Protocol.h"

#include <string>

namespace mcsafe {
namespace serve {

class Client {
public:
  Client() = default;
  ~Client() { close(); }

  Client(const Client &) = delete;
  Client &operator=(const Client &) = delete;

  /// The bound a Client starts with.
  static constexpr unsigned DefaultTimeoutMs = 30000;

  /// Bounds connect() and every subsequent send/receive; 0 blocks
  /// forever. With a bound, a wedged daemon — accepting but never
  /// responding — surfaces as a structured "timed out" error instead of
  /// hanging the client. Takes effect on the next connect().
  void setTimeoutMs(unsigned Ms) { TimeoutMs = Ms; }

  /// Connects to a server's socket. False (with \p Error) on failure.
  bool connect(const std::string &SocketPath, std::string &Error);
  void close();
  bool connected() const { return Fd >= 0; }

  /// Sends one frame. False on a write error (server gone).
  bool sendFrame(MsgType Type, std::string_view Payload,
                 std::string &Error);
  /// Receives one frame, validating header and digest. False on EOF,
  /// truncation, or a corrupt frame.
  bool recvFrame(MsgType &Type, std::string &Payload, std::string &Error);

  /// Round-trips a Ping.
  bool ping(std::string &Error);
  /// Fetches the server's metrics JSON.
  bool serverStats(std::string &JsonOut, std::string &Error);
  /// Asks the server to shut down; returns once the ack arrives.
  bool shutdownServer(std::string &Error);

  /// One synchronous check round-trip.
  bool check(const CheckRequestMsg &Req, CheckResponseMsg &Resp,
             std::string &Error);
  /// Pipelining: fire a request without waiting.
  bool sendCheck(const CheckRequestMsg &Req, std::string &Error);
  /// Receives the next check response (any ReqId).
  bool recvCheck(CheckResponseMsg &Resp, std::string &Error);

private:
  int Fd = -1;
  unsigned TimeoutMs = DefaultTimeoutMs;
};

} // namespace serve
} // namespace mcsafe

#endif // MCSAFE_SERVE_CLIENT_H
