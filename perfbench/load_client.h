// The load generator's connection to the server under test.
#ifndef WNRS_PERFBENCH_LOAD_CLIENT_H_
#define WNRS_PERFBENCH_LOAD_CLIENT_H_

#include <cstdint>
#include <memory>

#include "common/status.h"
#include "net/protocol.h"

namespace wnrs {
namespace perfbench {

/// A wire client like net::WnrsClient (same frames, same functions of
/// net/protocol.h and net/socket_io.h), except that it acknowledges every
/// response as soon as it has read it.
///
/// Why: the server does not set TCP_NODELAY on accepted sockets, so it
/// holds a response while an earlier one on the connection is still
/// unacknowledged, and a client that acknowledges late (Linux delays ACKs
/// on request/response traffic) sees each response only when its next
/// request carries the ACK. Whether an open-loop connection fell into that
/// state flipped from connection to connection, and with it the latency
/// between about one send interval and the service time: that made the
/// figures of the timed run bimodal. The traced run still measures the
/// library's own client (net.call, and the held-response probe).
///
/// Thread model as net::WnrsClient: one thread may Send while another
/// Receives.
class LoadClient {
 public:
  /// Connects to 127.0.0.1:`port`.
  static Result<std::unique_ptr<LoadClient>> Connect(uint16_t port);

  explicit LoadClient(int fd) : fd_(fd) {}
  ~LoadClient();
  LoadClient(const LoadClient&) = delete;
  LoadClient& operator=(const LoadClient&) = delete;

  Status Send(uint64_t request_id, const serve::WhyNotRequest& request);
  /// Blocks for the next response frame, then acknowledges it at once.
  /// Fails with IoError once the server has closed the connection.
  Result<net::ResponseFrame> Receive();
  /// Send and Receive of one request; fails on a mismatched id.
  Result<serve::WhyNotResponse> Call(const serve::WhyNotRequest& request);
  /// Half-closes the write side; the server still sends what it owes.
  void FinishSending();

 private:
  int fd_;
  uint64_t next_call_id_ = 1;
};

}  // namespace perfbench
}  // namespace wnrs

#endif  // WNRS_PERFBENCH_LOAD_CLIENT_H_
