#include "load_client.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

#include <utility>

#include "net/socket_io.h"

namespace wnrs {
namespace perfbench {

Result<std::unique_ptr<LoadClient>> LoadClient::Connect(uint16_t port) {
  auto fd = net::TcpConnect("127.0.0.1", port);
  if (!fd.ok()) return fd.status();
  return std::make_unique<LoadClient>(fd.value());
}

LoadClient::~LoadClient() { net::CloseFd(fd_); }

Status LoadClient::Send(uint64_t request_id,
                        const serve::WhyNotRequest& request) {
  return net::SendAll(fd_, net::EncodeRequestFrame(request_id, request));
}

Result<net::ResponseFrame> LoadClient::Receive() {
  auto frame = net::ReadFrame(fd_);
  // Setting TCP_QUICKACK sends the ACK the kernel was delaying and leaves
  // delayed-ACK mode; the kernel may re-enter it, so it is set after every
  // read.
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof(one));
  if (!frame.ok()) return frame.status();
  if (!frame.value().has_value()) {
    return Status::IoError("connection closed by server");
  }
  if (frame.value()->first.type != net::FrameType::kResponse) {
    return Status::InvalidArgument("expected a response frame");
  }
  return net::DecodeResponsePayload(frame.value()->second);
}

Result<serve::WhyNotResponse> LoadClient::Call(
    const serve::WhyNotRequest& request) {
  const uint64_t id = next_call_id_++;
  WNRS_RETURN_IF_ERROR(Send(id, request));
  auto response = Receive();
  if (!response.ok()) return response.status();
  if (response.value().request_id != id) {
    return Status::Internal("response id mismatch");
  }
  return std::move(response).value().response;
}

void LoadClient::FinishSending() { net::ShutdownWrite(fd_); }

}  // namespace perfbench
}  // namespace wnrs
