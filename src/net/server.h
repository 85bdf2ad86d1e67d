#ifndef WNRS_NET_SERVER_H_
#define WNRS_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <future>
#include <list>
#include <memory>
#include <string>
#include <thread>

#include "common/annotated_mutex.h"
#include "common/status.h"
#include "core/engine.h"
#include "net/protocol.h"
#include "serve/scheduler.h"

namespace wnrs {
namespace net {

/// Server tuning.
struct ServerOptions {
  /// IPv4 address to bind (loopback by default; serving is trusted-LAN
  /// territory, there is no auth layer).
  std::string host = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port, read back via port().
  uint16_t port = 0;
  int listen_backlog = 64;
  /// Options for the embedded RequestScheduler (admission control depth,
  /// batch cap, start_paused for tests).
  serve::SchedulerOptions scheduler;
};

/// Point-in-time server counters.
struct ServerStats {
  uint64_t connections_accepted = 0;
  uint64_t frames_received = 0;
  uint64_t decode_errors = 0;
  uint64_t responses_sent = 0;
};

/// The wnrs network front end: speaks the binary protocol of
/// src/net/protocol.h over plain TCP and delegates every request to a
/// RequestScheduler over one engine — deadlines, priorities, same-q
/// batching, and admission control all come from the scheduler, the
/// server only moves frames.
///
/// Threading: one accept thread; per connection, a reader thread
/// (decode → Submit, enqueue the future) and a writer thread (await
/// futures in submission order, encode, send). Responses on one
/// connection therefore come back in request order, while the scheduler
/// is free to reorder execution by priority across connections; clients
/// may pipeline without limit and match responses by request_id.
///
/// Finished connections are reaped by the acceptor before each accept:
/// their threads are joined and their sockets closed, so a long-lived
/// server holds descriptors and threads only for open connections. When
/// the descriptor table is full (EMFILE/ENFILE) the acceptor reaps,
/// backs off briefly, and retries — it stops accepting only on Stop().
///
/// A malformed frame answers with an InvalidArgument response frame when
/// a request id could be salvaged (id 0 otherwise) and then closes the
/// connection — after a framing error the byte stream can no longer be
/// trusted.
class WnrsServer {
 private:
  /// Passkey: lets make_unique reach the constructor while keeping Start
  /// the only way to build a server.
  struct PrivateTag {
    explicit PrivateTag() = default;
  };

 public:
  /// Binds, listens, and starts the accept thread. The engine must
  /// outlive the server.
  static Result<std::unique_ptr<WnrsServer>> Start(const WhyNotEngine* engine,
                                                   ServerOptions options = {});

  WnrsServer(PrivateTag, const WhyNotEngine* engine, ServerOptions options,
             int listen_fd, uint16_t port);

  ~WnrsServer();

  WnrsServer(const WnrsServer&) = delete;
  WnrsServer& operator=(const WnrsServer&) = delete;

  /// The bound TCP port (resolves ephemeral port 0).
  uint16_t port() const { return port_; }

  /// The embedded scheduler — tests use Pause/Resume to stage overload
  /// deterministically; stats() exposes admission/deadline counters.
  serve::RequestScheduler& scheduler() { return *scheduler_; }

  ServerStats stats() const;

  /// Stops accepting, unblocks and joins every connection thread, shuts
  /// the scheduler down (queued requests answer Unavailable, and their
  /// responses are flushed before the sockets close). Idempotent; the
  /// destructor calls it.
  void Stop();

 private:
  struct Connection {
    int fd = -1;
    std::thread reader;
    std::thread writer;
    Mutex mu;
    CondVar cv;
    /// Futures in submission order, drained FIFO by the writer.
    std::deque<std::pair<uint64_t, std::future<serve::WhyNotResponse>>>
        inflight WNRS_GUARDED_BY(mu);
    bool reader_done WNRS_GUARDED_BY(mu) = false;
    /// Set by the writer as its last touch of the connection; the
    /// acceptor may then join both threads and close the fd.
    std::atomic<bool> finished{false};
  };

  void AcceptLoop();
  /// Joins, closes and erases every finished connection. Called only by
  /// the acceptor, which Stop() joins before claiming the remainder.
  void ReapFinished();
  void ReaderLoop(Connection* conn);
  void WriterLoop(Connection* conn);

  const ServerOptions options_;
  const int listen_fd_;
  const uint16_t port_;
  std::unique_ptr<serve::RequestScheduler> scheduler_;

  mutable Mutex mu_;
  std::list<Connection> connections_ WNRS_GUARDED_BY(mu_);
  bool stopped_ WNRS_GUARDED_BY(mu_) = false;
  ServerStats stats_ WNRS_GUARDED_BY(mu_);

  /// Serializes Stop callers: the first one joins the acceptor and every
  /// connection thread while any later caller blocks here until teardown
  /// finishes — without this a racing second Stop returned early on the
  /// `stopped_` check and could destroy the server under live joins.
  /// Ordered strictly before mu_ (never acquire stop_mu_ with mu_ held).
  Mutex stop_mu_;
  std::thread acceptor_ WNRS_GUARDED_BY(stop_mu_);
};

}  // namespace net
}  // namespace wnrs

#endif  // WNRS_NET_SERVER_H_
