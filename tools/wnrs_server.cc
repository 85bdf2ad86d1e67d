// The wnrs serving binary: loads (or generates) an engine and serves the
// binary wire protocol of src/net/ on a TCP port until SIGINT/SIGTERM.
//
//   wnrs_server --bundle <dir>            serve a persisted engine bundle
//   wnrs_server --generate <n>[:<seed>]   serve a generated CarDb engine
//
// Options:
//   --port <p>        TCP port (default 0 = ephemeral)
//   --port-file <f>   write the bound port to <f> (CI handshake)
//   --max-queue <n>   scheduler admission-control depth (default 1024)
//   --threads <n>     engine worker threads (default 1)
//   --approx <k>      precompute approx DSLs with parameter k (enables
//                     modify_both_approx requests)
//
// The load generator (bench/bench_loadgen.cc) is the matching client.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <semaphore>
#include <string>

#include "core/engine.h"
#include "data/generators.h"
#include "net/server.h"
#include "storage/file_io.h"

namespace {

using namespace wnrs;

int Usage() {
  std::fprintf(
      stderr,
      "usage: wnrs_server (--bundle <dir> | --generate <n>[:<seed>])\n"
      "         [--port <p>] [--port-file <f>] [--max-queue <n>]\n"
      "         [--threads <n>] [--approx <k>]\n");
  return 2;
}

// Signal handlers may only touch async-signal-safe state; the semaphore
// release is the sanctioned way to wake the main thread.
std::binary_semaphore g_shutdown{0};

void HandleSignal(int) { g_shutdown.release(); }

}  // namespace

int main(int argc, char** argv) {
  std::string bundle;
  size_t generate_n = 0;
  uint64_t generate_seed = 5;
  uint16_t port = 0;
  std::string port_file;
  size_t max_queue = 1024;
  size_t threads = 1;
  size_t approx_k = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--bundle" && has_value) {
      bundle = argv[++i];
    } else if (arg == "--generate" && has_value) {
      const std::string spec = argv[++i];
      const size_t colon = spec.find(':');
      generate_n = std::strtoull(spec.c_str(), nullptr, 10);
      if (colon != std::string::npos) {
        generate_seed = std::strtoull(spec.c_str() + colon + 1, nullptr, 10);
      }
    } else if (arg == "--port" && has_value) {
      port = static_cast<uint16_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--port-file" && has_value) {
      port_file = argv[++i];
    } else if (arg == "--max-queue" && has_value) {
      max_queue = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--threads" && has_value) {
      threads = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--approx" && has_value) {
      approx_k = std::strtoull(argv[++i], nullptr, 10);
    } else {
      std::fprintf(stderr, "wnrs_server: unknown or incomplete flag '%s'\n",
                   arg.c_str());
      return Usage();
    }
  }
  if (bundle.empty() == (generate_n == 0)) return Usage();

  WhyNotEngineOptions engine_options;
  engine_options.num_threads = threads;
  std::unique_ptr<WhyNotEngine> engine;
  if (!bundle.empty()) {
    auto opened = WhyNotEngine::Open(bundle, engine_options);
    if (!opened.ok()) {
      std::fprintf(stderr, "wnrs_server: cannot open bundle %s: %s\n",
                   bundle.c_str(), opened.status().ToString().c_str());
      return 1;
    }
    engine = std::move(opened).value();
  } else {
    engine = std::make_unique<WhyNotEngine>(
        GenerateCarDb(generate_n, generate_seed), engine_options);
  }
  if (approx_k > 0) engine->PrecomputeApproxDsls(approx_k);

  net::ServerOptions server_options;
  server_options.port = port;
  server_options.scheduler.max_queue_depth = max_queue;
  auto server = net::WnrsServer::Start(engine.get(), server_options);
  if (!server.ok()) {
    std::fprintf(stderr, "wnrs_server: cannot start: %s\n",
                 server.status().ToString().c_str());
    return 1;
  }
  if (!port_file.empty()) {
    const Status written = storage::WriteStringToFile(
        port_file, std::to_string(server.value()->port()) + "\n");
    if (!written.ok()) {
      std::fprintf(stderr, "wnrs_server: cannot write port file: %s\n",
                   written.ToString().c_str());
      return 1;
    }
  }
  std::fprintf(stderr,
               "wnrs_server: serving %zu products / %zu customers on port %u "
               "(max queue %zu)\n",
               engine->products().size(), engine->customers().size(),
               static_cast<unsigned>(server.value()->port()), max_queue);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  g_shutdown.acquire();
  std::fprintf(stderr, "wnrs_server: shutting down\n");
  server.value()->Stop();
  const net::ServerStats stats = server.value()->stats();
  std::fprintf(stderr,
               "wnrs_server: %llu connections, %llu frames, %llu responses, "
               "%llu decode errors\n",
               static_cast<unsigned long long>(stats.connections_accepted),
               static_cast<unsigned long long>(stats.frames_received),
               static_cast<unsigned long long>(stats.responses_sent),
               static_cast<unsigned long long>(stats.decode_errors));
  return 0;
}
