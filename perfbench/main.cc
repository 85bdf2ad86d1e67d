// The serving benchmark: one workload per invocation.
//
//   wnrs_perfbench --workload <cold-mix|hot-mix|churn> --seed <n>
//                  --seconds <s> --trace <0|1> [--trace-dir <dir>]
//
// --trace 0 runs the timed phases and prints the end-to-end metrics;
// --trace 1 runs the same timed phases, then the traced replay, and prints
// the per-layer metrics. Either way the last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics"}, and the exit code
// is non-zero if any answer was wrong. perfbench/README.md has the details.

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "answers.h"
#include "bench_common.h"
#include "geometry/kernels.h"
#include "timed.h"
#include "traced.h"
#include "workload.h"

namespace wnrs {
namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string trace_dir = ".";
};

bool Parse(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args->trace = std::atoi(value);
    } else if (flag == "--trace-dir") {
      args->trace_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && FindWorkload(args->workload) != nullptr &&
         args->seconds > 0.0 && (args->trace == 0 || args->trace == 1);
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

void PrintHost(const Args& args) {
  std::printf(
      "host: {\"nproc\": %u, \"compiler\": \"%s\", \"build_type\": \"%s\", "
      "\"simd\": \"%s\", \"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %g, \"trace\": %d}\n",
      std::thread::hardware_concurrency(), Compiler().c_str(),
      WNRS_PERFBENCH_BUILD_TYPE, KernelBackend(), args.workload.c_str(),
      static_cast<unsigned long long>(args.seed), args.seconds, args.trace);
}

/// Spin-wait hint: yields the core's execution resources to a sibling
/// hardware thread, so a spinner barely slows the thread it shares a core
/// with.
inline void Relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// One SCHED_IDLE spinning thread per CPU for the life of the run. They run
/// only when nothing else wants a CPU, so the CPUs never go idle: on the
/// reference VM, waking an idle virtual CPU costs up to a few hundred
/// microseconds and varies with the other tenants' load, which made every
/// timing swing by tens of percent from run to run. Like disabling deep
/// C-states, this removes a host effect, not work the program does.
class IdleSpinners {
 public:
  IdleSpinners() {
    const unsigned n = std::thread::hardware_concurrency();
    for (unsigned i = 0; i < n; ++i) {
      threads_.emplace_back([this] {
        const sched_param param{};
        if (pthread_setschedparam(pthread_self(), SCHED_IDLE, &param) != 0) {
          return;  // without the idle class a spinner would steal CPU
        }
        while (!stop_.load(std::memory_order_relaxed)) Relax();
      });
    }
  }
  ~IdleSpinners() {
    stop_.store(true);
    for (std::thread& t : threads_) t.join();
  }
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

/// Throughput is the median over the rounds of each round's closed-loop
/// rate: the host's speed changes from one second to the next (its
/// hypervisor steals time in bursts), and a median over rounds keeps a few
/// slow seconds from deciding a run. The write figures are percentiles over
/// every write of the run.
void AddEndToEnd(const TimedResult& t, MetricSink* sink) {
  const size_t writes = t.write_us.size();
  sink->Set("setup_s", Median(t.setup_s), "s", t.setup_s.size());
  sink->Set("throughput_qps", Median(t.round_throughput_qps), "req/s",
            t.closed_ok);
  sink->Set("write_p50_ms", Percentile(t.write_us, 50) / 1e3, "ms", writes);
  sink->Set("write_p95_ms", Percentile(t.write_us, 95) / 1e3, "ms", writes);
  sink->Set("peak_rss_mb", t.peak_rss_mb, "MiB", 1);
}

int Run(int argc, char** argv) {
  Args args;
  if (!Parse(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-dir <dir>]\n",
                 argv[0]);
    return 2;
  }
  const WorkloadSpec& spec = *FindWorkload(args.workload);
  PrintHost(args);

  StreamLayout layout = TimedLayout(spec, args.seconds);
  // The traced replay reads the head of the stream.
  const size_t traced = TracedStreamReads(spec) + kWritePhaseOps;
  if (layout.size() < traced) layout.tail += traced - layout.size();
  const Inputs inputs = GenerateInputs(spec, args.seed, layout);

  const IdleSpinners spinners;
  CorrectnessLog log;
  const TimedResult timed = RunTimed(spec, inputs, args.seconds,
                                     /*probe_library_client=*/args.trace == 1, &log);
  FailureLedger all = timed.ledger;
  all.Merge(timed.closed_ledger);
  std::printf("failures (fixed-count phases): %s\n", timed.ledger.ToJson().c_str());
  std::printf("failures (closed loop): %s\n", timed.closed_ledger.ToJson().c_str());

  MetricSink sink;
  if (args.trace == 0) {
    AddEndToEnd(timed, &sink);
  } else {
    const std::string span_path = args.trace_dir + "/" + spec.name + "-seed" +
                                  std::to_string(args.seed) + ".spans.jsonl";
    RunTraced(spec, inputs, timed, span_path, &sink, &log);
    std::printf("spans: %s\n", span_path.c_str());
  }
  sink.PrintLines("metric");
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              log.ok() ? "true" : "false",
              static_cast<unsigned long long>(all.attempted()),
              static_cast<unsigned long long>(all.failed()),
              sink.ToJsonObject().c_str());
  std::fflush(stdout);
  return log.ok() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench
}  // namespace wnrs

int main(int argc, char** argv) { return wnrs::perfbench::Run(argc, argv); }
