// The traced replay: the workload's requests, single-threaded at depth 1,
// through one lane per layer. Spans are recorded by this benchmark's own
// code around calls into each module's public functions.
#ifndef WNRS_PERFBENCH_TRACED_H_
#define WNRS_PERFBENCH_TRACED_H_

#include <string>

#include "answers.h"
#include "bench_common.h"
#include "timed.h"
#include "workload.h"

namespace wnrs {
namespace perfbench {

/// Replays the workload through every lane, checks that all lanes agree
/// bit for bit, writes the spans to `span_path` (JSON lines), and puts the
/// per-layer metrics (including those taken from `timed`) into `sink`.
void RunTraced(const WorkloadSpec& spec, const Inputs& inputs,
               const TimedResult& timed, const std::string& span_path,
               MetricSink* sink, CorrectnessLog* log);

/// Reads of the traced replay taken from the head of the stream.
size_t TracedStreamReads(const WorkloadSpec& spec);

}  // namespace perfbench
}  // namespace wnrs

#endif  // WNRS_PERFBENCH_TRACED_H_
