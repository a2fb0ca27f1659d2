/**
 * @file
 * `pcsim bench`: the standard kernel + protocol microbenchmark suite.
 *
 * Four kernel-only benchmarks exercise the event queue's hot paths in
 * isolation (shallow/deep self-ping, closure payloads, calendar
 * overflow), and two protocol benchmarks run real workloads through a
 * full machine so the pooled message path and directory sizing show up
 * in end-to-end events/sec. Each benchmark reports the best of N
 * repeats; results can be written as a BENCH_kernel.json document and
 * compared against a saved baseline (see EXPERIMENTS.md for the
 * schema).
 */

#ifndef PCSIM_RUNNER_BENCH_HH
#define PCSIM_RUNNER_BENCH_HH

#include <cstdint>
#include <string>

namespace pcsim
{
namespace runner
{

/** Options for the bench suite (the `pcsim bench` flags). */
struct BenchOptions
{
    /** Events per kernel microbenchmark. */
    std::uint64_t kernelEvents = 2000000;
    /** Repeats per benchmark; the best wall time is reported. */
    unsigned repeats = 3;
    /** Write the results document here ("" = don't; "-" = stdout,
     *  in place of the table). */
    std::string jsonPath;
    /** Compare against a prior results document ("" = none): each
     *  benchmark found by name in the baseline gains
     *  baselineEventsPerSec + speedup fields. */
    std::string baselinePath;
    /** Suppress the per-benchmark progress lines on stderr. */
    bool quiet = false;
};

/** Run the suite; returns a process exit code (0 ok, 1 I/O error). */
int runBenchSuite(const BenchOptions &opt);

} // namespace runner
} // namespace pcsim

#endif // PCSIM_RUNNER_BENCH_HH
