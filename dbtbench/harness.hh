/**
 * @file
 * Shared plumbing of the end-to-end DBT benchmark: options, timing,
 * percentiles, the failure ledger, the span tracer and the result
 * printer.
 *
 * Output contract: human-readable report lines first (every metric with
 * its unit and a wall/sim/count tag), then exactly one JSON object as
 * the last line of stdout:
 *   {"correct": ..., "attempted": N, "failed": M,
 *    "metrics": {"<name>": {"value": v, "unit": "u"}, ...}}
 * Untraced runs carry the end-to-end metrics, traced runs the per-layer
 * metrics.
 */

#ifndef DBTBENCH_HARNESS_HH
#define DBTBENCH_HARNESS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace dbtbench
{

/** Command-line options of one benchmark invocation. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;

    /** Directory for scratch files (snapshots, the trace file). */
    std::string workDir = ".";

    /** Directory holding the litmus/ corpus files. */
    std::string dataDir = "data";

    /** Test hook: corrupt the first expected output so the failure
     * ledger can be checked end to end. */
    bool plantWrongOracle = false;

    /** Setup repetitions; setup_s reports their median. */
    unsigned setupReps = 3;
};

/** Monotonic nanoseconds. */
inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/**
 * The @p p-th percentile (0..100) of @p values by linear interpolation
 * between closest ranks (numpy's default). 0 for an empty sample.
 */
double percentile(std::vector<double> values, double p);

/** Number of samples strictly above the @p p-th percentile. */
std::size_t countAbove(const std::vector<double> &values, double p);

/** @p v with six significant digits, for report notes. */
std::string shortNumber(double v);

/** Peak resident set size of this process in MiB. */
double peakRssMiB();

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    /** "wall", "sim" or "count": how the number was obtained. */
    std::string kind;
    /** Human-readable base of a ratio or the sample it came from. */
    std::string note;
};

/**
 * What a run attempted, what failed and what it measured. Thread-safe
 * for fail()/attempt() so concurrent clients can share it.
 */
class Ledger
{
  public:
    void attempt(std::uint64_t n = 1);
    void fail(const std::string &what);

    std::uint64_t attempted() const;
    std::uint64_t failed() const;

    /** First failures, verbatim (capped). */
    std::vector<std::string> failures() const;

  private:
    mutable std::mutex mutex_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<std::string> failures_;
};

/** Print the report lines and the final JSON line. */
void printResult(std::ostream &os, const std::string &title,
                 const Ledger &ledger, const std::vector<Metric> &json,
                 const std::vector<Metric> &info);

// --- Tracing ------------------------------------------------------------

/** One closed span: name, interval, parent (index in the same thread's
 * buffer, -1 for a root) and the operation it belongs to. */
struct Span
{
    const char *name = "";
    std::uint64_t start = 0;
    std::uint64_t end = 0;
    std::int32_t parent = -1;
    std::uint64_t op = 0;
};

/** Aggregate of every span sharing a name. */
struct SpanSummary
{
    std::uint64_t count = 0;
    std::uint64_t totalNs = 0;
    std::uint64_t selfNs = 0;
};

/**
 * In-memory span recorder. Each thread appends to its own buffer with no
 * locking; buffers are merged when the run ends. Recording is enabled
 * per thread so a traced run can interleave traced and untraced
 * operations to measure its own overhead.
 */
class Tracer
{
  public:
    /** Turn recording on/off for the calling thread. */
    static void setThreadEnabled(bool on);

    /** Tag subsequent spans of the calling thread with @p op. */
    static void setOp(std::uint64_t op);

    /** Per-name count, total and self time over every thread. */
    static std::map<std::string, SpanSummary> summarize();

    /** Write every span as Chrome trace-event JSON. */
    static bool writeChromeTrace(const std::string &path);
};

/** RAII span; a no-op unless the calling thread is recording. */
class ScopedSpan
{
  public:
    explicit ScopedSpan(const char *name);
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    std::int32_t index_ = -1;
};

} // namespace dbtbench

#endif // DBTBENCH_HARNESS_HH
