#include "harness.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>

namespace dbtbench
{

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank =
        std::clamp(p, 0.0, 100.0) / 100.0 *
        static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

std::size_t
countAbove(const std::vector<double> &values, double p)
{
    const double cut = percentile(values, p);
    return static_cast<std::size_t>(
        std::count_if(values.begin(), values.end(),
                      [cut](double v) { return v > cut; }));
}

std::string
shortNumber(double v)
{
    char buf[48];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return buf;
}

double
peakRssMiB()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux.
}

// --- Ledger -------------------------------------------------------------

void
Ledger::attempt(std::uint64_t n)
{
    std::lock_guard<std::mutex> lock(mutex_);
    attempted_ += n;
}

void
Ledger::fail(const std::string &what)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++failed_;
    if (failures_.size() < 32)
        failures_.push_back(what);
}

std::uint64_t
Ledger::attempted() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return attempted_;
}

std::uint64_t
Ledger::failed() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return failed_;
}

std::vector<std::string>
Ledger::failures() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return failures_;
}

// --- Printing -----------------------------------------------------------

namespace
{

/** Shortest decimal text that round-trips the double exactly. */
std::string
number(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        if (static_cast<unsigned char>(c) < 0x20)
            continue;
        out.push_back(c);
    }
    return out;
}

void
printMetricLine(std::ostream &os, const Metric &m)
{
    os << "  " << m.name << " = " << shortNumber(m.value) << " " << m.unit
       << " ["
       << m.kind << "]";
    if (!m.note.empty())
        os << "  (" << m.note << ")";
    os << "\n";
}

} // namespace

void
printResult(std::ostream &os, const std::string &title,
            const Ledger &ledger, const std::vector<Metric> &json,
            const std::vector<Metric> &info)
{
    const std::uint64_t attempted = ledger.attempted();
    const std::uint64_t failed = ledger.failed();
    os << "== " << title << "\n";
    for (const Metric &m : json)
        printMetricLine(os, m);
    if (!info.empty()) {
        os << "  -- also measured (not in the result object):\n";
        for (const Metric &m : info)
            printMetricLine(os, m);
    }
    os << "  failed_ratio = " << number(attempted ? double(failed) / attempted
                                                 : 0.0)
       << " ratio [count]  (failed " << failed << " / attempted "
       << attempted << ")\n";
    for (const std::string &f : ledger.failures())
        os << "  FAILED: " << f << "\n";

    os << "{\"correct\": " << (failed == 0 ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < json.size(); ++i) {
        os << (i ? ", " : "") << "\"" << jsonEscape(json[i].name)
           << "\": {\"value\": " << number(json[i].value)
           << ", \"unit\": \"" << jsonEscape(json[i].unit) << "\"}";
    }
    os << "}}" << std::endl;
}

// --- Tracer -------------------------------------------------------------

namespace
{

/** One thread's spans, the stack of its open spans and its settings. */
struct TraceBuffer
{
    std::vector<Span> spans;
    std::vector<std::int32_t> open;
    std::uint64_t op = 0;
    bool enabled = false;
    std::uint32_t tid = 0;
};

struct Registry
{
    std::mutex mutex;
    std::vector<std::shared_ptr<TraceBuffer>> buffers;
    std::uint32_t nextTid = 1;
};

Registry &
registry()
{
    static Registry r;
    return r;
}

TraceBuffer &
localBuffer()
{
    // Buffers are owned by the registry so they outlive their thread: a
    // client thread's spans are summarized after it has been joined.
    thread_local TraceBuffer *buffer = [] {
        auto owned = std::make_shared<TraceBuffer>();
        Registry &r = registry();
        std::lock_guard<std::mutex> lock(r.mutex);
        owned->tid = r.nextTid++;
        r.buffers.push_back(owned);
        return owned.get();
    }();
    return *buffer;
}

template <typename F>
void
forEachBuffer(F &&f)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    for (const auto &b : r.buffers)
        f(*b);
}

} // namespace

void
Tracer::setThreadEnabled(bool on)
{
    localBuffer().enabled = on;
}

void
Tracer::setOp(std::uint64_t op)
{
    localBuffer().op = op;
}

std::map<std::string, SpanSummary>
Tracer::summarize()
{
    std::map<std::string, SpanSummary> out;
    forEachBuffer([&](const TraceBuffer &b) {
        // Children of one span never overlap on one thread, so a span's
        // self time is its duration minus the sum of its children's.
        std::vector<std::uint64_t> childNs(b.spans.size(), 0);
        for (const Span &s : b.spans)
            if (s.parent >= 0)
                childNs[static_cast<std::size_t>(s.parent)] += s.end - s.start;
        for (std::size_t i = 0; i < b.spans.size(); ++i) {
            const Span &s = b.spans[i];
            SpanSummary &sum = out[s.name];
            const std::uint64_t dur = s.end - s.start;
            ++sum.count;
            sum.totalNs += dur;
            sum.selfNs += dur > childNs[i] ? dur - childNs[i] : 0;
        }
    });
    return out;
}

bool
Tracer::writeChromeTrace(const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        return false;
    std::uint64_t origin = UINT64_MAX;
    forEachBuffer([&](const TraceBuffer &b) {
        for (const Span &s : b.spans)
            origin = std::min(origin, s.start);
    });
    out << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
    bool first = true;
    forEachBuffer([&](const TraceBuffer &b) {
        for (const Span &s : b.spans) {
            char ts[64];
            std::snprintf(ts, sizeof ts, "%.3f, \"dur\": %.3f",
                          (s.start - origin) / 1e3, (s.end - s.start) / 1e3);
            out << (first ? "" : ",\n") << "{\"name\": \"" << s.name
                << "\", \"cat\": \"dbtbench\", \"ph\": \"X\", \"ts\": " << ts
                << ", \"pid\": 1, \"tid\": " << b.tid
                << ", \"args\": {\"op\": " << s.op << ", \"parent\": \""
                << (s.parent >= 0
                        ? b.spans[static_cast<std::size_t>(s.parent)].name
                        : "")
                << "\"}}";
            first = false;
        }
    });
    out << "\n]}\n";
    return static_cast<bool>(out);
}

ScopedSpan::ScopedSpan(const char *name)
{
    TraceBuffer &b = localBuffer();
    if (!b.enabled)
        return;
    Span s;
    s.name = name;
    s.parent = b.open.empty() ? -1 : b.open.back();
    s.op = b.op;
    index_ = static_cast<std::int32_t>(b.spans.size());
    b.spans.push_back(s);
    b.open.push_back(index_);
    b.spans.back().start = nowNs();
}

ScopedSpan::~ScopedSpan()
{
    if (index_ < 0)
        return;
    TraceBuffer &b = localBuffer();
    b.spans[static_cast<std::size_t>(index_)].end = nowNs();
    b.open.pop_back();
}

} // namespace dbtbench
