#include "workloads.hh"

#include <atomic>
#include <cctype>
#include <memory>
#include <thread>

#include "dbt/dbt.hh"
#include "layers.hh"
#include "litmus/enumerate.hh"
#include "mapping/schemes.hh"
#include "models/model.hh"
#include "risotto/stress.hh"
#include "serve/artifact.hh"
#include "serve/session.hh"
#include "support/error.hh"

namespace dbtbench
{

using namespace risotto;

namespace
{

// Input sizes. A 30 s run completes well over 100 operations, so at
// least ten samples lie beyond p90, and covers every (input, host) pair
// at least once.
constexpr std::size_t SuiteThreads = 4;
constexpr std::size_t ServeClients = 4;
constexpr std::size_t ServeThreads = 2;
constexpr std::size_t ColdPrograms = 32;
constexpr std::size_t LitmusRandomPrograms = 48;

/** Cases the traced replay covers per workload (a seeded sample). */
constexpr std::size_t ReplayCases = 6;
constexpr std::size_t ReplayPrograms = 12;

const std::vector<std::string> ServeProxies = {"blackscholes", "canneal",
                                               "freqmine", "matrixmultiply"};

template <typename T>
void
shuffleWith(std::vector<T> &v, Rng &rng)
{
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.below(i)]);
}

struct Timed
{
    std::vector<Sample> samples;
    double wallS = 0.0;
};

/**
 * Run @p op(i) back to back until @p o.seconds have passed. In a traced
 * run even operations record spans and odd ones do not, so the two
 * halves measure the tracing overhead.
 */
template <typename Op>
Timed
serialLoop(const Options &o, Op &&op)
{
    Timed t;
    const std::uint64_t start = nowNs();
    const std::uint64_t deadline =
        start + static_cast<std::uint64_t>(o.seconds * 1e9);
    for (std::uint64_t i = 0; nowNs() < deadline; ++i) {
        const bool traced = o.trace && i % 2 == 0;
        Tracer::setThreadEnabled(traced);
        Tracer::setOp(i);
        Sample s = op(i);
        s.traced = traced;
        t.samples.push_back(s);
    }
    Tracer::setThreadEnabled(false);
    t.wallS = static_cast<double>(nowNs() - start) / 1e9;
    return t;
}

/** Run @p setup o.setupReps times; keep the last state and report the
 * median duration. */
template <typename F>
auto
repeatedSetup(const Options &o, F &&setup, double &setup_s)
{
    std::vector<double> times;
    std::uint64_t t0 = nowNs();
    auto state = setup();
    times.push_back(static_cast<double>(nowNs() - t0) / 1e9);
    for (unsigned rep = 1; rep < o.setupReps; ++rep) {
        t0 = nowNs();
        state = setup();
        times.push_back(static_cast<double>(nowNs() - t0) / 1e9);
    }
    setup_s = percentile(times, 50);
    return state;
}

double
sumMs(const std::vector<Sample> &samples, int host)
{
    double ms = 0;
    for (const Sample &s : samples)
        if (s.guestInsns && (host < 0 || s.host == static_cast<std::size_t>(host)))
            ms += s.ms;
    return ms;
}

double
sumInsns(const std::vector<Sample> &samples, int host)
{
    double n = 0;
    for (const Sample &s : samples)
        if (host < 0 || s.host == static_cast<std::size_t>(host))
            n += static_cast<double>(s.guestInsns);
    return n;
}

/** The end-to-end metrics of an untraced run, in BENCHMARK.json order. */
std::vector<Metric>
endToEnd(const Timed &t, double setup_s)
{
    std::vector<double> ms;
    for (const Sample &s : t.samples)
        ms.push_back(s.ms);
    const std::string n = std::to_string(ms.size());
    std::vector<Metric> out;
    out.push_back({"setup_s", setup_s, "s", "wall",
                   "median of the setup repetitions"});
    out.push_back({"op_ms_p50", percentile(ms, 50), "ms", "wall",
                   n + " operations"});
    out.push_back({"op_ms_p90", percentile(ms, 90), "ms", "wall",
                   std::to_string(countAbove(ms, 90)) +
                       " samples beyond p90"});
    out.push_back({"ops_per_s", static_cast<double>(ms.size()) / t.wallS,
                   "1/s", "wall", n + " operations in " + shortNumber(t.wallS) + " s"});
    auto per_insn = [&](int host) {
        const double insns = sumInsns(t.samples, host);
        return insns > 0 ? sumMs(t.samples, host) * 1e6 / insns : 0.0;
    };
    out.push_back({"ns_per_guest_insn", per_insn(-1), "ns", "wall",
                   shortNumber(sumInsns(t.samples, -1)) +
                       " retired guest insns (reference interpreter)"});
    for (std::size_t h = 0; h < 2; ++h)
        out.push_back({"ns_per_guest_insn." + hostName(h),
                       per_insn(static_cast<int>(h)), "ns", "wall",
                       shortNumber(sumInsns(t.samples, static_cast<int>(h))) +
                           " retired guest insns"});
    out.push_back({"peak_rss_mb", peakRssMiB(), "MiB", "wall",
                   "max RSS of this process"});
    return out;
}

Metric
simCycles(const Timed &t)
{
    double cycles = 0, insns = 0;
    for (const Sample &s : t.samples)
        if (s.makespan && s.guestInsns) {
            cycles += static_cast<double>(s.makespan);
            insns += static_cast<double>(s.guestInsns);
        }
    return {"sim_cycles_per_guest_insn", insns > 0 ? cycles / insns : 0.0,
            "cycles", "sim",
            shortNumber(cycles) + " makespan cycles / " + shortNumber(insns) + " guest insns"};
}

Metric
traceOverhead(const Timed &t)
{
    std::vector<double> on, off;
    for (const Sample &s : t.samples)
        (s.traced ? on : off).push_back(s.ms);
    const double base = percentile(off, 50);
    return {"trace.overhead_ratio",
            base > 0 ? percentile(on, 50) / base - 1.0 : 0.0, "ratio", "wall",
            "traced p50 " + shortNumber(percentile(on, 50)) + " ms / untraced p50 " +
                shortNumber(base) + " ms - 1, over " + std::to_string(on.size()) +
                " + " + std::to_string(off.size()) + " operations"};
}

/** Print the span table: count, total and self time per span name. */
void
printSpanTable(std::ostream &os)
{
    os << "  span                                   count     total_ms      "
          "self_ms\n";
    for (const auto &[name, s] : Tracer::summarize()) {
        char line[160];
        std::snprintf(line, sizeof line, "  %-36s %8llu %12.3f %12.3f\n",
                      name.c_str(), static_cast<unsigned long long>(s.count),
                      s.totalNs / 1e6, s.selfNs / 1e6);
        os << line;
    }
}

template <typename T>
std::vector<const T *>
sample(const std::vector<T> &all, std::size_t count, std::uint64_t seed)
{
    std::vector<const T *> out;
    for (const T &x : all)
        out.push_back(&x);
    Rng rng(deriveStream(seed, 0x5a));
    shuffleWith(out, rng);
    if (out.size() > count)
        out.resize(count);
    return out;
}

/**
 * Finish a run. Untraced: the end-to-end metrics. Traced: the layer
 * replay over a seeded sample of this workload's guest programs
 * (@p cases) and litmus programs (@p programs; null for guest-program
 * workloads, which replay the litmus layers on the built-in corpus),
 * the span table, the trace file and the per-layer metrics.
 */
int
finish(const Options &o, std::ostream &os, const std::string &title,
       const Timed &t, double setup_s, const std::vector<Metric> &info,
       const std::vector<GuestCase> &cases,
       const std::vector<LitmusCase> *programs, Ledger &ledger)
{
    if (!o.trace) {
        printResult(os, title, ledger, endToEnd(t, setup_s), info);
        return 0;
    }
    std::vector<const GuestCase *> replay_cases =
        sample(cases, ReplayCases, o.seed);
    const std::vector<LitmusCase> corpus =
        programs ? std::vector<LitmusCase>{} : litmusCorpusCases(o.dataDir);
    const std::vector<const LitmusCase *> replay_programs =
        sample(programs ? *programs : corpus, ReplayPrograms, o.seed);
    // A litmus workload's guest programs are its stress images.
    std::vector<GuestCase> stress_cases;
    if (programs)
        for (const LitmusCase *p : replay_programs)
            if (p->guardFree && stress_cases.size() < ReplayCases)
                stress_cases.push_back(stressGuestCase(*p));
    for (const GuestCase &c : stress_cases)
        replay_cases.push_back(&c);

    Tracer::setThreadEnabled(true);
    Tracer::setOp(UINT64_MAX);
    std::vector<Metric> layers =
        layerReplay(o, replay_cases, replay_programs, ledger);
    Tracer::setThreadEnabled(false);
    layers.push_back(traceOverhead(t));

    const std::string trace_path = o.workDir + "/trace-" + o.workload +
                                   "-" + std::to_string(o.seed) + ".json";
    os << "== spans (self time = span minus its child spans)\n";
    printSpanTable(os);
    if (Tracer::writeChromeTrace(trace_path))
        os << "  trace written to " << trace_path << "\n";
    else
        ledger.fail("cannot write " + trace_path);
    printResult(os, title + " [traced: per-layer replay]", ledger, layers,
                {});
    return 0;
}

/** Serial workloads over (case, host) pairs in seeded order. */
int
runEngineWorkload(const Options &o, std::ostream &os, bool cold)
{
    double setup_s = 0;
    const std::vector<GuestCase> cases = repeatedSetup(
        o,
        [&] {
            std::vector<GuestCase> cs =
                cold ? coldCases(o.seed, ColdPrograms)
                     : suiteCases(SuiteThreads);
            if (o.plantWrongOracle)
                cs.front().exitCodes.front() ^= 1;
            return cs;
        },
        setup_s);

    std::vector<std::pair<std::size_t, std::size_t>> ops;
    for (std::size_t k = 0; k < cases.size(); ++k)
        for (std::size_t h = 0; h < 2; ++h)
            ops.emplace_back(k, h);
    Ledger ledger;
    const Timed t = serialLoop(o, [&](std::uint64_t i) {
        if (i % ops.size() == 0) {
            Rng rng(deriveStream(o.seed, i / ops.size()));
            shuffleWith(ops, rng);
        }
        const auto [k, h] = ops[i % ops.size()];
        return engineOp(cases[k], h, cold, ledger);
    });

    const std::string title =
        cold ? "cold_validated: " + std::to_string(ColdPrograms) +
                   " generated programs x 2 hosts, fresh validating Dbt "
                   "per run, serial"
             : "suite_run: 16 proxies x 2 hosts, " +
                   std::to_string(SuiteThreads) +
                   " guest threads, fresh Dbt per run, serial";
    return finish(o, os, title, t, setup_s, {simCycles(t)}, cases, nullptr,
                  ledger);
}

int
runServeWorkload(const Options &o, std::ostream &os)
{
    struct State
    {
        std::vector<GuestCase> cases;
        /** Artifact of case k on host h at index 2k + h. */
        std::vector<std::shared_ptr<serve::SharedArtifact>> artifacts;
    };
    double setup_s = 0;
    const State state = repeatedSetup(
        o,
        [&] {
            State s;
            s.cases = namedCases(ServeProxies, ServeThreads);
            if (o.plantWrongOracle)
                s.cases.front().exitCodes.front() ^= 1;
            for (const GuestCase &c : s.cases)
                for (std::size_t h = 0; h < 2; ++h)
                    s.artifacts.push_back(warmArtifact(o, c, h));
            return s;
        },
        setup_s);

    // Closed loop: each client issues its next session only when the
    // previous one returned.
    Ledger ledger;
    std::atomic<std::uint64_t> next_id{0};
    std::vector<std::vector<Sample>> per_client(ServeClients);
    const std::uint64_t start = nowNs();
    const std::uint64_t deadline =
        start + static_cast<std::uint64_t>(o.seconds * 1e9);
    auto client = [&](std::size_t cid) {
        Rng rng(deriveStream(o.seed, 100 + cid));
        for (std::uint64_t i = 0; nowNs() < deadline; ++i) {
            const std::size_t pick = rng.below(state.artifacts.size());
            const GuestCase &c = state.cases[pick / 2];
            const bool traced = o.trace && i % 2 == 0;
            Tracer::setThreadEnabled(traced);
            const std::uint64_t id = next_id++;
            Tracer::setOp(id);
            serve::SessionOptions so;
            so.threads = ServeThreads;
            so.seed = o.seed;
            const std::uint64_t t0 = nowNs();
            serve::SessionResult r;
            try {
                ScopedSpan span("serve.session");
                r = serve::runSession(*state.artifacts[pick], id, so);
            } catch (const std::exception &e) {
                r.kind = serve::FailureKind::Internal;
                r.note = std::string("threw: ") + e.what();
            }
            Sample s;
            s.ms = static_cast<double>(nowNs() - t0) / 1e6;
            s.host = pick % 2;
            s.traced = traced;
            ledger.attempt();
            const std::string why =
                r.kind != serve::FailureKind::None
                    ? "session not ok: " + r.note
                    : oracleMismatch(c, r.finished, r.exitCodes, r.outputs);
            if (why.empty()) {
                s.guestInsns = c.guestInsns;
                s.makespan = r.makespan;
            } else {
                ledger.fail("session " + std::to_string(id) + " " + c.name +
                            " on " + hostName(s.host) + ": " + why);
            }
            per_client[cid].push_back(s);
        }
        Tracer::setThreadEnabled(false);
    };
    std::vector<std::thread> clients;
    for (std::size_t cid = 0; cid < ServeClients; ++cid)
        clients.emplace_back(client, cid);
    for (std::thread &th : clients)
        th.join();
    Timed t;
    t.wallS = static_cast<double>(nowNs() - start) / 1e9;
    for (const auto &v : per_client)
        t.samples.insert(t.samples.end(), v.begin(), v.end());

    return finish(o, os,
                  "serve_sessions: closed loop, " +
                      std::to_string(ServeClients) + " clients, " +
                      std::to_string(ServeThreads) +
                      " guest threads/session, warm artifacts of 4 proxies x "
                      "2 hosts",
                  t, setup_s, {simCycles(t)}, state.cases, nullptr, ledger);
}

int
runLitmusWorkload(const Options &o, std::ostream &os)
{
    double setup_s = 0;
    const std::vector<LitmusCase> cases = repeatedSetup(
        o,
        [&] {
            return litmusCases(o.seed, LitmusRandomPrograms, o.dataDir);
        },
        setup_s);

    std::vector<std::pair<std::size_t, std::size_t>> ops;
    for (std::size_t k = 0; k < cases.size(); ++k)
        for (std::size_t h = 0; h < 2; ++h)
            ops.emplace_back(k, h);
    Ledger ledger;
    std::uint64_t weak_observed = 0, weak_allowed = 0;
    std::vector<std::string> escapes;
    const Timed t = serialLoop(o, [&](std::uint64_t i) {
        if (i % ops.size() == 0) {
            Rng rng(deriveStream(o.seed, i / ops.size()));
            shuffleWith(ops, rng);
        }
        const auto [k, h] = ops[i % ops.size()];
        const Verdict v = verdictOp(
            cases[k], h, 1 + deriveStream(o.seed, 1000 + i) % 1000000007,
            ledger, o.plantWrongOracle && i == 0);
        weak_observed += v.weakObserved;
        weak_allowed += v.weakAllowed;
        for (const std::string &e : v.rv64Escapes)
            if (escapes.size() < 8)
                escapes.push_back(cases[k].origin + " on rv64: " + e);
        return v.sample;
    });

    std::vector<Metric> info;
    info.push_back({"weak_coverage",
                    weak_allowed ? double(weak_observed) / weak_allowed : 0.0,
                    "ratio", "sim",
                    std::to_string(weak_observed) + " observed / " +
                        std::to_string(weak_allowed) +
                        " allowed x86-not-SC outcomes, summed over verdicts"});
    for (const std::string &e : escapes)
        info.push_back({"litmus.rv64_model_escape", 1, "count", "sim", e});
    return finish(o, os,
                  "litmus_oracle: " + std::to_string(cases.size()) +
                      " programs x 2 hosts, " +
                      std::to_string(SchedulesPerVerdict) +
                      " stress schedules/verdict, serial",
                  t, setup_s, info, {}, &cases, ledger);
}

} // namespace

std::string
hostName(std::size_t host)
{
    return support::hostIsaName(Hosts[host]);
}

dbt::DbtConfig
hostConfig(std::size_t host)
{
    dbt::DbtConfig cfg = dbt::DbtConfig::risotto();
    cfg.host = Hosts[host];
    return cfg;
}

std::shared_ptr<serve::SharedArtifact>
warmArtifact(const Options &o, const GuestCase &c, std::size_t host)
{
    const dbt::DbtConfig cfg = hostConfig(host);
    std::vector<dbt::ThreadSpec> threads(c.threads);
    for (std::size_t t = 0; t < c.threads; ++t)
        threads[t].regs[0] = t;
    std::string file = c.name + "-" + hostName(host);
    for (char &ch : file)
        if (!std::isalnum(static_cast<unsigned char>(ch)) && ch != '-')
            ch = '_';
    const std::string path = o.workDir + "/serve-" + file + ".rtbc";

    dbt::Dbt profiler(c.image, cfg);
    if (!profiler.run(threads).finished ||
        !profiler.savePersistentCache(path))
        throw FatalError("profiling run failed: " + c.name);
    serve::ArtifactConfig ac;
    ac.config = cfg;
    ac.snapshotPath = path;
    std::shared_ptr<serve::SharedArtifact> artifact;
    {
        ScopedSpan s("serve.prepare");
        artifact = std::make_shared<serve::SharedArtifact>(c.image, ac);
    }
    if (artifact->mode() != serve::ArtifactMode::Warm)
        throw FatalError("artifact did not warm-start: " + c.name);
    return artifact;
}

Sample
engineOp(const GuestCase &c, std::size_t host, bool validate, Ledger &ledger)
{
    dbt::DbtConfig cfg = hostConfig(host);
    cfg.validateTranslations = validate;
    std::vector<dbt::ThreadSpec> threads(c.threads);
    for (std::size_t t = 0; t < c.threads; ++t)
        threads[t].regs[0] = t;

    Sample s;
    s.host = host;
    std::unique_ptr<dbt::Dbt> engine;
    dbt::RunResult r;
    std::string why;
    const std::uint64_t t0 = nowNs();
    try {
        ScopedSpan op("engine_run");
        {
            ScopedSpan span("dbt.engine.ctor");
            engine = std::make_unique<dbt::Dbt>(c.image, cfg);
        }
        ScopedSpan span("dbt.run.cold");
        r = engine->run(threads);
    } catch (const std::exception &e) {
        why = std::string("threw: ") + e.what();
    }
    s.ms = static_cast<double>(nowNs() - t0) / 1e6;
    ledger.attempt();
    if (why.empty())
        why = oracleMismatch(c, r.finished, r.exitCodes, r.outputs);
    if (why.empty() && r.validationViolations != 0)
        why = std::to_string(r.validationViolations) +
              " validator violations";
    if (!why.empty()) {
        ledger.fail(c.name + " on " + hostName(host) + ": " + why);
        return s;
    }
    s.guestInsns = c.guestInsns;
    s.makespan = r.makespan;
    return s;
}

Verdict
verdictOp(const LitmusCase &c, std::size_t host, std::uint64_t first_seed,
          Ledger &ledger, bool plant_wrong)
{
    static const models::X86Model x86;
    static const models::ScModel sc;
    static const models::ArmModel arm(models::ArmModel::AmoRule::Corrected);
    static const models::RiscvModel rvwmo;
    const litmus::Program &p = c.program;
    auto behaviors = [&](const litmus::Program &prog,
                         const models::ConsistencyModel &model,
                         const char *span) {
        ScopedSpan s(span);
        litmus::BehaviorSet out;
        for (const litmus::Outcome &o : litmus::enumerateBehaviors(prog, model))
            out.insert(normalizeOutcome(p, o));
        return out;
    };

    Verdict v;
    v.sample.host = host;
    std::vector<std::string> problems;
    StressResult stress;
    const std::uint64_t t0 = nowNs();
    try {
        ScopedSpan op("verdict");
        litmus::BehaviorSet x86_set =
            behaviors(p, x86, "litmus.enumerate.x86");
        const litmus::BehaviorSet sc_set =
            behaviors(p, sc, "litmus.enumerate.sc");
        litmus::Program mapped;
        {
            ScopedSpan s("mapping.map");
            mapped = host == 0
                         ? mapping::mapX86ToArm(
                               p, mapping::X86ToTcgScheme::Risotto,
                               mapping::TcgToArmScheme::Risotto,
                               mapping::RmwLowering::InlineCasal)
                         : mapping::mapX86ToRiscv(p);
        }
        const litmus::BehaviorSet host_set =
            host == 0 ? behaviors(mapped, arm, "litmus.enumerate.arm")
                      : behaviors(mapped, rvwmo, "litmus.enumerate.rvwmo");
        {
            ScopedSpan s(host == 0 ? "risotto.stress.aarch"
                                   : "risotto.stress.rv64");
            stress = runStress(p, hostConfig(host), SchedulesPerVerdict,
                               first_seed);
        }
        if (plant_wrong)
            x86_set.clear();

        v.x86Behaviors = x86_set.size();
        for (const litmus::Outcome &o : x86_set)
            v.weakAllowed += sc_set.count(o) ? 0 : 1;
        for (const auto &[outcome, count] : stress.histogram) {
            const litmus::Outcome norm = normalizeOutcome(p, outcome);
            const bool in_x86 = x86_set.count(norm) != 0;
            if (!in_x86)
                problems.push_back("outcome " + norm.toString() +
                                   " outside the x86 model");
            if (!host_set.count(norm)) {
                if (host == 0)
                    problems.push_back("outcome " + norm.toString() +
                                       " outside Arm(mapped program)");
                else
                    v.rv64Escapes.push_back(norm.toString());
            }
            if (in_x86 && !sc_set.count(norm))
                ++v.weakObserved;
        }
        if (stress.unfinished)
            problems.push_back(std::to_string(stress.unfinished) +
                               " unfinished schedules");
    } catch (const std::exception &e) {
        problems.push_back(std::string("threw: ") + e.what());
    }
    v.sample.ms = static_cast<double>(nowNs() - t0) / 1e6;
    ledger.attempt();
    if (!problems.empty()) {
        std::string all;
        for (const std::string &s : problems)
            all += (all.empty() ? "" : "; ") + s;
        ledger.fail(c.origin + " on " + hostName(host) + ": " + all);
    } else if (c.guardFree) {
        v.sample.guestInsns = c.guestInsnsPerSchedule * stress.runs();
    }
    return v;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "suite_run", "serve_sessions", "litmus_oracle", "cold_validated"};
    return names;
}

int
runWorkload(const Options &o, std::ostream &os)
{
    if (o.workload == "suite_run")
        return runEngineWorkload(o, os, false);
    if (o.workload == "cold_validated")
        return runEngineWorkload(o, os, true);
    if (o.workload == "serve_sessions")
        return runServeWorkload(o, os);
    if (o.workload == "litmus_oracle")
        return runLitmusWorkload(o, os);
    throw std::invalid_argument("unknown workload '" + o.workload + "'");
}

} // namespace dbtbench
