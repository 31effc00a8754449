#include "layers.hh"

#include <algorithm>
#include <map>
#include <memory>
#include <string>

#include "dbt/backend.hh"
#include "dbt/dbt.hh"
#include "dbt/frontend.hh"
#include "gx86/decoded.hh"
#include "gx86/interp.hh"
#include "gx86/memory.hh"
#include "persist/snapshot.hh"
#include "risotto/stress.hh"
#include "serve/artifact.hh"
#include "serve/session.hh"
#include "support/error.hh"
#include "tcg/optimizer.hh"
#include "verify/verifier.hh"
#include "workloads.hh"

namespace dbtbench
{

using namespace risotto;

namespace
{

/** Slot allocator for compiling outside an engine: numbers exits. */
struct DummySlots : dbt::ExitSlotAllocator
{
    std::uint32_t next = 1;
    std::uint32_t staticSlot(std::uint64_t, std::uint64_t, aarch::CodeAddr,
                             bool) override
    {
        return next++;
    }
    std::uint32_t dynamicSlot() override { return 0; }
};

/** Keeps replayed loads observable so they cannot be optimized away. */
volatile std::uint64_t sink = 0;

/** Loads per case in the load64 probes (repeats the address set). */
constexpr std::size_t LoadsPerCase = 1 << 17;

/** Sessions per case in the serving probe. */
constexpr std::uint64_t SessionsPerCase = 2;

using Counts = std::map<std::string, double>;

void
memoryLayer(const GuestCase &c, Counts &n)
{
    std::shared_ptr<gx86::Memory> flat;
    {
        ScopedSpan s("gx86.memory.setup");
        flat = std::make_shared<gx86::Memory>();
        flat->loadImage(c.image);
    }
    const std::shared_ptr<const gx86::Memory> base = flat;
    for (int k = 0; k < 8; ++k) {
        ScopedSpan s("gx86.memory.fork");
        const gx86::Memory f = gx86::Memory::fork(base);
        sink = sink + f.size();
    }
    n["memory.forks"] += 8;

    // Every word of the image's text and data: the pages a run touches
    // besides its stack.
    std::vector<gx86::Addr> addrs;
    for (gx86::Addr a = c.image.textBase & ~gx86::Addr{7};
         a + 8 <= c.image.textEnd(); a += 8)
        addrs.push_back(a);
    for (gx86::Addr a = c.image.dataBase;
         a + 8 <= c.image.dataBase + c.image.data.size(); a += 8)
        addrs.push_back(a);
    if (addrs.empty())
        return;
    const std::size_t reps = std::max<std::size_t>(1, LoadsPerCase / addrs.size());
    const gx86::Memory fork = gx86::Memory::fork(base);
    std::uint64_t acc = 0;
    {
        ScopedSpan s("gx86.memory.flat_load64");
        for (std::size_t r = 0; r < reps; ++r)
            for (const gx86::Addr a : addrs)
                acc += base->load64(a);
    }
    {
        ScopedSpan s("gx86.memory.fork_load64");
        for (std::size_t r = 0; r < reps; ++r)
            for (const gx86::Addr a : addrs)
                acc += fork.load64(a);
    }
    n["memory.loads"] += static_cast<double>(reps * addrs.size());
    sink = sink + acc;
}

void
interpLayer(const GuestCase &c,
            const std::shared_ptr<const gx86::DecodedSegment> &segment,
            Counts &n, Ledger &ledger)
{
    std::vector<std::int64_t> codes;
    std::vector<std::string> outputs;
    for (std::size_t t = 0; t < c.threads; ++t) {
        gx86::Interpreter interp(c.image, segment);
        interp.setReg(0, t);
        gx86::InterpResult r;
        {
            ScopedSpan s("gx86.interp.run");
            r = interp.run();
        }
        n["interp.insns"] += static_cast<double>(r.instructions);
        codes.push_back(r.exitCode);
        outputs.push_back(r.output);
    }
    ledger.attempt();
    if (const std::string why = oracleMismatch(c, true, codes, outputs);
        !why.empty())
        ledger.fail("replay interp " + c.name + ": " + why);
}

/** Engine construction, translation of every reachable block, a run of
 * the pre-translated engine, and the persist round trip. */
void
engineLayer(const GuestCase &c, std::size_t host, Counts &n, Ledger &ledger)
{
    const dbt::DbtConfig cfg = hostConfig(host);
    const std::string h = hostName(host);
    std::unique_ptr<dbt::Dbt> engine;
    {
        ScopedSpan s("dbt.engine.ctor");
        engine = std::make_unique<dbt::Dbt>(c.image, cfg);
    }
    const std::vector<gx86::Addr> blocks =
        dbt::reachableBlocks(c.image, cfg, engine->segment().get());
    {
        ScopedSpan s("dbt.translate");
        for (const gx86::Addr pc : blocks)
            engine->lookupOrTranslate(pc);
    }
    n["translate.tbs"] += static_cast<double>(blocks.size());

    std::vector<dbt::ThreadSpec> threads(c.threads);
    for (std::size_t t = 0; t < c.threads; ++t)
        threads[t].regs[0] = t;
    dbt::RunResult r;
    {
        ScopedSpan s(host == 0 ? "dbt.run.aarch" : "dbt.run.rv64");
        r = engine->run(threads);
    }
    ledger.attempt();
    if (const std::string why =
            oracleMismatch(c, r.finished, r.exitCodes, r.outputs);
        !why.empty())
        ledger.fail("replay run " + c.name + " on " + h + ": " + why);

    const StatSet &st = r.stats;
    n["runs." + h] += 1;
    n["machine.insns." + h] += static_cast<double>(st.get("machine.instructions"));
    n["guest.insns." + h] += static_cast<double>(c.guestInsns);
    n["machine.insns"] += static_cast<double>(st.get("machine.instructions"));
    n["machine.fences"] += static_cast<double>(
        st.get("machine.dmb_full") + st.get("machine.dmb_ld") +
        st.get("machine.dmb_st"));
    n["machine.helper_calls"] += static_cast<double>(st.get("machine.helper_calls"));
    n["machine.tb_exits"] += static_cast<double>(st.get("machine.tb_exits"));
    n["jc.hits"] += static_cast<double>(st.get("dbt.jump_cache_hits"));
    n["jc.misses"] += static_cast<double>(st.get("dbt.jump_cache_misses"));
    n["tier2.superblocks"] += static_cast<double>(st.get("dbt.tier2_superblocks"));
    n["tier2.attempts"] += static_cast<double>(st.get("dbt.tier2_attempts"));
    n["fallback_blocks"] += static_cast<double>(r.fallbackBlocks);
    n["arena.reuses"] += static_cast<double>(st.get("dbt.arena_reuses"));
    n["arena.mints"] += static_cast<double>(st.get("dbt.arena_mints"));
    n["sim.cycles"] += static_cast<double>(r.makespan);
    n["sim.guest_insns"] += static_cast<double>(c.guestInsns);

    const persist::Snapshot snapshot = engine->exportSnapshot();
    std::vector<std::uint8_t> bytes;
    {
        ScopedSpan s("persist.serialize");
        bytes = persist::serialize(snapshot);
    }
    persist::ParseReport report;
    persist::Snapshot parsed;
    {
        ScopedSpan s("persist.parse");
        parsed = persist::parse(bytes, report);
    }
    n["persist.records"] += static_cast<double>(snapshot.records.size());
    n["persist.bytes"] += static_cast<double>(bytes.size());
    dbt::Dbt fresh(c.image, cfg);
    {
        ScopedSpan s("persist.import");
        fresh.importSnapshot(parsed);
    }
    n["persist.imported"] += static_cast<double>(parsed.records.size());
}

/** Frontend, optimizer, both backends and the validator, replayed per
 * reachable block outside the engine (as risotto-verify checks). */
void
pipelineLayer(const GuestCase &c,
              const std::shared_ptr<const gx86::DecodedSegment> &segment,
              Counts &n)
{
    const dbt::DbtConfig cfg = hostConfig(0);
    dbt::Frontend frontend(c.image, cfg, nullptr);
    frontend.setSegment(segment.get());
    const std::vector<gx86::Addr> blocks =
        dbt::reachableBlocks(c.image, cfg, segment.get());
    const dbt::DbtConfig host_cfgs[] = {hostConfig(0), hostConfig(1)};
    for (const gx86::Addr pc : blocks) {
        tcg::Block block;
        {
            ScopedSpan s("dbt.frontend");
            block = frontend.translate(pc);
        }
        n["frontend.tbs"] += 1;
        n["ir.pre"] += static_cast<double>(block.instrs.size());
        StatSet opt;
        {
            ScopedSpan s("tcg.optimize");
            tcg::optimize(block, cfg.optimizer, &opt);
        }
        n["ir.post"] += static_cast<double>(block.instrs.size());
        n["opt.fences_merged"] += static_cast<double>(opt.get("opt.fences_merged"));
        const std::vector<gx86::Instruction> guest = frontend.decodeBlock(pc);
        for (std::size_t host = 0; host < 2; ++host) {
            aarch::CodeBuffer buffer;
            DummySlots slots;
            dbt::Backend backend(buffer, host_cfgs[host]);
            aarch::CodeAddr entry = 0;
            {
                ScopedSpan s(host == 0 ? "dbt.backend.aarch"
                                       : "dbt.backend.rv64");
                entry = backend.compile(block, slots);
            }
            n["host.words." + hostName(host)] +=
                static_cast<double>(buffer.end() - entry);
            verify::ValidatorOptions vo;
            vo.rmw = host_cfgs[host].rmw;
            const verify::TbValidator validator(vo);
            verify::ValidationReport report;
            {
                ScopedSpan s("verify.validate");
                const verify::HostCode code = verify::decodeHostRange(
                    host_cfgs[host].host, buffer, entry, buffer.end());
                report = validator.validate(guest, block, code, pc, false);
            }
            n["verify.tbs"] += 1;
            n["verify.pairs"] += static_cast<double>(report.pairsChecked);
            n["verify.violations"] +=
                static_cast<double>(report.violations.size());
        }
        frontend.recycle(std::move(block));
    }
}

/** Warm artifacts prepared as serve_sessions prepares them, on both
 * hosts, and sessions over them. */
void
serveLayer(const Options &o, const GuestCase &c, Counts &n, Ledger &ledger)
{
    for (std::size_t host = 0; host < 2; ++host) {
        const std::string where = c.name + " on " + hostName(host);
        std::shared_ptr<serve::SharedArtifact> artifact;
        try {
            artifact = warmArtifact(o, c, host);
        } catch (const std::exception &e) {
            ledger.attempt();
            ledger.fail("replay prepare " + where + ": " + e.what());
            continue;
        }
        for (std::uint64_t id = 0; id < SessionsPerCase; ++id) {
            serve::SessionOptions so;
            so.threads = c.threads;
            so.seed = o.seed;
            const serve::SessionResult r =
                serve::runSession(*artifact, id, so);
            ledger.attempt();
            const std::string why =
                r.kind != serve::FailureKind::None
                    ? "session failed: " + r.note
                    : oracleMismatch(c, r.finished, r.exitCodes, r.outputs);
            if (!why.empty())
                ledger.fail("replay session " + where + ": " + why);
            n["serve.sessions"] += 1;
            n["serve.hits"] += static_cast<double>(r.sharedHits);
            n["serve.fallback"] += static_cast<double>(r.fallbackBlocks);
            n["serve.dirty"] += static_cast<double>(r.dirtyPages);
            n["serve.retries"] +=
                static_cast<double>(r.stats.get("serve.retries"));
        }
    }
}

void
litmusLayer(const Options &o, const LitmusCase &c, std::size_t index,
            Counts &n, Ledger &ledger)
{
    {
        ScopedSpan s("risotto.stress_image");
        const gx86::GuestImage image = buildStressImage(c.program);
        sink = sink + image.text.size();
    }
    n["stress.images"] += 1;
    for (std::size_t host = 0; host < 2; ++host) {
        const Verdict v = verdictOp(
            c, host, 1 + deriveStream(o.seed, 2 * index + host) % 1000000007,
            ledger);
        n["verdicts." + hostName(host)] += 1;
        n["weak.observed"] += static_cast<double>(v.weakObserved);
        n["weak.allowed"] += static_cast<double>(v.weakAllowed);
        n["rv64.escapes"] += static_cast<double>(v.rv64Escapes.size());
        n["behaviors"] += static_cast<double>(v.x86Behaviors);
    }
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

} // namespace

std::vector<Metric>
layerReplay(const Options &o, const std::vector<const GuestCase *> &cases,
            const std::vector<const LitmusCase *> &programs, Ledger &ledger)
{
    Counts n;
    for (const GuestCase *c : cases) {
        memoryLayer(*c, n);
        std::shared_ptr<const gx86::DecodedSegment> segment;
        {
            ScopedSpan s("gx86.segment.build");
            segment = gx86::DecodedSegment::build(c->image);
        }
        interpLayer(*c, segment, n, ledger);
        for (std::size_t host = 0; host < 2; ++host)
            engineLayer(*c, host, n, ledger);
        pipelineLayer(*c, segment, n);
        serveLayer(o, *c, n, ledger);
    }
    for (std::size_t i = 0; i < programs.size(); ++i)
        litmusLayer(o, *programs[i], i, n, ledger);

    const std::map<std::string, SpanSummary> spans = Tracer::summarize();
    auto total = [&](const std::string &name) {
        const auto it = spans.find(name);
        return it == spans.end() ? 0.0 : static_cast<double>(it->second.totalNs);
    };
    auto calls = [&](const std::string &name) {
        const auto it = spans.find(name);
        return it == spans.end() ? 0.0 : static_cast<double>(it->second.count);
    };
    auto mean = [&](const std::string &name) {
        return ratio(total(name), calls(name));
    };

    std::vector<Metric> out;
    auto put = [&](const std::string &name, double value, const char *unit,
                   const char *kind, const std::string &note) {
        out.push_back({name, value, unit, kind, note});
    };
    auto per = [](double num, const std::string &what, double den,
                  const std::string &base) {
        return shortNumber(num) + " " + what + " / " + shortNumber(den) +
               " " + base;
    };

    const double setup_ns = mean("gx86.memory.setup");
    put("gx86.memory.setup_ns", setup_ns, "ns", "wall", "Memory ctor + loadImage, " + shortNumber(calls("gx86.memory.setup")) + " calls");
    put("gx86.memory.fork_ns", mean("gx86.memory.fork"), "ns", "wall", shortNumber(n["memory.forks"]) + " forks");
    put("gx86.memory.fork_load64_ns", ratio(total("gx86.memory.fork_load64"), n["memory.loads"]), "ns", "wall", shortNumber(n["memory.loads"]) + " loads on a COW fork");
    put("gx86.memory.flat_load64_ns", ratio(total("gx86.memory.flat_load64"), n["memory.loads"]), "ns", "wall", shortNumber(n["memory.loads"]) + " loads on flat memory");
    put("gx86.segment.build_ns", mean("gx86.segment.build"), "ns", "wall", shortNumber(calls("gx86.segment.build")) + " builds");
    put("gx86.interp.ns_per_insn", ratio(total("gx86.interp.run"), n["interp.insns"]), "ns", "wall", shortNumber(n["interp.insns"]) + " guest insns");

    put("dbt.engine.ctor_ns", mean("dbt.engine.ctor"), "ns", "wall", shortNumber(calls("dbt.engine.ctor")) + " engines");
    put("dbt.translate.ns_per_tb", ratio(total("dbt.translate"), n["translate.tbs"]), "ns", "wall", "lookupOrTranslate over reachableBlocks");
    put("dbt.translate.tbs", n["translate.tbs"], "count", "count", "TBs translated, both hosts");
    const double tbs = n["frontend.tbs"];
    put("dbt.frontend.ns_per_tb", ratio(total("dbt.frontend"), tbs), "ns", "wall", shortNumber(tbs) + " TBs");
    put("dbt.frontend.ir_ops_per_tb", ratio(n["ir.pre"], tbs), "ops/tb", "count", per(n["ir.pre"], "ops", tbs, "TBs"));
    put("tcg.optimize.ns_per_tb", ratio(total("tcg.optimize"), tbs), "ns", "wall", shortNumber(tbs) + " TBs");
    put("tcg.ops_kept_ratio", ratio(n["ir.post"], n["ir.pre"]), "ratio", "count", per(n["ir.post"], "post-opt", n["ir.pre"], "pre-opt ops"));
    put("tcg.fences_merged_per_tb", ratio(n["opt.fences_merged"], tbs), "fences/tb", "count", per(n["opt.fences_merged"], "merges", tbs, "TBs"));
    for (std::size_t host = 0; host < 2; ++host) {
        const std::string h = hostName(host);
        put("dbt.backend.ns_per_tb." + h, ratio(total("dbt.backend." + h), tbs), "ns", "wall", shortNumber(tbs) + " TBs");
        put("dbt.backend.host_words_per_tb." + h, ratio(n["host.words." + h], tbs), "words/tb", "count", per(n["host.words." + h], "words", tbs, "TBs"));
    }
    put("verify.validate.ns_per_tb", ratio(total("verify.validate"), n["verify.tbs"]), "ns", "wall", shortNumber(n["verify.tbs"]) + " TB translations, both hosts");
    put("verify.pairs_per_tb", ratio(n["verify.pairs"], n["verify.tbs"]), "pairs/tb", "count", per(n["verify.pairs"], "pairs", n["verify.tbs"], "TBs"));
    put("verify.violations", n["verify.violations"], "count", "count", "over " + shortNumber(n["verify.tbs"]) + " TB translations");

    const double runs = n["runs.aarch"] + n["runs.rv64"];
    put("dbt.run_ns", ratio(total("dbt.run.aarch") + total("dbt.run.rv64"), runs), "ns", "wall", shortNumber(runs) + " pre-translated runs");
    for (std::size_t host = 0; host < 2; ++host) {
        const std::string h = hostName(host);
        // On tiny guests (litmus stress images) a run is almost all
        // memory setup, so this difference is timing noise and may be
        // negative.
        const double run_ns =
            total("dbt.run." + h) - setup_ns * n["runs." + h];
        put("machine.ns_per_host_insn." + h, ratio(run_ns, n["machine.insns." + h]), "ns", "wall", "(dbt.run - memory setup) / " + shortNumber(n["machine.insns." + h]) + " host insns");
        put("machine.host_insns_per_guest_insn." + h, ratio(n["machine.insns." + h], n["guest.insns." + h]), "ratio", "count", per(n["machine.insns." + h], "host", n["guest.insns." + h], "guest insns"));
    }
    const double kinsn = n["machine.insns"] / 1000.0;
    put("machine.fences_per_kinsn", ratio(n["machine.fences"], kinsn), "count/kinsn", "count", per(n["machine.fences"], "dmb/fence", n["machine.insns"], "host insns"));
    put("machine.helper_calls_per_kinsn", ratio(n["machine.helper_calls"], kinsn), "count/kinsn", "count", per(n["machine.helper_calls"], "calls", n["machine.insns"], "host insns"));
    put("dbt.jump_cache.hit_ratio", ratio(n["jc.hits"], n["jc.hits"] + n["jc.misses"]), "ratio", "count", per(n["jc.hits"], "hits", n["jc.hits"] + n["jc.misses"], "lookups"));
    put("dbt.tb_exits_per_kinsn", ratio(n["machine.tb_exits"], kinsn), "count/kinsn", "count", per(n["machine.tb_exits"], "exits", n["machine.insns"], "host insns"));
    put("dbt.tier2.success_ratio", ratio(n["tier2.superblocks"], n["tier2.attempts"]), "ratio", "count", per(n["tier2.superblocks"], "superblocks", n["tier2.attempts"], "attempts"));
    put("dbt.fallback_blocks", n["fallback_blocks"], "count", "count", "over " + shortNumber(runs) + " runs");
    put("dbt.arena.reuse_ratio", ratio(n["arena.reuses"], n["arena.reuses"] + n["arena.mints"]), "ratio", "count", per(n["arena.reuses"], "reuses", n["arena.reuses"] + n["arena.mints"], "acquisitions"));
    put("sim_cycles_per_guest_insn", ratio(n["sim.cycles"], n["sim.guest_insns"]), "cycles", "sim", per(n["sim.cycles"], "makespan cycles", n["sim.guest_insns"], "guest insns, pre-translated runs"));

    put("persist.serialize_ns", mean("persist.serialize"), "ns", "wall", shortNumber(calls("persist.serialize")) + " snapshots");
    put("persist.parse_ns", mean("persist.parse"), "ns", "wall", shortNumber(calls("persist.parse")) + " snapshots");
    put("persist.bytes_per_record", ratio(n["persist.bytes"], n["persist.records"]), "B/record", "count", per(n["persist.bytes"], "B", n["persist.records"], "records"));
    put("persist.import_ns_per_record", ratio(total("persist.import"), n["persist.imported"]), "ns", "wall", shortNumber(n["persist.imported"]) + " records, validated");

    put("serve.prepare_ns", mean("serve.prepare"), "ns", "wall", shortNumber(calls("serve.prepare")) + " warm artifacts from .rtbc snapshots");
    put("serve.shared_hit_ratio", ratio(n["serve.hits"], n["serve.hits"] + n["serve.fallback"]), "ratio", "count", per(n["serve.hits"], "hits", n["serve.hits"] + n["serve.fallback"], "dispatches"));
    put("serve.dirty_pages_per_session", ratio(n["serve.dirty"], n["serve.sessions"]), "pages", "count", shortNumber(n["serve.sessions"]) + " sessions");
    put("serve.retries", n["serve.retries"], "count", "count", "over " + shortNumber(n["serve.sessions"]) + " sessions");

    for (const std::string model : {"x86", "sc", "arm", "rvwmo"})
        put("litmus.enumerate_ns." + model, mean("litmus.enumerate." + model), "ns", "wall", shortNumber(calls("litmus.enumerate." + model)) + " enumerations");
    const double verdicts = n["verdicts.aarch"] + n["verdicts.rv64"];
    put("litmus.behaviors_per_program", ratio(n["behaviors"], verdicts), "count", "count", "x86-allowed outcomes over " + shortNumber(verdicts) + " verdicts");
    put("mapping.map_ns", mean("mapping.map"), "ns", "wall", shortNumber(calls("mapping.map")) + " mappings");
    for (std::size_t host = 0; host < 2; ++host) {
        // Counted from the spans, which also cover the timed loop's
        // traced verdicts on litmus_oracle.
        const std::string span = "risotto.stress." + hostName(host);
        const double schedules =
            calls(span) * static_cast<double>(SchedulesPerVerdict);
        put("risotto.stress_ns_per_schedule." + hostName(host), ratio(total(span), schedules), "ns", "wall", shortNumber(schedules) + " schedules");
    }
    put("risotto.stress_image_ns", mean("risotto.stress_image"), "ns", "wall", shortNumber(n["stress.images"]) + " images");
    put("litmus.rv64_model_escapes", n["rv64.escapes"], "count", "count", "distinct outcomes over " + shortNumber(n["verdicts.rv64"]) + " rv64 verdicts");
    put("weak_coverage", ratio(n["weak.observed"], n["weak.allowed"]), "ratio", "sim", per(n["weak.observed"], "observed", n["weak.allowed"], "allowed x86-not-SC outcomes"));
    return out;
}

} // namespace dbtbench
