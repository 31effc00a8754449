#include "inputs.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "gx86/assembler.hh"
#include "gx86/interp.hh"
#include "litmus/library.hh"
#include "litmus/parser.hh"
#include "litmus/random.hh"
#include "risotto/stress.hh"
#include "support/error.hh"
#include "workloads/workloads.hh"

namespace dbtbench
{

using namespace risotto;
using gx86::Assembler;
using gx86::Cond;
using gx86::Reg;

void
computeOracle(GuestCase &c)
{
    c.exitCodes.clear();
    c.outputs.clear();
    c.guestInsns = 0;
    for (std::size_t t = 0; t < c.threads; ++t) {
        gx86::Interpreter interp(c.image);
        interp.setReg(0, t);
        const gx86::InterpResult r = interp.run();
        c.exitCodes.push_back(r.exitCode);
        c.outputs.push_back(r.output);
        c.guestInsns += r.instructions;
    }
}

std::string
oracleMismatch(const GuestCase &c, bool finished,
               const std::vector<std::int64_t> &exit_codes,
               const std::vector<std::string> &outputs)
{
    if (!finished)
        return "did not finish";
    for (std::size_t t = 0; t < c.threads; ++t) {
        if (t >= exit_codes.size() || exit_codes[t] != c.exitCodes[t])
            return "thread " + std::to_string(t) + " exit code " +
                   (t < exit_codes.size() ? std::to_string(exit_codes[t])
                                          : std::string("missing")) +
                   ", expected " + std::to_string(c.exitCodes[t]);
        if (t >= outputs.size() || outputs[t] != c.outputs[t])
            return "thread " + std::to_string(t) + " output differs";
    }
    return {};
}

namespace
{

GuestCase
proxyCase(const workloads::WorkloadSpec &spec, std::size_t threads)
{
    GuestCase c;
    c.name = spec.name;
    c.image = workloads::buildGuestWorkload(spec);
    c.threads = threads;
    computeOracle(c);
    return c;
}

} // namespace

std::vector<GuestCase>
suiteCases(std::size_t threads)
{
    std::vector<GuestCase> out;
    for (const workloads::WorkloadSpec &spec : workloads::fullSuite())
        out.push_back(proxyCase(spec, threads));
    return out;
}

std::vector<GuestCase>
namedCases(const std::vector<std::string> &names, std::size_t threads)
{
    std::vector<GuestCase> out;
    for (const std::string &name : names)
        out.push_back(proxyCase(workloads::workloadByName(name), threads));
    return out;
}

// --- Generated cold-start programs ----------------------------------------

namespace
{

// Register plan: r0 cmpxchg expected value / syscall number, r1 syscall
// argument, r4..r7 integer scratch, r8 FP factor, r9 FP addend, r10 FP
// accumulator, r11 scratch, r12 checksum, r13 data base, r14 loop
// counter. Rsp is never touched.
constexpr Reg Checksum = 12;
constexpr Reg DataBase = 13;
constexpr Reg LoopCounter = 14;
constexpr std::size_t DataBytes = 4096;

constexpr std::size_t Blocks = 200;
constexpr std::size_t MinBlockInsns = 4;
constexpr std::size_t MaxBlockInsns = 34;
constexpr std::size_t LoopEvery = 16;
constexpr std::size_t MinLoopTrips = 20;
constexpr std::size_t MaxLoopTrips = 40;

class ColdGenerator
{
  public:
    explicit ColdGenerator(Rng &rng) : rng_(rng) {}

    gx86::GuestImage build()
    {
        const gx86::Addr data = a_.dataReserve(DataBytes, 64);
        a_.defineSymbol("main");
        a_.movri(DataBase, static_cast<std::int64_t>(data));
        a_.movri(Checksum, 0x1234567);
        for (Reg r = 4; r <= 7; ++r)
            a_.movri(r, static_cast<std::int64_t>(rng_.below(1 << 16)));
        a_.movfd(8, 0.999997);
        a_.movfd(9, 0.001);
        a_.movfd(10, 1.0);

        std::vector<Assembler::Label> heads(Blocks + 1);
        for (auto &l : heads)
            l = a_.newLabel();
        for (std::size_t b = 0; b < Blocks; ++b) {
            a_.bind(heads[b]);
            if (b % LoopEvery == LoopEvery / 2)
                loop();
            body(MinBlockInsns +
                 rng_.below(MaxBlockInsns - MinBlockInsns + 1));
            // Data-dependent forward branch over a short pad block. Every
            // main block runs whatever the data, so generated programs do
            // comparable work; forward-only edges guarantee termination.
            a_.cmpri(scratch(), static_cast<std::int32_t>(rng_.below(1 << 15)));
            a_.jcc(static_cast<Cond>(rng_.below(6)), heads[b + 1]);
            body(2 + rng_.below(3));
        }
        a_.bind(heads[Blocks]);
        epilogue();
        return a_.finish("main");
    }

  private:
    Reg scratch() { return static_cast<Reg>(4 + rng_.below(4)); }

    std::int32_t offset()
    {
        return static_cast<std::int32_t>(8 * rng_.below(DataBytes / 8));
    }

    void loop()
    {
        const auto head = a_.newLabel();
        a_.movri(LoopCounter,
                 static_cast<std::int64_t>(
                     MinLoopTrips +
                     rng_.below(MaxLoopTrips - MinLoopTrips + 1)));
        a_.bind(head);
        body(2 + rng_.below(6));
        a_.subi(LoopCounter, 1);
        a_.cmpri(LoopCounter, 0);
        a_.jcc(Cond::Gt, head);
    }

    void body(std::size_t count)
    {
        for (std::size_t i = 0; i < count; ++i) {
            const std::uint64_t pick = rng_.below(100);
            if (pick < 18) {
                const Reg r = scratch();
                a_.load(r, DataBase, offset());
                a_.add(Checksum, r);
            } else if (pick < 30) {
                a_.store(DataBase, offset(), scratch());
            } else if (pick < 36) {
                a_.storei(DataBase, offset(),
                          static_cast<std::int32_t>(rng_.below(1 << 20)));
            } else if (pick < 40) {
                a_.load8(scratch(), DataBase, offset());
            } else if (pick < 43) {
                a_.store8(DataBase, offset(), scratch());
            } else if (pick < 47) {
                a_.lockXadd(DataBase, offset(), scratch());
            } else if (pick < 50) {
                a_.lockCmpxchg(DataBase, offset(), scratch());
            } else if (pick < 54) {
                a_.mfence();
            } else if (pick < 62) {
                switch (rng_.below(5)) {
                  case 0: a_.fmul(10, 8); break;
                  case 1: a_.fadd(10, 9); break;
                  case 2: a_.fsub(10, 9); break;
                  case 3: a_.fdiv(10, 8); break;
                  default: a_.fadd(10, 9); break;
                }
            } else {
                const Reg rd = scratch();
                switch (rng_.below(9)) {
                  case 0: a_.addi(rd, static_cast<std::int32_t>(rng_.below(256))); break;
                  case 1: a_.xori(rd, static_cast<std::int32_t>(rng_.below(1 << 12))); break;
                  case 2: a_.shli(rd, static_cast<std::uint8_t>(1 + rng_.below(3))); break;
                  case 3: a_.shri(rd, static_cast<std::uint8_t>(1 + rng_.below(5))); break;
                  case 4: a_.muli(rd, static_cast<std::int32_t>(3 + rng_.below(5))); break;
                  case 5: a_.add(rd, scratch()); break;
                  case 6: a_.sub(rd, scratch()); break;
                  case 7: a_.xor_(rd, scratch()); break;
                  default: a_.add(Checksum, rd); break;
                }
            }
        }
    }

    /** Fold memory and FP state into the checksum, print four checksum
     * characters, and exit with the checksum. */
    void epilogue()
    {
        for (std::int32_t k = 0; k < 8; ++k) {
            a_.load(4, DataBase, k * 512);
            a_.add(Checksum, 4);
        }
        a_.movfd(9, 1e6);
        a_.fmul(10, 9);
        a_.cvtfi(11, 10);
        a_.add(Checksum, 11);
        for (std::uint8_t k = 0; k < 4; ++k) {
            a_.movrr(1, Checksum);
            a_.shri(1, static_cast<std::uint8_t>(6 * k));
            a_.andi(1, 0x3f);
            a_.addi(1, 0x30);
            a_.movri(0, 1);
            a_.syscall();
        }
        a_.movrr(1, Checksum);
        a_.movri(0, 0);
        a_.syscall();
    }

    Rng &rng_;
    Assembler a_;
};

} // namespace

gx86::GuestImage
generateColdProgram(Rng &rng)
{
    return ColdGenerator(rng).build();
}

std::vector<GuestCase>
coldCases(std::uint64_t seed, std::size_t count)
{
    std::vector<GuestCase> out;
    for (std::size_t i = 0; i < count; ++i) {
        Rng rng(deriveStream(seed, i));
        GuestCase c;
        c.name = "cold#" + std::to_string(i);
        c.image = generateColdProgram(rng);
        c.threads = 1;
        computeOracle(c);
        out.push_back(std::move(c));
    }
    return out;
}

// --- Litmus programs ------------------------------------------------------

namespace
{

/** Fill the stress-related fields; false when the stress runner cannot
 * compile @p c.program. */
bool
prepareLitmus(LitmusCase &c)
{
    gx86::GuestImage image;
    try {
        image = buildStressImage(c.program);
    } catch (const Error &) {
        return false;
    }
    c.guardFree = true;
    for (const auto &thread : c.program.threads)
        for (const auto &instr : thread.instrs)
            if (instr.guardReg != litmus::NoReg)
                c.guardFree = false;
    c.guestInsnsPerSchedule = 0;
    if (c.guardFree) {
        for (std::size_t t = 0; t < c.program.threads.size(); ++t) {
            gx86::Interpreter interp(image);
            interp.setReg(0, t);
            c.guestInsnsPerSchedule += interp.run().instructions;
        }
    }
    return true;
}

/**
 * Random programs with more writes (stores or RMWs) to one location are
 * redrawn: coherence orders grow factorially with them, and one program
 * with six writes to a location took 44 s to enumerate under RVWMO --
 * a single such draw would dominate a whole run.
 */
constexpr std::size_t MaxWritesPerLocation = 3;

std::size_t
maxWritesPerLocation(const litmus::Program &p)
{
    std::map<litmus::Loc, std::size_t> writes;
    std::size_t most = 0;
    for (const auto &thread : p.threads)
        for (const auto &instr : thread.instrs)
            if (instr.kind == litmus::Instr::Kind::Store ||
                instr.kind == litmus::Instr::Kind::Rmw)
                most = std::max(most, ++writes[instr.loc]);
    return most;
}

void
addCase(std::vector<LitmusCase> &out, std::string origin,
        litmus::Program program)
{
    LitmusCase c;
    c.origin = std::move(origin);
    c.program = std::move(program);
    if (prepareLitmus(c))
        out.push_back(std::move(c));
}

} // namespace

GuestCase
stressGuestCase(const LitmusCase &c)
{
    GuestCase g;
    g.name = c.origin;
    g.image = buildStressImage(c.program);
    g.threads = c.program.threads.size();
    computeOracle(g);
    return g;
}

std::vector<LitmusCase>
litmusCorpusCases(const std::string &data_dir)
{
    std::vector<LitmusCase> out;
    for (const litmus::LitmusTest &test : litmus::x86Corpus())
        addCase(out, "corpus:" + test.program.name, test.program);

    std::vector<std::filesystem::path> files;
    const std::filesystem::path dir = std::filesystem::path(data_dir) / "litmus";
    std::error_code ec;
    for (const auto &entry : std::filesystem::directory_iterator(dir, ec))
        if (entry.path().extension() == ".litmus")
            files.push_back(entry.path());
    if (ec || files.empty())
        throw std::runtime_error("no litmus files under " + dir.string());
    std::sort(files.begin(), files.end());
    for (const auto &path : files) {
        std::ifstream in(path);
        std::stringstream text;
        text << in.rdbuf();
        addCase(out, "file:" + path.filename().string(),
                litmus::parseLitmus(text.str()).program);
    }
    return out;
}

std::vector<LitmusCase>
litmusCases(std::uint64_t seed, std::size_t random_count,
            const std::string &data_dir)
{
    std::vector<LitmusCase> out = litmusCorpusCases(data_dir);
    Rng rng(deriveStream(seed, 0x117));
    litmus::RandomProgramOptions opts;
    opts.x86Flavor = true;
    const std::size_t want = out.size() + random_count;
    for (std::size_t drawn = 0; out.size() < want && drawn < 8 * want;
         ++drawn) {
        litmus::Program p = litmus::randomProgram(rng, opts);
        if (maxWritesPerLocation(p) > MaxWritesPerLocation)
            continue;
        p.name = "random" + std::to_string(drawn);
        addCase(out, "random:" + std::to_string(drawn), std::move(p));
    }
    return out;
}

} // namespace dbtbench
