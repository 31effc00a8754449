/**
 * @file
 * Seeded inputs of the benchmark and their reference results.
 *
 * Everything the program under test sees is built here from the
 * benchmark seed: guest images (the PARSEC/Phoenix proxies and generated
 * cold-start programs) and litmus programs. Reference results come from
 * independent oracles -- gx86::Interpreter, run once per guest thread
 * (every guest here gives each thread disjoint data, so per-thread runs
 * are exact), and the axiomatic models for litmus verdicts.
 */

#ifndef DBTBENCH_INPUTS_HH
#define DBTBENCH_INPUTS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "gx86/image.hh"
#include "litmus/program.hh"
#include "support/rng.hh"

namespace dbtbench
{

/** A guest image with the results every thread must produce. */
struct GuestCase
{
    std::string name;
    risotto::gx86::GuestImage image;
    std::size_t threads = 1;

    /** Per-thread exit codes and outputs from the reference interpreter. */
    std::vector<std::int64_t> exitCodes;
    std::vector<std::string> outputs;

    /** Guest instructions one run retires (sum over threads), counted by
     * the reference interpreter. */
    std::uint64_t guestInsns = 0;
};

/** Run the reference interpreter once per thread (thread id in r0) and
 * fill the expected results and the retired-instruction count. */
void computeOracle(GuestCase &c);

/** Why a run's results differ from @p c's oracle; empty when they
 * match. */
std::string oracleMismatch(const GuestCase &c, bool finished,
                           const std::vector<std::int64_t> &exit_codes,
                           const std::vector<std::string> &outputs);

/** All 16 PARSEC/Phoenix proxies at default iterations. */
std::vector<GuestCase> suiteCases(std::size_t threads);

/** The named proxies (serving workload). */
std::vector<GuestCase> namedCases(const std::vector<std::string> &names,
                                  std::size_t threads);

/**
 * One seeded single-thread guest program: 200 basic blocks of 4-34
 * instructions mixing loads, stores, LOCK RMWs, MFENCE, integer ALU and FP ops, each
 * ending in a data-dependent conditional branch over a short pad block.
 * One block in 16 carries a 20-40 trip counted loop, so hot blocks
 * still reach the tier-2 threshold. Prints four checksum characters and
 * exits with the full checksum.
 */
risotto::gx86::GuestImage generateColdProgram(risotto::Rng &rng);

/** @p count generated programs (with oracles) from @p seed. */
std::vector<GuestCase> coldCases(std::uint64_t seed, std::size_t count);

/** A litmus program the stress runner accepts. */
struct LitmusCase
{
    std::string origin; ///< "corpus:<name>", "file:<name>", "random:<n>".
    risotto::litmus::Program program;

    /** No control guards: every thread retires a fixed instruction
     * count whatever the interleaving, so guestInsnsPerSchedule is
     * exact. */
    bool guardFree = false;
    std::uint64_t guestInsnsPerSchedule = 0;
};

/**
 * The x86 litmus corpus (litmus::x86Corpus plus every .litmus file in
 * @p data_dir/litmus, sorted by name), then
 * @p random_count seeded litmus::randomProgram draws. Programs the
 * stress runner cannot compile are left out.
 */
std::vector<LitmusCase> litmusCases(std::uint64_t seed,
                                    std::size_t random_count,
                                    const std::string &data_dir);

/** A litmus program's stress image as a guest case, with its
 * per-thread oracle. */
GuestCase stressGuestCase(const LitmusCase &c);

/** The corpus part only (no random draws). */
std::vector<LitmusCase> litmusCorpusCases(const std::string &data_dir);

} // namespace dbtbench

#endif // DBTBENCH_INPUTS_HH
