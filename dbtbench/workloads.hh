/**
 * @file
 * The benchmark workloads and the single operations they time.
 * BENCHMARK.json lists the first three; cold_validated runs only on
 * request (run.py --workload cold_validated), because on shared VMs its
 * run-to-run spread exceeded the bound the other three keep.
 *
 *  suite_run       all 16 PARSEC/Phoenix proxies, 4 guest threads, each
 *                  on both hosts in a fresh dbt::Dbt; serial.
 *  serve_sessions  closed loop, 4 clients calling serve::runSession back
 *                  to back over warm artifacts of 4 proxies x 2 hosts.
 *  litmus_oracle   (program, host) verdicts: axiomatic enumeration
 *                  under x86, SC and the host model of the mapped
 *                  program, randomized stress, containment checks.
 *  cold_validated  generated few-hundred-block programs, each on both
 *                  hosts in a fresh validating dbt::Dbt; serial.
 */

#ifndef DBTBENCH_WORKLOADS_HH
#define DBTBENCH_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "dbt/config.hh"
#include "harness.hh"
#include "inputs.hh"
#include "serve/artifact.hh"
#include "support/hostisa.hh"

namespace dbtbench
{

/** Hosts every workload runs on, in index order. */
constexpr risotto::support::HostIsa Hosts[] = {
    risotto::support::HostIsa::Aarch, risotto::support::HostIsa::Rv64};

/** "aarch" / "rv64". */
std::string hostName(std::size_t host);

/** The verified risotto configuration on Hosts[@p host]. */
risotto::dbt::DbtConfig hostConfig(std::size_t host);

/** One timed operation. */
struct Sample
{
    double ms = 0.0;
    std::size_t host = 0; ///< Index into Hosts.

    /** Exact guest instructions retired (0 when not exactly known). */
    std::uint64_t guestInsns = 0;

    /** Simulated makespan (0 when the operation reports none). */
    std::uint64_t makespan = 0;

    bool traced = false;
};

/**
 * One engine run: dbt::Dbt construction through Dbt::run, checked
 * against @p c's oracle (and, with @p validate, against the validator).
 * Failures go to @p ledger.
 */
Sample engineOp(const GuestCase &c, std::size_t host, bool validate,
                Ledger &ledger);

/** Everything one litmus verdict observed. */
struct Verdict
{
    Sample sample;
    /** Distinct observed outcomes in (x86 - SC), and |x86 - SC|. */
    std::uint64_t weakObserved = 0;
    std::uint64_t weakAllowed = 0;
    /** Outcomes the x86 model allows. */
    std::uint64_t x86Behaviors = 0;
    /** rv64 outcomes outside RVWMO(mapX86ToRiscv(p)), as text. */
    std::vector<std::string> rv64Escapes;
};

/** Stress schedules per litmus verdict. */
constexpr std::uint64_t SchedulesPerVerdict = 4;

/**
 * One litmus verdict for (@p c, host). With @p plant_wrong the x86
 * reference set is emptied first (a planted wrong oracle).
 */
Verdict verdictOp(const LitmusCase &c, std::size_t host,
                  std::uint64_t first_seed, Ledger &ledger,
                  bool plant_wrong = false);

/**
 * A deployment-style warm artifact of @p c on Hosts[@p host]: one
 * profiling run exported as .rtbc under @p options.workDir, then the
 * serve::SharedArtifact prepare from that snapshot (the only part inside
 * the "serve.prepare" span). Throws unless the artifact warm-starts.
 */
std::shared_ptr<risotto::serve::SharedArtifact>
warmArtifact(const Options &options, const GuestCase &c, std::size_t host);

/** The workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** Run one workload end to end and print its result; returns the
 * process exit code. */
int runWorkload(const Options &options, std::ostream &os);

} // namespace dbtbench

#endif // DBTBENCH_WORKLOADS_HH
