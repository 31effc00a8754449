/**
 * @file
 * The benchmark's own tests: seeded inputs are reproducible, the
 * percentile helper is right on known samples, a planted wrong oracle is
 * counted as a failure without aborting the run, and the simulated
 * metrics repeat exactly.
 *
 *   dbtbench_selftest DATA_DIR     (DATA_DIR holds litmus/ *.litmus)
 *
 * Exits 0 when every check passes.
 */

#include <cmath>
#include <iostream>
#include <sstream>
#include <string>

#include "litmus/library.hh"
#include "litmus/parser.hh"
#include "workloads.hh"

using namespace dbtbench;

namespace
{

int failures = 0;

void
check(bool ok, const std::string &what)
{
    std::cout << (ok ? "  ok   " : "  FAIL ") << what << "\n";
    if (!ok)
        ++failures;
}

bool
near(double a, double b)
{
    return std::fabs(a - b) < 1e-9;
}

bool
sameImage(const risotto::gx86::GuestImage &a,
          const risotto::gx86::GuestImage &b)
{
    return a.text == b.text && a.data == b.data && a.entry == b.entry &&
           a.textBase == b.textBase && a.dataBase == b.dataBase;
}

std::string
litmusText(const std::vector<LitmusCase> &cases)
{
    std::string out;
    for (const LitmusCase &c : cases)
        out += risotto::litmus::formatLitmus({c.program, {}, true});
    return out;
}

void
testSeededInputs(const std::string &data_dir)
{
    risotto::Rng a(7), b(7), c(8);
    const auto ia = generateColdProgram(a);
    const auto ib = generateColdProgram(b);
    const auto ic = generateColdProgram(c);
    check(sameImage(ia, ib), "same seed gives a byte-identical guest image");
    check(!sameImage(ia, ic), "another seed gives another guest image");

    const auto la = litmusCases(7, 16, data_dir);
    const auto lb = litmusCases(7, 16, data_dir);
    const auto lc = litmusCases(8, 16, data_dir);
    check(litmusText(la) == litmusText(lb),
          "same seed gives identical litmus programs");
    check(litmusText(la) != litmusText(lc),
          "another seed gives other litmus programs");
}

void
testPercentile()
{
    std::vector<double> v;
    for (int i = 10; i >= 1; --i)
        v.push_back(i);
    check(near(percentile(v, 50), 5.5), "p50 of 1..10 is 5.5");
    check(near(percentile(v, 90), 9.1), "p90 of 1..10 is 9.1");
    check(near(percentile(v, 0), 1) && near(percentile(v, 100), 10),
          "p0 / p100 are the extremes");
    check(countAbove(v, 90) == 1, "one sample of 1..10 lies beyond p90");
    check(near(percentile({7}, 90), 7), "a single sample is every percentile");
    check(percentile({}, 50) == 0.0, "an empty sample gives 0");
    check(near(percentile({1, 2, 3, 4}, 25), 1.75),
          "p25 of 1..4 interpolates to 1.75");
}

void
testPlantedFailure(const std::string &data_dir, const std::string &workload)
{
    Options o;
    o.workload = workload;
    o.seed = 3;
    o.seconds = 1;
    o.setupReps = 1;
    o.dataDir = data_dir;
    o.plantWrongOracle = true;
    std::ostringstream out;
    const int rc = runWorkload(o, out);
    const std::string text = out.str();
    const std::string last = text.substr(text.rfind('{', text.rfind("\"metrics\"")));
    check(rc == 0, workload + ": planted wrong oracle does not abort");
    check(last.find("\"correct\": false") != std::string::npos &&
              last.find("\"failed\": 0,") == std::string::npos,
          workload + ": planted wrong oracle is counted as failed");
}

void
testSimRepeats(const std::string &data_dir)
{
    Ledger ledger;
    std::vector<GuestCase> cold = coldCases(11, 1);
    std::vector<GuestCase> suite = namedCases({"canneal"}, 4);
    for (std::size_t host = 0; host < 2; ++host) {
        const Sample a = engineOp(cold[0], host, true, ledger);
        const Sample b = engineOp(cold[0], host, true, ledger);
        check(a.makespan != 0 && a.makespan == b.makespan &&
                  a.guestInsns == b.guestInsns,
              "cold program makespan repeats exactly");
        const Sample c = engineOp(suite[0], host, false, ledger);
        const Sample d = engineOp(suite[0], host, false, ledger);
        check(c.makespan != 0 && c.makespan == d.makespan,
              "suite proxy makespan repeats exactly");
    }
    const std::vector<LitmusCase> programs = litmusCorpusCases(data_dir);
    std::uint64_t observed[2] = {0, 0}, allowed[2] = {0, 0};
    for (int rep = 0; rep < 2; ++rep)
        for (std::size_t i = 0; i < programs.size(); ++i)
            for (std::size_t host = 0; host < 2; ++host) {
                const Verdict v =
                    verdictOp(programs[i], host, 1 + i, ledger);
                observed[rep] += v.weakObserved;
                allowed[rep] += v.weakAllowed;
            }
    check(allowed[0] > 0 && observed[0] == observed[1] &&
              allowed[0] == allowed[1],
          "weak coverage repeats exactly");
    check(ledger.failed() == 0, "no operation failed in the repeat runs");
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string data_dir = argc > 1 ? argv[1] : "data";
    try {
        testPercentile();
        testSeededInputs(data_dir);
        testSimRepeats(data_dir);
        testPlantedFailure(data_dir, "cold_validated");
        testPlantedFailure(data_dir, "litmus_oracle");
    } catch (const std::exception &e) {
        std::cout << "  FAIL threw: " << e.what() << "\n";
        ++failures;
    }
    std::cout << (failures ? "selftest: FAILED\n" : "selftest: ok\n");
    return failures ? 1 : 0;
}
