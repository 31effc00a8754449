/**
 * @file
 * dbtbench: one workload of the end-to-end DBT benchmark per invocation.
 *
 *   dbtbench --workload NAME --seed N --seconds S --trace 0|1
 *            [--work-dir DIR] [--data-dir DIR]
 *
 * Exit codes: 0 after printing a result (failed operations are counted
 * in it, never fatal), 1 when the run could not be set up, 2 on bad
 * arguments.
 */

#include <cstdlib>
#include <iostream>
#include <string>

#include "workloads.hh"

namespace
{

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "dbtbench: " << why
              << "\nusage: dbtbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--work-dir DIR] [--data-dir DIR]\n";
    std::exit(2);
}

std::uint64_t
parseCount(const std::string &flag, const std::string &text)
{
    std::size_t used = 0;
    unsigned long long v = 0;
    try {
        v = std::stoull(text, &used);
    } catch (const std::exception &) {
        used = 0;
    }
    if (used != text.size() || text.empty() || text[0] == '-')
        usage("bad value for " + flag + ": '" + text + "'");
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    dbtbench::Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        if (flag == "--workload")
            o.workload = value;
        else if (flag == "--seed")
            o.seed = parseCount(flag, value);
        else if (flag == "--seconds")
            o.seconds = static_cast<double>(parseCount(flag, value));
        else if (flag == "--trace")
            o.trace = parseCount(flag, value) != 0;
        else if (flag == "--work-dir")
            o.workDir = value;
        else if (flag == "--data-dir")
            o.dataDir = value;
        else
            usage("unknown flag " + flag);
    }
    bool known = false;
    for (const std::string &name : dbtbench::workloadNames())
        known = known || name == o.workload;
    if (!known)
        usage("unknown workload '" + o.workload + "'");
    if (o.seconds < 1)
        usage("--seconds must be at least 1");

    try {
        return dbtbench::runWorkload(o, std::cout);
    } catch (const std::exception &e) {
        std::cerr << "dbtbench: " << o.workload << ": " << e.what() << "\n";
        return 1;
    }
}
