/**
 * @file
 * The traced layer replay: per-layer numbers for one workload.
 *
 * The replay calls each module's public functions on the workload's own
 * inputs, one layer at a time, with a span around every call. That is
 * how the split inside Dbt::run is obtained without touching the
 * program: the frontend, optimizer, backend and validator legs are
 * replayed outside the engine the way risotto-verify checks blocks, and
 * Dbt::run itself is timed on an engine whose reachable blocks are
 * already translated. Layers the workload never reaches natively
 * (litmus enumeration on a guest-program workload, say) are replayed on
 * the built-in litmus corpus so every layer has a number on every
 * workload.
 */

#ifndef DBTBENCH_LAYERS_HH
#define DBTBENCH_LAYERS_HH

#include <vector>

#include "harness.hh"
#include "inputs.hh"

namespace dbtbench
{

/**
 * Replay every layer over @p cases (guest programs with oracles) and
 * @p programs (litmus programs). Oracle mismatches go to @p ledger.
 * Returns the per-layer metrics with their units and bases, except
 * trace.overhead_ratio, which the timed loop measures.
 */
std::vector<Metric> layerReplay(const Options &options,
                                const std::vector<const GuestCase *> &cases,
                                const std::vector<const LitmusCase *> &programs,
                                Ledger &ledger);

} // namespace dbtbench

#endif // DBTBENCH_LAYERS_HH
