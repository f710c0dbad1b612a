/**
 * @file
 * ExperimentResult -> ResultWriter record mapping.
 *
 * One flat record per run: the config dimensions that identify the
 * point (app, load, policies, cores, seed, ...) followed by every
 * scalar metric of the result. All harness/bench JSON and CSV output
 * goes through this one mapping so field names stay consistent across
 * the CLI, the benches and the test suite. Durations are integer
 * nanoseconds. Traces and CDFs are not serialised.
 */

#ifndef NMAPSIM_HARNESS_RESULT_IO_HH_
#define NMAPSIM_HARNESS_RESULT_IO_HH_

#include <string>

#include "harness/experiment.hh"
#include "stats/result_writer.hh"

namespace nmapsim {

/**
 * Append the five `bypass_*` columns of @p counters to @p rec, each
 * name prefixed with @p prefix ("" in single-host records, "host<i>_"
 * in cluster records). A server that did not run the bypass dataplane
 * gets no columns, so NAPI records keep their pre-dataplane shape.
 */
void appendBypassColumns(ResultWriter::Record &rec,
                         const std::string &prefix,
                         const ServerCounters &counters);

/** Append one record for (config, result) to @p writer. */
ResultWriter::Record &appendResultRecord(ResultWriter &writer,
                                         const ExperimentConfig &config,
                                         const ExperimentResult &result);

} // namespace nmapsim

#endif // NMAPSIM_HARNESS_RESULT_IO_HH_
