/**
 * @file
 * Declarative ClusterConfig <-> key=value text, and ClusterResult ->
 * ResultWriter records.
 *
 * The cluster key space extends the single-host schema
 * (harness/config_io.hh): any key the cluster layer does not claim is
 * applied to ClusterConfig::base through setConfigValue(), so every
 * experiment key (`app`, `cores`, `freq_policy`, `nmap.*`, ...) works
 * unchanged. Cluster-claimed keys:
 *
 *   hosts                       host count
 *   dispatch                    DispatchRegistry policy name
 *   cluster.client_groups       independent client machines
 *   cluster.drain               post-load drain time (duration)
 *   cluster.fabric_bandwidth    switch fabric capacity, bits/s
 *   cluster.fabric_latency      forwarding pipeline latency (duration)
 *   cluster.port_bandwidth      egress-port link rate, bits/s
 *   cluster.port_propagation    egress-port propagation (duration)
 *   cluster.port_queue          egress-port queue bound, packets
 *   cluster.health_interval     failure-detector period (duration)
 *   cluster.health_timeout      silence that ejects a host (duration)
 *   cluster.eject_duration      ejection hold (duration)
 *   host<i>.freq_policy         per-host frequency-policy override
 *   host<i>.idle_policy         per-host sleep-policy override
 *   host<i>.weight              per-host dispatch weight
 *   host<i>.<param>             per-host tunable overlay (a dotted key
 *                               requireHostOverlayKey accepts, e.g.
 *                               host0.nmap.ni_th)
 *
 * Dispatch tunables (`dispatch.vnodes`, `dispatch.pack_limit`) travel
 * in the base params blob like any policy tunable.
 */

#ifndef NMAPSIM_HARNESS_CLUSTER_IO_HH_
#define NMAPSIM_HARNESS_CLUSTER_IO_HH_

#include <string>

#include "harness/cluster.hh"
#include "stats/result_writer.hh"

namespace nmapsim {

/** Serialise every schema field as `key=value` lines. */
std::string printClusterConfig(const ClusterConfig &config);

/** Parse `key=value` lines onto a default config; fatal() on unknown
 *  keys or malformed values. */
ClusterConfig parseClusterConfig(const std::string &text);

/** Apply one key/value onto @p config; cluster-claimed keys are
 *  handled here, everything else lands on config.base. Returns true
 *  when the key was cluster-claimed (the CLI keys cluster mode off
 *  this). */
bool setClusterConfigValue(ClusterConfig &config, const std::string &key,
                           const std::string &value);

/** Append one cluster-level record (dims, aggregates and a per-host
 *  summary in host<i>_-prefixed columns) for (config, result). */
ResultWriter::Record &
appendClusterResultRecord(ResultWriter &writer,
                          const ClusterConfig &config,
                          const ClusterResult &result);

} // namespace nmapsim

#endif // NMAPSIM_HARNESS_CLUSTER_IO_HH_
