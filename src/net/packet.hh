/**
 * @file
 * Network packet representation.
 *
 * One request maps to one request packet (client -> server) and one
 * response packet (server -> client), the common case for memcached
 * GET/SET and small nginx responses. The flow hash drives RSS steering.
 */

#ifndef NMAPSIM_NET_PACKET_HH_
#define NMAPSIM_NET_PACKET_HH_

#include <cstdint>

#include "sim/time.hh"

namespace nmapsim {

/** A single packet on the simulated wire. */
struct Packet
{
    enum class Kind : std::uint8_t
    {
        kRequest,  //!< client -> server
        kResponse, //!< server -> client
    };

    std::uint64_t requestId = 0; //!< app-level request this belongs to
    Kind kind = Kind::kRequest;
    std::uint32_t flowHash = 0;  //!< connection hash used by RSS
    std::uint32_t sizeBytes = 0; //!< wire size incl. headers
    Tick sendTime = 0;           //!< when the client issued the request
    bool latencyCritical = true; //!< NCAP's packet classification bit

    // Service-topology addressing. Single-tier traffic leaves all of
    // these at their defaults; the ClusterSwitch owns tier/hopStart/
    // servingHost stamping and ServerApp echoes them through service.
    std::uint8_t tier = 0;     //!< destination tier of a request
    std::uint8_t hops = 0;     //!< completed host traversals so far
    /** Host that served a response, stamped by the switch as the
     *  response arrives from it; fits the padding after `hops`, so a
     *  Packet stays 72 bytes. */
    std::int32_t servingHost = -1;
    Tick hopStart = 0;         //!< when the current hop was dispatched
    bool control = false;      //!< probe/health traffic, not goodput

    // Overload-control fields (resilience.*). Non-resilient traffic
    // leaves both at their defaults.
    Tick deadline = 0;    //!< absolute completion deadline; 0 = none
    bool rejected = false; //!< response is a shed notice, not a result
};

} // namespace nmapsim

#endif // NMAPSIM_NET_PACKET_HH_
