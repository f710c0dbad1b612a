/**
 * @file
 * Point-to-point link model (one direction).
 *
 * Packets handed to the wire are serialised at link bandwidth and
 * delivered after the propagation delay. Serialisation is what turns a
 * batch of requests issued at the same instant into a near-line-rate
 * packet train at the NIC — the arrival pattern that pushes NAPI into
 * polling mode in the paper's Section 3.1.
 *
 * A wire may be given a finite transmit queue (switch egress ports are
 * output-queued); packets arriving at a full queue are dropped and
 * accounted, never silently lost. Labels make mis-wiring diagnosable:
 * a send() on a sink-less wire names the wire that was left dangling.
 *
 * Fault hooks (driven by fault/FaultInjector): an optional per-packet
 * fault filter can drop a packet at ingress (loss) or mark it corrupt
 * — a corrupt packet still occupies the line (it serialises and
 * propagates) but is discarded at the receiver, modelling an FCS-drop.
 * A wire can also be administratively downed (link flap, host crash):
 * packets in flight are lost and sends while down are counted drops,
 * never errors. All fault paths are separately accounted so
 * conservation checks can tell loss modes apart.
 */

#ifndef NMAPSIM_NET_WIRE_HH_
#define NMAPSIM_NET_WIRE_HH_

#include <cstdint>
#include <functional>
#include <string>

#include "net/packet.hh"
#include "sim/event_queue.hh"
#include "sim/pool.hh"
#include "sim/time.hh"

namespace nmapsim {

/** Verdict of a per-packet fault filter. */
enum class WireFault {
    kNone,    //!< deliver normally
    kDrop,    //!< lose the packet at ingress (never serialises)
    kCorrupt, //!< serialise, then FCS-drop at the receiver
};

/** One direction of a full-duplex link. */
class Wire
{
  public:
    using Sink = std::function<void(const Packet &)>;
    using FaultFilter = std::function<WireFault(const Packet &)>;

    /**
     * @param eq            simulation event queue
     * @param bandwidth_bps link rate in bits per second (10 GbE default)
     * @param propagation   one-way propagation + switch latency
     */
    Wire(EventQueue &eq, double bandwidth_bps = 10e9,
         Tick propagation = microseconds(5));

    ~Wire();

    Wire(const Wire &) = delete;
    Wire &operator=(const Wire &) = delete;

    /** Set the receiver; must be set before the first send. */
    void setSink(Sink sink) { sink_ = std::move(sink); }

    /** Name this wire for diagnostics ("switch->host3" etc.). */
    void setLabel(std::string label) { label_ = std::move(label); }
    const std::string &label() const { return label_; }

    /**
     * Bound the transmit queue to @p packets; a send() finding the
     * queue full drops the packet (counted, not delivered). 0 (the
     * default) leaves the queue unbounded.
     */
    void setQueueLimit(std::size_t packets) { queueLimit_ = packets; }

    /**
     * Install a per-packet fault filter consulted on every send()
     * (fault injection); pass an empty function to remove it. The
     * filter runs before queue-limit accounting, so injected loss and
     * congestion drops stay separately attributable.
     */
    void setFaultFilter(FaultFilter filter)
    {
        faultFilter_ = std::move(filter);
    }

    /**
     * Administratively down (or restore) the link. Downing flushes
     * packets in flight into the link-down drop counters; sends while
     * down are counted drops, not errors.
     */
    void setLinkDown(bool down);
    bool linkDown() const { return linkDown_; }

    /**
     * Enqueue a packet for transmission now. Returns whether the wire
     * accepted it: false for a downed link, an injected loss or a full
     * queue (each counted on its own counter), true otherwise,
     * including a corrupted packet, which still occupies the line.
     */
    bool send(const Packet &pkt);

    /** @name Accounting */
    /**@{*/
    std::uint64_t packetsDelivered() const { return delivered_; }
    std::uint64_t bytesDelivered() const { return bytesDelivered_; }
    std::uint64_t packetsDropped() const { return dropped_; }
    std::uint64_t bytesDropped() const { return bytesDropped_; }
    /** Packets lost to the injected-loss fault filter. */
    std::uint64_t packetsFaultLost() const { return faultLost_; }
    /** Packets corrupted in flight (discarded at the receiver). */
    std::uint64_t packetsCorrupted() const { return corrupted_; }
    /** Packets lost to a downed link (in flight or sent while down). */
    std::uint64_t packetsLinkDownLost() const { return linkDownLost_; }
    /** Packets queued on the wire right now (sent, not yet delivered). */
    std::size_t packetsInFlight() const { return inFlight_.size(); }
    /**@}*/

  private:
    /** One queued transmission: the packet plus its delivery metadata
     *  (a single ring record instead of three parallel deques). */
    struct TxRec
    {
        Packet pkt;
        Tick deliverAt;
        bool corrupt;
    };

    void deliverHead();
    Tick serializationTicks(std::uint32_t size_bytes);

    EventQueue &eq_;
    double bandwidthBps_;
    Tick propagation_;
    Sink sink_;
    FaultFilter faultFilter_;
    std::string label_;
    std::size_t queueLimit_ = 0;
    bool linkDown_ = false;

    Ring<TxRec> inFlight_;
    Tick lineIdleAt_ = 0; //!< when the transmitter finishes current work
    /** Memoised serialisation times: traffic uses a handful of packet
     *  sizes, so two slots absorb nearly every send() division. */
    std::uint32_t serSizeCache_[2] = {0, 0};
    Tick serTicksCache_[2] = {0, 0};
    std::uint64_t delivered_ = 0;
    std::uint64_t bytesDelivered_ = 0;
    std::uint64_t dropped_ = 0;
    std::uint64_t bytesDropped_ = 0;
    std::uint64_t faultLost_ = 0;
    std::uint64_t corrupted_ = 0;
    std::uint64_t linkDownLost_ = 0;

    MemberEvent<Wire, &Wire::deliverHead> deliverEvent_;
};

} // namespace nmapsim

#endif // NMAPSIM_NET_WIRE_HH_
