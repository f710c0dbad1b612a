/**
 * @file
 * Multi-queue NIC with RSS steering and interrupt moderation.
 *
 * Models the evaluation setup's Intel 82599: Receive Side Scaling hashes
 * each flow onto one of the per-core Rx queues, and each queue's
 * interrupt is moderated so that interrupts are generated at most once
 * per ITR interval (10 us on the 82599, Section 5.1). The OS's NAPI
 * context disables a queue's interrupt while polling it and re-arms it
 * with napi_complete, exactly as the ixgbe driver does.
 *
 * Tx completions are posted per queue and consumed by the same NAPI poll
 * loop, so transmit activity contributes to the interrupt/polling packet
 * counts the paper measures.
 */

#ifndef NMAPSIM_NET_NIC_HH_
#define NMAPSIM_NET_NIC_HH_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "net/packet.hh"
#include "net/wire.hh"
#include "sim/event_queue.hh"
#include "sim/pool.hh"
#include "sim/time.hh"

namespace nmapsim {

/** Static NIC configuration. */
struct NicConfig
{
    int numQueues = 8;            //!< one per core with RSS
    std::size_t rxRingSize = 2048; //!< per-queue Rx descriptor ring
    Tick itr = microseconds(10);  //!< min interrupt period per queue
    Tick dmaLatency = microseconds(1); //!< Tx DMA completion delay

    bool operator==(const NicConfig &) const = default;
};

/** The server's network interface card. */
class Nic
{
  public:
    /** Invoked when queue @p q raises an interrupt at the CPU. */
    using IrqHandler = std::function<void(int q)>;
    /** Invoked for every packet the NIC receives (NCAP's monitor). */
    using PacketObserver = std::function<void(const Packet &)>;

    Nic(EventQueue &eq, const NicConfig &config);
    ~Nic();

    Nic(const Nic &) = delete;
    Nic &operator=(const Nic &) = delete;

    const NicConfig &config() const { return config_; }
    int numQueues() const { return config_.numQueues; }

    /**
     * Resize the per-queue Rx descriptor ring at runtime (fault
     * injection: ring degradation). Packets already queued stay; the
     * new bound applies to subsequent arrivals.
     */
    void setRxRingSize(std::size_t slots);

    /** Current per-queue Rx ring bound (may shrink under ring faults;
     *  the bypass harvest path caps its burst size here). */
    std::size_t rxRingSize() const { return config_.rxRingSize; }

    /** Attach the CPU-side interrupt handler (one for all queues). */
    void setIrqHandler(IrqHandler handler) { irq_ = std::move(handler); }

    /** Attach the Tx wire toward the client. */
    void setTxWire(Wire *wire) { txWire_ = wire; }

    /** Register an observer for received packets (e.g. NCAP monitor). */
    void addPacketObserver(PacketObserver obs);

    /** Wire sink: a packet arrived from the client. */
    void receive(const Packet &pkt);

    /** @name NAPI-side queue interface */
    /**@{*/
    std::size_t rxDepth(int q) const { return queues_[q].rx.size(); }

    /** Pop the oldest Rx packet; returns false when the ring is empty. */
    bool popRx(int q, Packet &out);

    /** Number of unconsumed Tx completions on queue @p q. */
    std::uint32_t txPending(int q) const { return queues_[q].txPending; }

    /** Consume up to @p n Tx completions; returns how many were taken. */
    std::uint32_t consumeTx(int q, std::uint32_t n);

    bool irqEnabled(int q) const { return queues_[q].irqEnabled; }

    /** Mask queue @p q's interrupt (entering polling). */
    void disableIrq(int q);

    /**
     * Re-arm queue @p q's interrupt (napi_complete). If work is already
     * pending the interrupt fires again, subject to ITR moderation.
     */
    void enableIrq(int q);
    /**@}*/

    /** Transmit a response toward the client. */
    void transmit(int q, const Packet &pkt);

    /** @name Statistics */
    /**@{*/
    std::uint64_t packetsReceived() const { return received_; }
    std::uint64_t packetsDropped() const { return dropped_; }
    std::uint64_t packetsTransmitted() const { return transmitted_; }

    /** Rx packets the OS harvested from the rings via popRx(). */
    std::uint64_t rxHarvested() const { return rxHarvested_; }

    /** Tx completions the OS consumed via consumeTx(). */
    std::uint64_t txConsumed() const { return txConsumed_; }
    /**@}*/

    /** Queue index RSS assigns to @p flow_hash. */
    int
    rssQueue(std::uint32_t flow_hash) const
    {
        return static_cast<int>(flow_hash %
                                static_cast<std::uint32_t>(
                                    config_.numQueues));
    }

  private:
    void maybeRaiseIrq(int q);
    void raiseIrq(int q);
    void dmaComplete(int q);

    struct Queue
    {
        Ring<Packet> rx;
        std::uint32_t txPending = 0;
        bool irqEnabled = true;
        Tick lastIrq;
        std::unique_ptr<IndexedMemberEvent<Nic, &Nic::maybeRaiseIrq>>
            itrEvent;
        std::unique_ptr<IndexedMemberEvent<Nic, &Nic::dmaComplete>>
            dmaEvent;
        std::uint32_t dmaInFlight = 0;
    };

    EventQueue &eq_;
    NicConfig config_;
    IrqHandler irq_;
    Wire *txWire_ = nullptr;
    std::vector<PacketObserver> observers_;
    std::vector<Queue> queues_;

    std::uint64_t received_ = 0;
    std::uint64_t dropped_ = 0;
    std::uint64_t transmitted_ = 0;
    std::uint64_t rxHarvested_ = 0;
    std::uint64_t txConsumed_ = 0;
};

} // namespace nmapsim

#endif // NMAPSIM_NET_NIC_HH_
