#include "net/nic.hh"

#include "sim/logging.hh"

namespace nmapsim {

Nic::Nic(EventQueue &eq, const NicConfig &config)
    : eq_(eq), config_(config)
{
    if (config_.numQueues < 1)
        fatal("Nic requires at least one queue");
    queues_.resize(static_cast<std::size_t>(config_.numQueues));
    for (int q = 0; q < config_.numQueues; ++q) {
        Queue &queue = queues_[static_cast<std::size_t>(q)];
        queue.lastIrq = -config_.itr; // first interrupt is not moderated
        queue.itrEvent = std::make_unique<
            IndexedMemberEvent<Nic, &Nic::maybeRaiseIrq>>(this, q,
                                                          "nic.itr");
        queue.dmaEvent = std::make_unique<
            IndexedMemberEvent<Nic, &Nic::dmaComplete>>(this, q,
                                                        "nic.dma");
    }
}

Nic::~Nic()
{
    for (auto &queue : queues_) {
        eq_.deschedule(queue.itrEvent.get());
        eq_.deschedule(queue.dmaEvent.get());
    }
}

void
Nic::setRxRingSize(std::size_t slots)
{
    if (slots < 1)
        fatal("Nic rx ring must hold at least one descriptor");
    config_.rxRingSize = slots;
}

void
Nic::addPacketObserver(PacketObserver obs)
{
    observers_.push_back(std::move(obs));
}

void
Nic::receive(const Packet &pkt)
{
    ++received_;
    for (const auto &obs : observers_)
        obs(pkt);

    int q = rssQueue(pkt.flowHash);
    Queue &queue = queues_[static_cast<std::size_t>(q)];
    if (queue.rx.size() >= config_.rxRingSize) {
        ++dropped_;
        return;
    }
    queue.rx.push_back(pkt);
    maybeRaiseIrq(q);
}

bool
Nic::popRx(int q, Packet &out)
{
    Queue &queue = queues_[static_cast<std::size_t>(q)];
    if (queue.rx.empty())
        return false;
    out = queue.rx.front();
    queue.rx.pop_front();
    ++rxHarvested_;
    return true;
}

std::uint32_t
Nic::consumeTx(int q, std::uint32_t n)
{
    Queue &queue = queues_[static_cast<std::size_t>(q)];
    std::uint32_t taken = std::min(n, queue.txPending);
    queue.txPending -= taken;
    txConsumed_ += taken;
    return taken;
}

void
Nic::disableIrq(int q)
{
    Queue &queue = queues_[static_cast<std::size_t>(q)];
    queue.irqEnabled = false;
    eq_.deschedule(queue.itrEvent.get());
}

void
Nic::enableIrq(int q)
{
    Queue &queue = queues_[static_cast<std::size_t>(q)];
    queue.irqEnabled = true;
    maybeRaiseIrq(q);
}

void
Nic::maybeRaiseIrq(int q)
{
    Queue &queue = queues_[static_cast<std::size_t>(q)];
    if (!queue.irqEnabled)
        return;
    if (queue.rx.empty() && queue.txPending == 0)
        return;
    Tick earliest = queue.lastIrq + config_.itr;
    if (eq_.now() >= earliest) {
        raiseIrq(q);
    } else if (!queue.itrEvent->scheduled()) {
        eq_.schedule(queue.itrEvent.get(), earliest);
    }
}

void
Nic::raiseIrq(int q)
{
    Queue &queue = queues_[static_cast<std::size_t>(q)];
    queue.lastIrq = eq_.now();
    if (!irq_)
        panic("Nic interrupt with no handler attached");
    irq_(q);
}

void
Nic::transmit(int q, const Packet &pkt)
{
    if (!txWire_)
        panic("Nic::transmit without a Tx wire");
    ++transmitted_;
    txWire_->send(pkt);

    // The Tx completion descriptor is written back after the DMA
    // latency; NAPI then reaps it.
    Queue &queue = queues_[static_cast<std::size_t>(q)];
    ++queue.dmaInFlight;
    if (!queue.dmaEvent->scheduled())
        eq_.scheduleIn(queue.dmaEvent.get(), config_.dmaLatency);
}

void
Nic::dmaComplete(int q)
{
    Queue &queue = queues_[static_cast<std::size_t>(q)];
    // Batch: all DMAs issued before this event completed by now.
    queue.txPending += queue.dmaInFlight;
    queue.dmaInFlight = 0;
    maybeRaiseIrq(q);
}

} // namespace nmapsim
