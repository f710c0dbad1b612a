#include "fault/injector.hh"

#include <algorithm>
#include <utility>

namespace nmapsim {

FaultInjector::FaultInjector(EventQueue &eq, const FaultPlan &plan,
                             Rng rng, const std::vector<Host> &hosts)
    : eq_(eq), plan_(plan), rng_(rng),
      flapEvent_([this] { flapEdge(); }, "fault.flap")
{
    for (const Host &host : hosts) {
        addLossyWire(host.toward);
        addLossyWire(host.from);
    }
    if (plan_.wantsFlap()) {
        for (std::size_t id = 0; id < hosts.size(); ++id) {
            if (plan_.flapHost >= 0 &&
                static_cast<std::size_t>(plan_.flapHost) != id)
                continue;
            for (Wire *wire : {&hosts[id].toward, &hosts[id].from}) {
                track(*wire);
                flapping_.push_back(wire);
            }
        }
        if (!flapping_.empty())
            eq_.schedule(&flapEvent_, plan_.flapStart);
    }
    if (plan_.wantsRingDegrade()) {
        for (const Host &host : hosts) {
            Nic *nic = &host.nic;
            const std::size_t original = nic->config().rxRingSize;
            at(plan_.ringDegradeAt,
               [this, nic] { nic->setRxRingSize(plan_.ringSize); },
               "fault.ring_degrade");
            if (plan_.ringRestoreAt > 0)
                at(plan_.ringRestoreAt,
                   [nic, original] { nic->setRxRingSize(original); },
                   "fault.ring_restore");
        }
    }
    for (int id : plan_.crashHosts) {
        Wire *toward = &hosts[static_cast<std::size_t>(id)].toward;
        Wire *from = &hosts[static_cast<std::size_t>(id)].from;
        track(*toward);
        track(*from);
        at(plan_.crashAt,
           [toward, from] {
               toward->setLinkDown(true);
               from->setLinkDown(true);
           },
           "fault.crash");
        if (plan_.recoverAt > 0)
            at(plan_.recoverAt,
               [toward, from] {
                   toward->setLinkDown(false);
                   from->setLinkDown(false);
               },
               "fault.recover");
    }
}

FaultInjector::~FaultInjector()
{
    eq_.deschedule(&flapEvent_);
    for (auto &event : events_)
        eq_.deschedule(event.get());
    // Filters capture `this`; detach them so a wire outliving the
    // injector cannot call into freed memory.
    for (Wire *wire : wires_)
        wire->setFaultFilter(nullptr);
}

void
FaultInjector::track(Wire &wire)
{
    if (std::find(wires_.begin(), wires_.end(), &wire) == wires_.end())
        wires_.push_back(&wire);
}

void
FaultInjector::addLossyWire(Wire &wire)
{
    if (!plan_.wantsLoss())
        return;
    track(wire);
    wire.setFaultFilter([this](const Packet &) {
        // A single uniform draw partitions [0, 1) into
        // lose | corrupt | deliver, so loss and corruption come from
        // one stream and stay reproducible under either probability.
        double u = rng_.uniform();
        if (u < plan_.wireLoss)
            return WireFault::kDrop;
        if (u < plan_.wireLoss + plan_.wireCorrupt)
            return WireFault::kCorrupt;
        return WireFault::kNone;
    });
}

void
FaultInjector::at(Tick when, std::function<void()> action,
                  const char *name)
{
    events_.push_back(
        std::make_unique<EventFunctionWrapper>(std::move(action), name));
    eq_.schedule(events_.back().get(), when);
}

void
FaultInjector::flapEdge()
{
    if (!flapDown_) {
        for (Wire *wire : flapping_)
            wire->setLinkDown(true);
        flapDown_ = true;
        eq_.schedule(&flapEvent_, eq_.now() + plan_.flapDown);
        return;
    }
    for (Wire *wire : flapping_)
        wire->setLinkDown(false);
    flapDown_ = false;
    ++flapCycle_;
    if (flapCycle_ < plan_.flapCycles) {
        eq_.schedule(&flapEvent_,
                     plan_.flapStart +
                         static_cast<Tick>(flapCycle_) * plan_.flapPeriod);
    }
}

std::uint64_t
FaultInjector::packetsFaultLost() const
{
    std::uint64_t total = 0;
    for (const Wire *wire : wires_)
        total += wire->packetsFaultLost();
    return total;
}

std::uint64_t
FaultInjector::packetsCorrupted() const
{
    std::uint64_t total = 0;
    for (const Wire *wire : wires_)
        total += wire->packetsCorrupted();
    return total;
}

std::uint64_t
FaultInjector::packetsLinkDownLost() const
{
    std::uint64_t total = 0;
    for (const Wire *wire : wires_)
        total += wire->packetsLinkDownLost();
    return total;
}

} // namespace nmapsim
