#include "net/wire.hh"

#include "sim/logging.hh"

namespace nmapsim {

Wire::Wire(EventQueue &eq, double bandwidth_bps, Tick propagation)
    : eq_(eq), bandwidthBps_(bandwidth_bps), propagation_(propagation),
      deliverEvent_(this, "wire.deliver")
{
    if (bandwidth_bps <= 0.0)
        fatal("Wire bandwidth must be positive");
}

Wire::~Wire()
{
    eq_.deschedule(&deliverEvent_);
}

namespace {

std::string
nameOf(const std::string &label)
{
    return label.empty() ? std::string("<unlabelled>") : label;
}

[[noreturn]] void
recordingMisuse(const std::string &label, const char *what)
{
    panic("Wire '" + nameOf(label) + "': a recording wire cannot " + what);
}

} // namespace

void
Wire::setRecordingSink(RecordingSink sink)
{
    if (queueLimit_ != 0)
        recordingMisuse(label_, "be bounded");
    if (linkDown_)
        recordingMisuse(label_, "be down");
    recorder_ = std::move(sink);
    sink_ = nullptr;
}

void
Wire::setQueueLimit(std::size_t packets)
{
    if (recorder_ && packets != 0)
        recordingMisuse(label_, "be bounded");
    queueLimit_ = packets;
}

void
Wire::setLinkDown(bool down)
{
    if (down == linkDown_)
        return;
    if (recorder_)
        recordingMisuse(label_, "be down");
    linkDown_ = down;
    if (down) {
        // Everything on the line is lost: the signal stops, nothing
        // reaches the far end.
        linkDownLost_ += inFlight_.size();
        inFlight_.clear();
        eq_.deschedule(&deliverEvent_);
    }
}

Tick
Wire::serializationTicks(std::uint32_t size_bytes)
{
    // Memoised: the expression (and therefore its floating-point
    // rounding) is exactly the per-packet computation this replaces,
    // evaluated once per distinct size instead of once per packet.
    if (serSizeCache_[0] == size_bytes)
        return serTicksCache_[0];
    if (serSizeCache_[1] == size_bytes) {
        std::swap(serSizeCache_[0], serSizeCache_[1]);
        std::swap(serTicksCache_[0], serTicksCache_[1]);
        return serTicksCache_[0];
    }
    Tick ser = static_cast<Tick>(static_cast<double>(size_bytes) * 8.0 /
                                 bandwidthBps_ * 1e9);
    if (ser < 1)
        ser = 1;
    serSizeCache_[1] = serSizeCache_[0];
    serTicksCache_[1] = serTicksCache_[0];
    serSizeCache_[0] = size_bytes;
    serTicksCache_[0] = ser;
    return ser;
}

bool
Wire::send(const Packet &pkt)
{
    if (!sink_ && !recorder_)
        fatal("Wire::send on wire '" + nameOf(label_) +
              "' before setSink(): every wire must be connected to a "
              "receiver before traffic starts (mis-wired topology?)");
    if (linkDown_) {
        ++linkDownLost_;
        return false;
    }
    bool corrupt = false;
    if (faultFilter_) {
        switch (faultFilter_(pkt)) {
          case WireFault::kNone:
            break;
          case WireFault::kDrop:
            ++faultLost_;
            return false;
          case WireFault::kCorrupt:
            corrupt = true;
            break;
        }
    }
    if (queueLimit_ != 0 && inFlight_.size() >= queueLimit_) {
        ++dropped_;
        bytesDropped_ += pkt.sizeBytes;
        return false;
    }
    Tick start = std::max(eq_.now(), lineIdleAt_);
    lineIdleAt_ = start + serializationTicks(pkt.sizeBytes);

    // Packets are FIFO, so the head always has the earliest delivery.
    inFlight_.push_back(
        TxRec{pkt, lineIdleAt_ + propagation_, corrupt});
    if (recorder_)
        handOverArrived(); // keeps the FIFO at the packets in flight
    else if (!deliverEvent_.scheduled())
        eq_.schedule(&deliverEvent_, inFlight_.front().deliverAt);
    return true;
}

void
Wire::drain()
{
    if (recorder_)
        handOverArrived();
}

void
Wire::deliverHead()
{
    handOverArrived();
    if (!inFlight_.empty())
        eq_.schedule(&deliverEvent_, inFlight_.front().deliverAt);
}

void
Wire::handOverArrived()
{
    while (!inFlight_.empty() &&
           inFlight_.front().deliverAt <= eq_.now()) {
        const TxRec rec = inFlight_.front();
        inFlight_.pop_front();
        if (rec.corrupt) {
            // A mangled frame consumed line time but fails the FCS
            // check: the receiver discards it without ever seeing it.
            ++corrupted_;
            continue;
        }
        ++delivered_;
        bytesDelivered_ += rec.pkt.sizeBytes;
        if (recorder_)
            recorder_(rec.pkt, rec.deliverAt);
        else
            sink_(rec.pkt);
    }
}

} // namespace nmapsim
