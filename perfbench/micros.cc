/**
 * @file
 * Layer micros: each times one layer's hot public calls standalone, in
 * nanoseconds per operation (median of several fresh batches). They
 * cover the paths bench/micro_simcore times (queue schedule + step,
 * reschedule storm, lognormal draw, NIC steer) plus wire delivery,
 * dispatch, the latency recorder, admission and the circuit breaker.
 */

#include <algorithm>
#include <memory>

#include "cluster/dispatch.hh"
#include "net/nic.hh"
#include "net/wire.hh"
#include "perfbench.hh"
#include "resilience/admission.hh"
#include "resilience/breaker.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "stats/latency_recorder.hh"

using namespace nmapsim;

namespace perfbench {

namespace {

constexpr int kBatches = 5;
constexpr std::size_t kOps = 200000;

/** Keep @p v alive so the timed loop cannot be folded away. */
template <typename T>
inline void
keep(const T &v)
{
    asm volatile("" : : "r,m"(v) : "memory");
}

/** Median ns/op of kBatches calls of @p batch, which runs @p ops
 *  operations on fresh state and returns its timed seconds. */
template <typename Batch>
double
nsPerOp(std::size_t ops, Batch batch)
{
    std::vector<double> v;
    for (int b = 0; b < kBatches; ++b)
        v.push_back(batch(ops) * 1e9 / static_cast<double>(ops));
    return median(v);
}

double
scheduleStep(std::size_t ops)
{
    EventQueue eq;
    EventFunctionWrapper ev([] {}, "noop");
    const double t0 = wallNow();
    for (std::size_t i = 0; i < ops; ++i) {
        eq.scheduleIn(&ev, 10);
        eq.step();
    }
    return wallNow() - t0;
}

double
rescheduleStorm(std::size_t ops)
{
    // The core scheduler's hot pattern: deschedule + reschedule. Stale
    // entries pile up until the queue dies, so each batch gets its own.
    EventQueue eq;
    EventFunctionWrapper ev([] {}, "noop");
    Tick t = 100;
    const double t0 = wallNow();
    for (std::size_t i = 0; i < ops; ++i)
        eq.reschedule(&ev, t++);
    const double dt = wallNow() - t0;
    eq.deschedule(&ev);
    return dt;
}

double
lognormalDraw(std::size_t ops)
{
    Rng rng(1);
    const double t0 = wallNow();
    for (std::size_t i = 0; i < ops; ++i)
        keep(rng.lognormal(8.0, 0.5));
    return wallNow() - t0;
}

double
nicSteer(std::size_t ops)
{
    EventQueue eq;
    NicConfig cfg;
    cfg.numQueues = 8;
    Nic nic(eq, cfg);
    nic.setIrqHandler([&nic](int q) { nic.disableIrq(q); });
    Packet p;
    p.kind = Packet::Kind::kRequest;
    p.sizeBytes = 128;
    const double t0 = wallNow();
    for (std::size_t i = 0; i < ops; ++i) {
        p.flowHash = static_cast<std::uint32_t>(i);
        nic.receive(p);
        Packet out;
        nic.popRx(nic.rssQueue(p.flowHash), out);
        keep(out);
    }
    return wallNow() - t0;
}

double
wireSendDeliver(std::size_t ops)
{
    EventQueue eq;
    Wire wire(eq);
    std::uint64_t delivered = 0;
    wire.setSink([&delivered](const Packet &) { ++delivered; });
    Packet p;
    p.sizeBytes = 128;
    const double t0 = wallNow();
    for (std::size_t i = 0; i < ops; ++i) {
        p.requestId = i;
        wire.send(p);
        eq.step();
    }
    const double dt = wallNow() - t0;
    keep(delivered);
    return dt;
}

double
dispatchPick(const std::string &policy, std::size_t ops)
{
    DispatchContext ctx;
    ctx.numHosts = 4;
    ctx.weights.assign(4, 1.0);
    ctx.outstanding = [](int) { return std::uint64_t{0}; };
    std::unique_ptr<DispatchPolicy> dispatch =
        DispatchRegistry::instance().make(policy, ctx);
    Packet p;
    const double t0 = wallNow();
    for (std::size_t i = 0; i < ops; ++i) {
        p.flowHash = static_cast<std::uint32_t>(i * 2654435761u);
        keep(dispatch->pickHost(p));
    }
    return wallNow() - t0;
}

/** Pre-drawn latencies, so the record loop times record() alone. */
std::vector<Tick>
latencies(std::size_t n)
{
    Rng rng(7);
    std::vector<Tick> out(n);
    for (Tick &t : out)
        t = static_cast<Tick>(rng.lognormal(11.0, 0.6));
    return out;
}

double
latencyRecord(const std::vector<Tick> &lat)
{
    LatencyRecorder rec;
    const double t0 = wallNow();
    for (std::size_t i = 0; i < lat.size(); ++i)
        rec.record(static_cast<Tick>(i), lat[i]);
    const double dt = wallNow() - t0;
    keep(rec.count());
    return dt;
}

double
latencyP99(const std::vector<Tick> &lat)
{
    LatencyRecorder rec;
    for (std::size_t i = 0; i < lat.size(); ++i)
        rec.record(static_cast<Tick>(i), lat[i]);
    const double t0 = wallNow();
    keep(rec.percentile(99.0));
    return wallNow() - t0;
}

double
admission(std::size_t ops)
{
    ResiliencePlan plan;
    plan.admission = "queue-deadline";
    plan.admitTarget = microseconds(500);
    plan.admitInterval = milliseconds(2);
    std::unique_ptr<AdmissionPolicy> gate =
        AdmissionPolicyRegistry::instance().make("queue-deadline",
                                                 AdmissionContext{plan});
    // Sojourns straddle the target, so the shedding law runs.
    std::vector<Tick> sojourn(1024);
    Rng rng(3);
    for (Tick &s : sojourn)
        s = static_cast<Tick>(rng.uniform(0.0, 1e6));
    Tick now = milliseconds(1);
    std::uint64_t served = 0;
    const double t0 = wallNow();
    for (std::size_t i = 0; i < ops; ++i) {
        now += 1000;
        if (gate->admit(now, i & 63))
            served += gate->serve(now, now - sojourn[i & 1023]);
    }
    const double dt = wallNow() - t0;
    keep(served);
    return dt;
}

double
breaker(std::size_t ops)
{
    BreakerConfig cfg;
    cfg.window = milliseconds(1);
    cfg.openFor = milliseconds(2);
    CircuitBreaker b(cfg);
    std::vector<bool> fail(1024);
    Rng rng(5);
    for (std::size_t i = 0; i < fail.size(); ++i)
        fail[i] = rng.bernoulli(0.3);
    Tick now = 0;
    const double t0 = wallNow();
    for (std::size_t i = 0; i < ops; ++i) {
        now += 500;
        if (b.allow(now))
            b.onOutcome(now, fail[i & 1023]);
    }
    const double dt = wallNow() - t0;
    keep(b.transitions());
    return dt;
}

} // namespace

std::map<std::string, double>
runMicros(const MicroPlan &plan)
{
    ensureBuiltinDispatchPolicies();
    ensureBuiltinAdmissionPolicies();
    std::map<std::string, double> out;
    out["sim.eq.schedule_step_ns"] = nsPerOp(kOps, scheduleStep);
    out["sim.eq.reschedule_ns"] = nsPerOp(kOps, rescheduleStorm);
    out["workload.rng_lognormal_ns"] = nsPerOp(kOps, lognormalDraw);
    out["net.nic.rx_steer_pop_ns"] = nsPerOp(kOps, nicSteer);
    out["net.wire.send_deliver_ns"] = nsPerOp(kOps, wireSendDeliver);

    out["cluster.dispatch.pick_ns"] =
        plan.dispatch.empty()
            ? 0.0
            : nsPerOp(kOps, [&plan](std::size_t ops) {
                  return dispatchPick(plan.dispatch, ops);
              });

    // The recorder holds one run's samples: the workload's own count.
    const std::vector<Tick> lat =
        latencies(std::max<std::uint64_t>(plan.latencySamples, 1000));
    out["stats.latency.record_ns"] =
        nsPerOp(lat.size(), [&lat](std::size_t) {
            return latencyRecord(lat);
        });
    out["stats.latency.p99_ns"] = nsPerOp(1, [&lat](std::size_t) {
        return latencyP99(lat);
    });

    out["resilience.admit_ns"] =
        plan.resilience ? nsPerOp(kOps, admission) : 0.0;
    out["resilience.breaker_ns"] =
        plan.resilience ? nsPerOp(kOps, breaker) : 0.0;
    return out;
}

} // namespace perfbench
