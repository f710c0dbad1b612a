/**
 * @file
 * Built-in dispatch policies for the cluster switch.
 *
 * Two families:
 *
 *  - Affinity policies (flow-hash, consistent-hash) map a *flow* to a
 *    host, so one connection's back-to-back request trains stay on one
 *    NIC queue — the arrival pattern the paper's NAPI analysis assumes.
 *    Weighted: a host's share of the hash space is proportional to its
 *    weight.
 *
 *  - Queue/packing policies (round-robin, least-outstanding,
 *    power-pack) decide per packet. least-outstanding is the classic
 *    tail-optimal join-the-shortest-queue; power-pack deliberately
 *    unbalances, filling hosts in id order up to a per-host knee
 *    ("dispatch.pack_limit") so the remaining hosts see no traffic and
 *    their packages can sit in deep idle — trading some tail headroom
 *    for cluster energy.
 */

#include "cluster/dispatch.hh"

#include <algorithm>
#include <cstdint>
#include <numeric>

#include "sim/logging.hh"

namespace nmapsim {
namespace {

/** Finalising 64-bit mixer (splitmix64); decorrelates flow ids from
 *  the modulo structure RSS already imposes on them. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/**
 * Health guard shared by the queue policies: true when @p host may
 * take new work. With no detector (null feed) or a fully-ejected
 * cluster the guard passes everyone, so the pick degrades to the
 * health-blind decision instead of deadlocking.
 */
class HealthGuard
{
  public:
    explicit HealthGuard(const DispatchContext &ctx)
        : healthy_(ctx.healthy), numHosts_(ctx.numHosts)
    {
    }

    bool
    usable(int host) const
    {
        if (!healthy_ || !anyHealthy())
            return true;
        return healthy_(host);
    }

  private:
    bool
    anyHealthy() const
    {
        for (int i = 0; i < numHosts_; ++i)
            if (healthy_(i))
                return true;
        return false;
    }

    std::function<bool(int)> healthy_;
    int numHosts_;
};

std::vector<double>
checkedWeights(const DispatchContext &ctx, const std::string &who)
{
    if (ctx.numHosts < 1)
        fatal(who + " dispatch requires at least one host");
    std::vector<double> w = ctx.weights;
    if (w.empty())
        w.assign(static_cast<std::size_t>(ctx.numHosts), 1.0);
    if (static_cast<int>(w.size()) != ctx.numHosts)
        fatal(who + " dispatch: weight count != host count");
    for (double v : w)
        if (v <= 0.0)
            fatal(who + " dispatch: host weights must be positive");
    return w;
}

/** The `dispatch.*` params schema (harness/policy_params.hh), shared
 *  by consistent-hash and power-pack. */
struct DispatchConfig
{
    int vnodes = 64;         //!< consistent-hash vnodes per unit weight
    double packLimit = 16.0; //!< power-pack weighted in-flight knee

    template <typename Key>
    void
    visit(Key &&key)
    {
        key("dispatch.vnodes", vnodes);
        key("dispatch.pack_limit", packLimit);
    }
};

DispatchConfig
dispatchParams(const PolicyParams &params)
{
    DispatchConfig config;
    readParams(params, "dispatch", config);
    if (config.vnodes < 1)
        fatal("dispatch.vnodes must be >= 1");
    if (config.packLimit <= 0.0)
        fatal("dispatch.pack_limit must be positive");
    return config;
}

REGISTER_PARAMS("dispatch", &dispatchParams, "dispatch policy tunables");

// --- flow-hash ---------------------------------------------------------

/** Weighted hash of the flow id: host i owns a hash-space interval
 *  proportional to weights[i]. Affinity, stateless, O(n) pick. */
class FlowHashDispatch : public DispatchPolicy
{
  public:
    explicit FlowHashDispatch(const DispatchContext &ctx)
        : weights_(checkedWeights(ctx, "flow-hash"))
    {
        cumulative_.reserve(weights_.size());
        double sum = 0.0;
        for (double w : weights_) {
            sum += w;
            cumulative_.push_back(sum);
        }
    }

    int
    pickHost(const Packet &pkt) override
    {
        double u = static_cast<double>(mix64(pkt.flowHash) >> 11) /
                   9007199254740992.0; // 2^53, u in [0, 1)
        double point = u * cumulative_.back();
        auto it = std::upper_bound(cumulative_.begin(),
                                   cumulative_.end(), point);
        if (it == cumulative_.end())
            --it;
        return static_cast<int>(it - cumulative_.begin());
    }

    std::string name() const override { return "flow-hash"; }

  private:
    std::vector<double> weights_;
    std::vector<double> cumulative_;
};

// --- consistent-hash ---------------------------------------------------

/**
 * Ring hash with virtual nodes ("dispatch.vnodes" per unit weight,
 * default 64). Affinity like flow-hash, but adding or removing one
 * host remaps only ~1/N of the flows — the property real L4 balancers
 * buy with Maglev/rendezvous hashing.
 */
class ConsistentHashDispatch : public DispatchPolicy
{
  public:
    explicit ConsistentHashDispatch(const DispatchContext &ctx)
    {
        std::vector<double> weights =
            checkedWeights(ctx, "consistent-hash");
        const int vnodes = dispatchParams(ctx.params).vnodes;
        for (int host = 0; host < ctx.numHosts; ++host) {
            int replicas = std::max(
                1, static_cast<int>(
                       static_cast<double>(vnodes) *
                       weights[static_cast<std::size_t>(host)]));
            // Double-mix the ring side: flow points use one mix64 of
            // small integers, so a single-mixed ring of small integers
            // would collide with them exactly (every flow would land
            // on the vnode with its own hash).
            for (int v = 0; v < replicas; ++v)
                ring_.push_back(
                    {mix64(mix64(static_cast<std::uint64_t>(host) *
                                     0x100000001b3ull +
                                 static_cast<std::uint64_t>(v))),
                     host});
        }
        std::sort(ring_.begin(), ring_.end());
    }

    int
    pickHost(const Packet &pkt) override
    {
        std::uint64_t point = mix64(pkt.flowHash);
        auto it = std::lower_bound(
            ring_.begin(), ring_.end(),
            std::pair<std::uint64_t, int>{point, -1});
        if (it == ring_.end())
            it = ring_.begin(); // wrap around the ring
        return it->second;
    }

    std::string name() const override { return "consistent-hash"; }

  private:
    std::vector<std::pair<std::uint64_t, int>> ring_;
};

// --- round-robin -------------------------------------------------------

/** Smooth weighted round robin (the nginx algorithm): deterministic,
 *  per-packet, spreads an a:b weight ratio evenly over time. */
class RoundRobinDispatch : public DispatchPolicy
{
  public:
    explicit RoundRobinDispatch(const DispatchContext &ctx)
        : weights_(checkedWeights(ctx, "round-robin")),
          current_(weights_.size(), 0.0),
          total_(std::accumulate(weights_.begin(), weights_.end(),
                                 0.0)),
          guard_(ctx)
    {
    }

    int
    pickHost(const Packet &pkt) override
    {
        (void)pkt;
        // Every host accrues credit (so a readmitted host rejoins at
        // its fair share), but only usable hosts may win the pick.
        int best = -1;
        for (std::size_t i = 0; i < weights_.size(); ++i) {
            current_[i] += weights_[i];
            if (!guard_.usable(static_cast<int>(i)))
                continue;
            if (best < 0 ||
                current_[i] > current_[static_cast<std::size_t>(best)]) {
                best = static_cast<int>(i);
            }
        }
        current_[static_cast<std::size_t>(best)] -= total_;
        return best;
    }

    std::string name() const override { return "round-robin"; }

  private:
    std::vector<double> weights_;
    std::vector<double> current_;
    double total_;
    HealthGuard guard_;
};

// --- least-outstanding -------------------------------------------------

/** Join-the-shortest-queue on the switch's in-flight counts,
 *  normalised by host weight; ties break to the lowest id. */
class LeastOutstandingDispatch : public DispatchPolicy
{
  public:
    explicit LeastOutstandingDispatch(const DispatchContext &ctx)
        : weights_(checkedWeights(ctx, "least-outstanding")),
          outstanding_(ctx.outstanding), guard_(ctx)
    {
        if (!outstanding_)
            fatal("least-outstanding dispatch needs the switch's "
                  "outstanding-request feedback");
    }

    int
    pickHost(const Packet &pkt) override
    {
        (void)pkt;
        int best = -1;
        double best_load = 0.0;
        for (int i = 0; i < static_cast<int>(weights_.size()); ++i) {
            if (!guard_.usable(i))
                continue;
            double l = load(i);
            if (best < 0 || l < best_load) {
                best = i;
                best_load = l;
            }
        }
        return best;
    }

    std::string name() const override { return "least-outstanding"; }

  private:
    double
    load(int host) const
    {
        return static_cast<double>(outstanding_(host)) /
               weights_[static_cast<std::size_t>(host)];
    }

    std::vector<double> weights_;
    std::function<std::uint64_t(int)> outstanding_;
    HealthGuard guard_;
};

// --- power-pack --------------------------------------------------------

/**
 * Power-aware packing: fill hosts in id order, spilling to the next
 * host only once a host's weighted in-flight count reaches
 * "dispatch.pack_limit" (default 16). High-id hosts see zero traffic
 * until the cluster actually needs them, so their cores — and with
 * every core idle, the package — can sit in the deepest C-state; the
 * spill knee bounds how much queueing the packing may inflict.
 * Overload (every host at the knee) degrades to least-outstanding.
 */
class PowerPackDispatch : public DispatchPolicy
{
  public:
    explicit PowerPackDispatch(const DispatchContext &ctx)
        : weights_(checkedWeights(ctx, "power-pack")),
          outstanding_(ctx.outstanding),
          packLimit_(dispatchParams(ctx.params).packLimit),
          guard_(ctx)
    {
        if (!outstanding_)
            fatal("power-pack dispatch needs the switch's "
                  "outstanding-request feedback");
    }

    int
    pickHost(const Packet &pkt) override
    {
        (void)pkt;
        int fallback = -1;
        double fallback_load = 0.0;
        for (int i = 0; i < static_cast<int>(weights_.size()); ++i) {
            if (!guard_.usable(i))
                continue;
            double l = load(i);
            if (l < packLimit_)
                return i;
            if (fallback < 0 || l < fallback_load) {
                fallback = i;
                fallback_load = l;
            }
        }
        return fallback;
    }

    std::string name() const override { return "power-pack"; }

  private:
    double
    load(int host) const
    {
        return static_cast<double>(outstanding_(host)) /
               weights_[static_cast<std::size_t>(host)];
    }

    std::vector<double> weights_;
    std::function<std::uint64_t(int)> outstanding_;
    double packLimit_;
    HealthGuard guard_;
};

// --- Registrations -----------------------------------------------------

template <typename P>
std::unique_ptr<DispatchPolicy>
make(const DispatchContext &ctx)
{
    return std::make_unique<P>(ctx);
}

REGISTER_DISPATCH_POLICY(
    "flow-hash", &make<FlowHashDispatch>,
    "weighted flow-id hash; keeps each flow on one host");
REGISTER_DISPATCH_POLICY(
    "consistent-hash", &make<ConsistentHashDispatch>,
    "ring hash with virtual nodes; stable under host changes");
REGISTER_DISPATCH_POLICY(
    "round-robin", &make<RoundRobinDispatch>,
    "smooth weighted round robin, per packet");
REGISTER_DISPATCH_POLICY(
    "least-outstanding", &make<LeastOutstandingDispatch>,
    "join-the-shortest-queue on in-flight requests");
REGISTER_DISPATCH_POLICY(
    "power-pack", &make<PowerPackDispatch>,
    "pack hosts in id order up to dispatch.pack_limit; spares idle "
    "deeply");

} // namespace

/** Link anchor: forces this TU (and its registrars) out of the
 *  static archive; see ensureBuiltinDispatchPolicies(). */
void
linkBuiltinDispatchPolicies()
{
}

} // namespace nmapsim
