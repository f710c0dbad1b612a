/**
 * @file
 * The server-side application (memcached/nginx model).
 *
 * One application thread per core (the paper runs eight threads on the
 * eight-core Xeon). NAPI delivers request packets into the per-core
 * socket queue; the thread consumes them FIFO, burning the request's
 * sampled service cycles at the core's current frequency, then transmits
 * the response through the NIC queue of its core.
 */

#ifndef NMAPSIM_WORKLOAD_SERVER_APP_HH_
#define NMAPSIM_WORKLOAD_SERVER_APP_HH_

#include <cstdint>
#include <memory>
#include <vector>

#include "net/nic.hh"
#include "os/server_os.hh"
#include "resilience/admission.hh"
#include "resilience/plan.hh"
#include "sim/pool.hh"
#include "sim/rng.hh"
#include "workload/app_profile.hh"

namespace nmapsim {

/** Multi-threaded latency-critical server application. */
class ServerApp
{
  public:
    /**
     * Wires itself into @p os: one application thread per core, and —
     * unless @p attach_deliver is false — the OS deliver callback.
     * Pass false when several apps share the server (colocation); the
     * caller then routes packets to deliver() itself.
     */
    ServerApp(ServerOs &os, Nic &nic, const AppProfile &profile,
              Rng rng, bool attach_deliver = true);

    /** Hand a request packet to this app's thread on @p core. */
    void deliver(int core, const Packet &pkt) { onPacket(core, pkt); }

    const AppProfile &profile() const { return profile_; }

    std::uint64_t requestsCompleted() const { return completed_; }
    std::uint64_t requestsReceived() const { return received_; }
    std::uint64_t requestsForwarded() const { return forwarded_; }

    /**
     * Forwarding role: when set, a completed request is re-emitted as
     * a request packet for the next service tier instead of a
     * response. The switch owns tier advancement; the app only echoes
     * the addressing fields. Configure before traffic starts.
     */
    void setForwardDownstream(bool forward) { forward_ = forward; }

    /**
     * Multiplier on sampled service cycles (tier heterogeneity, e.g. a
     * thin LB tier vs a heavy app tier). Must be positive; 1.0 leaves
     * the sampled stream untouched bit for bit.
     */
    void setServiceScale(double scale);

    /**
     * Arm overload control from a validated plan: an AdmissionPolicy
     * instance per thread gating arrivals and serves, plus
     * deadline-expiry shedding at both points. Shed requests are
     * answered with a `rejected` response so the client can account
     * for them; nothing is constructed when the plan carries neither
     * admission nor a deadline. Configure before traffic starts.
     */
    void setResilience(const ResiliencePlan &plan);

    /** @name Shed accounting (zero when resilience is off) */
    /**@{*/
    /** Arrivals refused by the admission policy. */
    std::uint64_t shedAdmission() const { return shedAdmission_; }
    /** Queued requests shed at serve time (sojourn law). */
    std::uint64_t shedSojourn() const { return shedSojourn_; }
    /** Requests shed because their deadline had already passed. */
    std::uint64_t shedDeadline() const { return shedDeadline_; }
    /**@}*/

    /** Requests waiting (or in service) on @p core's thread. */
    std::size_t queueDepth(int core) const;

    /** Sum of queue depths over all cores. */
    std::size_t totalQueued() const;

  private:
    struct PendingRequest
    {
        std::uint64_t requestId;
        double cycles;
        std::uint32_t flowHash;
        Tick sendTime;
        bool latencyCritical;
        std::uint8_t tier;
        std::uint8_t hops;
        Tick hopStart;
        Tick deadline;
        Tick enqueuedAt;
    };

    class AppThread : public SimThread
    {
      public:
        AppThread(ServerApp &app, int core)
            : app_(app), core_(core)
        {
        }

        bool runnable() const override { return !queue_.empty(); }
        double beginSlice() override { return queue_.front().cycles; }
        void completeSlice() override { app_.finishFront(core_); }
        std::string name() const override { return "app"; }

      private:
        friend class ServerApp;
        ServerApp &app_;
        int core_;
        Ring<PendingRequest> queue_;
    };

    void onPacket(int core, const Packet &pkt);
    void finishFront(int core);
    void reject(int core, const PendingRequest &req);
    Tick now();

    ServerOs &os_;
    Nic &nic_;
    AppProfile profile_;
    Rng rng_;
    std::vector<std::unique_ptr<AppThread>> threads_;

    std::uint64_t received_ = 0;
    std::uint64_t completed_ = 0;
    std::uint64_t forwarded_ = 0;
    bool forward_ = false;
    double serviceScale_ = 1.0;

    bool resilient_ = false;
    bool deadlineSheds_ = false;
    std::vector<std::unique_ptr<AdmissionPolicy>> admission_;
    std::uint64_t shedAdmission_ = 0;
    std::uint64_t shedSojourn_ = 0;
    std::uint64_t shedDeadline_ = 0;
};

} // namespace nmapsim

#endif // NMAPSIM_WORKLOAD_SERVER_APP_HH_
