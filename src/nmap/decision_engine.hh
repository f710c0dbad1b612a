/**
 * @file
 * NMAP's Decision Engine (Algorithm 2 of the paper).
 *
 * Per core, the engine switches between two power-management modes:
 *
 *  - **Network Intensive Mode** — entered immediately when the monitor
 *    notifies: the CPU-utilisation governor is disabled for the core and
 *    its V/F is maximised (P0).
 *  - **CPU Utilisation based Mode** — re-entered at a periodic check
 *    when the windowed polling-to-interrupt ratio drops below CU_TH:
 *    the utilisation-based P-state is enforced and the ondemand governor
 *    re-enabled.
 */

#ifndef NMAPSIM_NMAP_DECISION_ENGINE_HH_
#define NMAPSIM_NMAP_DECISION_ENGINE_HH_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "cpu/core.hh"
#include "governors/ondemand.hh"
#include "nmap/monitor.hh"
#include "sim/event_queue.hh"

namespace nmapsim {

/** NMAP tunables. */
struct NmapConfig
{
    Tick timerInterval = milliseconds(10); //!< periodic check (6.1)
    /** NI_TH: polling packets per interrupt that trigger Network
     *  Intensive Mode. <= 0 means "derive via offline profiling"
     *  (Section 4.2), which the harness performs automatically. */
    double niThreshold = 0.0;
    /** CU_TH: polling/interrupt ratio below which the engine falls
     *  back to CPU Utilisation based Mode. <= 0 means "profile". */
    double cuThreshold = 0.0;
    /** Profile when NI_TH is unset; false runs with the given values. */
    bool autoProfile = true;

    /**
     * Chip-wide variant for processors without per-core DVFS
     * (Section 2.2): any core crossing NI_TH maximises the V/F of
     * *all* cores, and the fallback requires the aggregate
     * polling/interrupt ratio to drop. Costs energy relative to the
     * default per-core mode (bench/ablation_chipwide quantifies it).
     */
    bool chipWide = false;

    /** The `nmap.*` params schema (harness/policy_params.hh). */
    template <typename Key>
    void
    visit(Key &&key)
    {
        key("nmap.timer_interval", timerInterval);
        key("nmap.ni_th", niThreshold);
        key("nmap.cu_th", cuThreshold);
        key("nmap.auto_profile", autoProfile);
    }
};

/** Chooses the power-management mode per core. */
class DecisionEngine
{
  public:
    /**
     * @param cores    the package's cores (P0 requests go here)
     * @param fallback CPU-utilisation governor used in CPU mode;
     *                 borrowed, must outlive the engine
     * @param monitor  windowed counters source; borrowed
     */
    DecisionEngine(EventQueue &eq, std::vector<Core *> cores,
                   OndemandGovernor &fallback,
                   ModeTransitionMonitor &monitor,
                   const NmapConfig &config);
    ~DecisionEngine();

    DecisionEngine(const DecisionEngine &) = delete;
    DecisionEngine &operator=(const DecisionEngine &) = delete;

    /** Start the periodic timer. */
    void start();

    /** Monitor notification: core crossed NI_TH (Alg. 2 lines 2-5). */
    void onNotification(int core);

    /** True when @p core is in Network Intensive Mode. */
    bool networkIntensive(int core) const;

    /** Update CU_TH at runtime (online threshold adaptation). */
    void setCuThreshold(double cu_th) { config_.cuThreshold = cu_th; }
    double cuThreshold() const { return config_.cuThreshold; }

    /**
     * Observer of the periodic ratio evaluation: called once per core
     * (or once with core = -1 in chip-wide mode) on every timer tick
     * with the window's polling/interrupt ratio and whether the core
     * was in Network Intensive Mode. Drives online threshold learning.
     */
    using RatioHook = std::function<void(int core, double ratio,
                                         bool network_intensive)>;
    void setRatioHook(RatioHook hook) { ratioHook_ = std::move(hook); }

    std::uint64_t modeSwitchesToNi() const { return toNi_; }
    std::uint64_t modeSwitchesToCpu() const { return toCpu_; }

  private:
    void onTimer();

    EventQueue &eq_;
    std::vector<Core *> cores_;
    OndemandGovernor &fallback_;
    ModeTransitionMonitor &monitor_;
    NmapConfig config_;
    RatioHook ratioHook_;

    std::vector<bool> niMode_;
    std::uint64_t toNi_ = 0;
    std::uint64_t toCpu_ = 0;

    EventFunctionWrapper timerEvent_;
};

} // namespace nmapsim

#endif // NMAPSIM_NMAP_DECISION_ENGINE_HH_
