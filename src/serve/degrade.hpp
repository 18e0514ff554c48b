/**
 * @file
 * Serve-side degradation ladder (DESIGN.md §5.19). A ServeHealthMonitor
 * watches fixed-size windows of responses for deadline misses and
 * predictor faults and tells the PrefetchServer when to step DOWN the
 * quality/latency ladder (fp32 → int8 → tabular → heuristic) and when
 * the load has subsided enough to step back UP. Recovery is hysteretic:
 * one healthy window is not enough, the monitor demands a configurable
 * streak so the ladder cannot oscillate between rungs every window.
 *
 * Everything here is driven purely by the server's virtual-tick
 * response sequence, so the rung trajectory under a seeded fault plan
 * is byte-identically reproducible (the chaos goldens pin it).
 */
#pragma once

#include <cstdint>
#include <functional>
#include <string>

namespace voyager::serve {

class TokenPredictor;
class HeuristicEngine;

/** Thresholds of the degradation state machine. */
struct DegradeConfig
{
    /** Responses per observation window; 0 turns the monitor off
     *  and the server stays on rung 0. */
    std::uint32_t window = 64;
    /** Step down when a window's deadline-miss rate reaches this. */
    double miss_rate_down = 0.5;
    /** Step down when a window sees this many predictor faults. */
    std::uint32_t faults_down = 1;
    /** A window is healthy when fault-free and at or below this. */
    double miss_rate_up = 0.1;
    /** Healthy windows in a row required to step back up. */
    std::uint32_t healthy_windows_up = 2;
};

/** What the monitor wants the server to do after a response. */
enum class DegradeVerdict : std::uint8_t
{
    Hold = 0,      ///< stay on the current rung
    StepDown = 1,  ///< degrade one rung (if not already at the bottom)
    StepUp = 2,    ///< recover one rung (if not already at the top)
};

/**
 * Windowed deadline-miss / predictor-fault watchdog. The server feeds
 * it one on_response() per emitted response (and on_fault() per failed
 * predictor attempt); at each window boundary it renders a verdict.
 */
class ServeHealthMonitor
{
  public:
    explicit ServeHealthMonitor(const DegradeConfig &cfg) : cfg_(cfg) {}

    /** Record a predictor fault inside the current window. */
    void on_fault() { ++window_faults_; }

    /**
     * Record one response. @return the verdict — always Hold inside a
     * window; at the window boundary, StepDown when the window tripped
     * a threshold, StepUp when the healthy streak is long enough.
     */
    DegradeVerdict on_response(bool deadline_miss);

    /** Healthy-window streak accumulated so far (for tests). */
    std::uint32_t healthy_streak() const { return healthy_streak_; }

  private:
    DegradeConfig cfg_;
    std::uint32_t window_responses_ = 0;
    std::uint32_t window_misses_ = 0;
    std::uint32_t window_faults_ = 0;
    std::uint32_t healthy_streak_ = 0;
};

/**
 * One rung of the degradation ladder: either a TokenPredictor (fp32,
 * int8, tabular, a test stub, ...) or a HeuristicEngine terminal rung.
 * Exactly one of `predictor` / `heuristic` is non-null; both pointers
 * are borrowed and must outlive the server.
 */
struct EngineRung
{
    /** Stats label, e.g. "fp32"; keys serve.degrade.<name>.* */
    std::string name;
    TokenPredictor *predictor = nullptr;
    HeuristicEngine *heuristic = nullptr;
    /** Invoked when the ladder lands on this rung (e.g. toggling
     *  VoyagerAdapter::enable_int8_inference). May be empty. */
    std::function<void()> on_activate;
};

}  // namespace voyager::serve
