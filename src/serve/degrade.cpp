#include "serve/degrade.hpp"

namespace voyager::serve {

DegradeVerdict
ServeHealthMonitor::on_response(bool deadline_miss)
{
    if (cfg_.window == 0)
        return DegradeVerdict::Hold;
    ++window_responses_;
    if (deadline_miss)
        ++window_misses_;
    if (window_responses_ < cfg_.window)
        return DegradeVerdict::Hold;

    const double miss_rate = static_cast<double>(window_misses_) /
                             static_cast<double>(window_responses_);
    const std::uint32_t faults = window_faults_;
    window_responses_ = 0;
    window_misses_ = 0;
    window_faults_ = 0;

    if (faults >= kFaultsDown || miss_rate >= kMissRateDown) {
        healthy_streak_ = 0;
        return DegradeVerdict::StepDown;
    }
    if (faults == 0 && miss_rate <= kMissRateUp) {
        if (++healthy_streak_ >= kHealthyWindowsUp) {
            healthy_streak_ = 0;
            return DegradeVerdict::StepUp;
        }
    } else {
        healthy_streak_ = 0;
    }
    return DegradeVerdict::Hold;
}

}  // namespace voyager::serve
