#include "reference/substep_pcm.h"

#include <algorithm>
#include <cmath>

#include "thermal/pcm_kernel.h"
#include "util/logging.h"

namespace vmt::reference {

SubstepPcm::SubstepPcm(const PcmParams &params, Celsius initial_temp)
    : pcm_(params, initial_temp)
{}

Joules
SubstepPcm::step(Celsius air_temp, Seconds dt)
{
    if (dt <= 0.0)
        fatal("SubstepPcm::step requires dt > 0");
    const PcmParams &p = pcm_.params();
    const PcmDerived &d = pcm_.derived();
    // Sub-step so explicit integration stays well inside the sensible
    // regime's time constant (m c / G, ~4-5 minutes with defaults).
    const Seconds sensible_tau =
        d.mass * std::min(p.specificHeatSolid, p.specificHeatLiquid) /
        p.conductance;
    const int count = static_cast<int>(
        std::ceil(dt / std::max(1.0, sensible_tau / 5.0)));
    const Seconds len = dt / count;

    double h = pcm_.enthalpy();
    Joules absorbed = 0.0;
    for (int i = 0; i < count; ++i) {
        const Watts flow =
            p.conductance * (air_temp - pcmTemperature(p, d, h));
        const Joules dq = flow * len;
        h += dq;
        absorbed += dq;
    }
    pcm_.restoreEnthalpy(h);
    return absorbed;
}

} // namespace vmt::reference
