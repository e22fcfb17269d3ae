/**
 * @file
 * Agreement between the closed-form PCM integrator (Pcm::step, the
 * only production path) and the explicit sub-stepped oracle in
 * tests/reference/substep_pcm.h. The binary carries the ctest label
 * "kernel", so the release-codegen CI job runs these next to the
 * thermal-kernel lockstep suites.
 */

#include <gtest/gtest.h>

#include "reference/substep_pcm.h"
#include "thermal/pcm.h"

namespace vmt {
namespace {

using reference::SubstepPcm;

PcmParams
testWax()
{
    PcmParams p;
    p.meltTemp = 35.7;
    p.volume = 4.0;
    p.densityKgPerL = 0.88;
    p.latentHeat = 240000.0;
    p.conductance = 86.0;
    return p;
}

/** Energy conservation holds (to rounding) under both integrators:
 *  the closed form returns the enthalpy delta exactly, the oracle
 *  accumulates it sub-step by sub-step. */
TEST(Pcm, AbsorbedMatchesEnthalpyDeltaBothIntegrators)
{
    Pcm closed(testWax(), 22.0);
    Joules before = closed.enthalpy();
    Joules absorbed = closed.step(80.0, 6.0 * 3600.0);
    absorbed += closed.step(10.0, 12.0 * 3600.0);
    EXPECT_DOUBLE_EQ(absorbed, closed.enthalpy() - before) << "closed";

    SubstepPcm substep(testWax(), 22.0);
    before = substep.enthalpy();
    absorbed = substep.step(80.0, 6.0 * 3600.0);
    absorbed += substep.step(10.0, 12.0 * 3600.0);
    EXPECT_DOUBLE_EQ(absorbed, substep.enthalpy() - before)
        << "substep";
}

/**
 * The documented closed-vs-substep tolerance at the study's
 * one-minute interval: per-interval melt fractions within 0.02,
 * temperatures within 0.7 C during sensible transients (the substep
 * integrator is first-order explicit, so it lags the exact closed
 * form most where the temperature moves fastest) tightening to 0.2 C
 * once on the plateau, and total absorbed energy within 1% of the
 * latent capacity over a full melt.
 */
TEST(PcmClosed, MatchesSubstepAcrossRegimes)
{
    Pcm closed(testWax(), 22.0);
    SubstepPcm substep(testWax(), 22.0);
    Joules closed_abs = 0.0;
    Joules substep_abs = 0.0;
    for (int i = 0; i < 600; ++i) {
        closed_abs += closed.step(42.0, 60.0);
        substep_abs += substep.step(42.0, 60.0);
        EXPECT_NEAR(closed.meltFraction(), substep.meltFraction(),
                    0.02);
        const bool on_plateau = closed.meltFraction() > 0.0 &&
                                closed.meltFraction() < 1.0 &&
                                substep.meltFraction() > 0.0 &&
                                substep.meltFraction() < 1.0;
        const double temp_tol = on_plateau ? 0.2 : 0.7;
        EXPECT_NEAR(closed.temperature(), substep.temperature(),
                    temp_tol)
            << "step " << i;
    }
    EXPECT_TRUE(closed.fullyMelted());
    EXPECT_TRUE(substep.fullyMelted());
    EXPECT_NEAR(closed_abs, substep_abs,
                testWax().latentCapacity() * 0.01);
}

} // namespace
} // namespace vmt
