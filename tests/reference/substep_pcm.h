/**
 * @file
 * The explicit sub-stepped PCM integrator — the original Pcm::step,
 * kept bit-for-bit as the oracle the closed form is checked against
 * (tests/kernel/test_pcm_reference.cc). Not linked into the
 * simulator: production PCM stepping is the closed form only.
 */

#ifndef VMT_TESTS_REFERENCE_SUBSTEP_PCM_H
#define VMT_TESTS_REFERENCE_SUBSTEP_PCM_H

#include "thermal/pcm.h"
#include "util/units.h"

namespace vmt::reference {

/** A Pcm advanced by explicit sub-steps instead of the closed form.
 *  Readbacks (temperature, melt fraction) are the Pcm's own. */
class SubstepPcm
{
  public:
    /** Same parameters and initial state as Pcm's constructor. */
    explicit SubstepPcm(const PcmParams &params,
                        Celsius initial_temp = 22.0);

    /**
     * Advance by dt against the given air temperature in
     * ceil(dt / max(1 s, tau / 5)) equal explicit sub-steps, where
     * tau = m min(c_s, c_l) / G is the faster sensible time constant.
     *
     * @return Heat absorbed, accumulated sub-step by sub-step — the
     *         historical convention, which is NOT always bitwise the
     *         net enthalpy change.
     * @throws FatalError unless dt > 0.
     */
    Joules step(Celsius air_temp, Seconds dt);

    Celsius temperature() const { return pcm_.temperature(); }
    double meltFraction() const { return pcm_.meltFraction(); }
    bool fullyMelted() const { return pcm_.fullyMelted(); }
    Joules enthalpy() const { return pcm_.enthalpy(); }

  private:
    /** Holds the enthalpy state and the derived constants. */
    Pcm pcm_;
};

} // namespace vmt::reference

#endif // VMT_TESTS_REFERENCE_SUBSTEP_PCM_H
