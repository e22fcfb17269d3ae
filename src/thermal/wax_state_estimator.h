/**
 * @file
 * Lightweight per-server wax-state model (the paper's "Tracking Wax
 * State" mechanism, after Skach et al., IEEE IC 2017 [24]).
 *
 * Each deployed server runs a model that estimates the current melt
 * fraction from sensors it already has: a single temperature sensor on
 * the wax container exterior plus CPU power/temperature. The paper's
 * model is a lookup table; we reproduce that: the temperature delta to
 * the melting point is quantized into table buckets, each mapping to a
 * heat-flow estimate, which is integrated once per update period. The
 * estimator therefore drifts from ground truth (quantization error),
 * which is precisely why the wax threshold exists (Fig. 17).
 */

#ifndef VMT_THERMAL_WAX_STATE_ESTIMATOR_H
#define VMT_THERMAL_WAX_STATE_ESTIMATOR_H

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "thermal/thermal_params.h"
#include "util/units.h"

namespace vmt {

/**
 * One estimator update: quantize the sensor delta, integrate the
 * table's flow estimate, clamp to the physical range. The single
 * source of the update expression — WaxStateEstimator::update and the
 * batched ThermalSoA kernel both evaluate this, so per-object and SoA
 * estimates are bitwise identical. The table is a pure function of
 * (PcmParams, bucket_width, span), so identical servers share one
 * table (copies of an estimator share it).
 *
 * @param estimated_enthalpy Integrated estimate, advanced in place.
 */
/** Quantize a sensor delta to its table bucket. Split from the
 *  integration so the SoA kernel can run this pure-FP part as one
 *  vectorized sweep into an index array; int, not size_t, because the
 *  bucket position is small and non-negative (delta >= -span) and
 *  packed double->int32 conversion vectorizes. */
inline int
waxEstimatorBucket(std::size_t table_size, Kelvin bucket_width,
                   Kelvin span, Celsius melt_temp,
                   Celsius container_temp)
{
    const Kelvin delta =
        std::clamp(container_temp - melt_temp, -span, span);
    // The int cast truncates toward zero, which on this non-negative
    // position (delta >= -span, so delta + span >= 0) IS the floor —
    // no std::floor call, which the vectorizer refuses outside
    // fast-math. min on doubles first, so saturation at the top
    // bucket is exact.
    return static_cast<int>(std::min(
        static_cast<double>(table_size - 1),
        (delta + span) / bucket_width));
}

/** Integrate one looked-up flow estimate and clamp to the physical
 *  range (the other half of the split update). */
inline void
waxEstimatorApply(double &estimated_enthalpy, Watts flow,
                  Joules latent_capacity, Seconds dt)
{
    estimated_enthalpy += flow * dt;
    estimated_enthalpy =
        std::clamp(estimated_enthalpy, 0.0, latent_capacity);
}

inline void
waxEstimatorIntegrate(double &estimated_enthalpy,
                      const Watts *table, std::size_t table_size,
                      Kelvin bucket_width, Kelvin span,
                      Joules latent_capacity, Celsius melt_temp,
                      Celsius container_temp, Seconds dt)
{
    const int idx = waxEstimatorBucket(table_size, bucket_width,
                                       span, melt_temp,
                                       container_temp);
    waxEstimatorApply(estimated_enthalpy, table[idx],
                      latent_capacity, dt);
}

/** Table-driven online estimate of a server's wax melt fraction. */
class WaxStateEstimator
{
  public:
    /**
     * Build the lookup table for a wax load.
     * @param params Wax properties the table is derived from.
     * @param bucket_width Temperature quantization in kelvin (> 0).
     * @param span Largest |T_air - T_melt| the table covers; deltas
     *        beyond the span saturate at the edge buckets.
     */
    explicit WaxStateEstimator(const PcmParams &params,
                               Kelvin bucket_width = 0.05,
                               Kelvin span = 20.0);

    /**
     * Fold one sensor reading into the estimate.
     * @param container_temp Measured wax-container exterior skin
     *        temperature (the paper's single sensor; see
     *        ThermalSample::containerTemp).
     * @param dt Time since the previous update (seconds, > 0).
     */
    void update(Celsius container_temp, Seconds dt);

    /** Current melt fraction estimate in [0, 1]. */
    double estimate() const;

    /** Reset to fully solid (e.g., after a wax swap). */
    void reset();

    /** Integrated enthalpy estimate (checkpoint save); this is the
     *  estimator's only dynamic state — the lookup table is derived
     *  from the construction parameters. */
    Joules estimatedEnthalpy() const { return estimatedEnthalpy_; }

    /** Jump the integrated estimate (checkpoint restore), preserving
     *  any accumulated quantization drift exactly. */
    void restoreEnthalpy(Joules enthalpy)
    {
        estimatedEnthalpy_ = enthalpy;
    }

    /** Number of table buckets (for introspection/tests). */
    std::size_t tableSize() const { return table_->size(); }

    /** The flow table itself (shared-table construction in the SoA
     *  kernel; see waxEstimatorIntegrate). */
    const std::vector<Watts> &table() const { return *table_; }

    /** Quantization width the table was built with. */
    Kelvin bucketWidth() const { return bucketWidth_; }

    /** Saturation span the table was built with. */
    Kelvin span() const { return span_; }

  private:
    PcmParams params_;
    Kelvin bucketWidth_;
    Kelvin span_;
    /** Heat-flow estimate (W) per bucket; immutable, copies share it. */
    std::shared_ptr<const std::vector<Watts>> table_;
    Joules estimatedEnthalpy_ = 0.0;
};

} // namespace vmt

#endif // VMT_THERMAL_WAX_STATE_ESTIMATOR_H
