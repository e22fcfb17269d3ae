#include "thermal/wax_state_estimator.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/logging.h"

namespace vmt {

WaxStateEstimator::WaxStateEstimator(const PcmParams &params,
                                     Kelvin bucket_width, Kelvin span)
    : params_(params), bucketWidth_(bucket_width), span_(span)
{
    if (bucket_width <= 0.0 || span <= 0.0)
        fatal("WaxStateEstimator requires positive bucket width/span");

    // One bucket per quantized delta in [-span, +span]; the entry is
    // the conductance model evaluated at the bucket center. The
    // sensor sits on the container skin, midway between air and wax,
    // so while the wax is in transition (wax side pinned at the
    // melting point) the air-to-wax flow G (T_air - T_melt) equals
    // 2 G (T_container - T_melt) — hence the factor of two.
    const auto buckets =
        static_cast<std::size_t>(std::ceil(2.0 * span / bucket_width)) + 1;
    std::vector<Watts> table;
    table.reserve(buckets);
    for (std::size_t i = 0; i < buckets; ++i) {
        const Kelvin center =
            -span + (static_cast<double>(i) + 0.5) * bucket_width;
        table.push_back(2.0 * params.conductance * center);
    }
    table_ = std::make_shared<const std::vector<Watts>>(std::move(table));
}

void
WaxStateEstimator::update(Celsius container_temp, Seconds dt)
{
    if (dt <= 0.0)
        fatal("WaxStateEstimator::update requires dt > 0");

    // The single exterior sensor reads (approximately) the air at the
    // container; while melting/freezing the wax side sits at the
    // melting temperature, so the delta to the melting point indexes
    // the flow table. Outside the transition the estimate saturates.
    waxEstimatorIntegrate(estimatedEnthalpy_, table_->data(),
                          table_->size(), bucketWidth_, span_,
                          params_.latentCapacity(), params_.meltTemp,
                          container_temp, dt);
}

double
WaxStateEstimator::estimate() const
{
    return estimatedEnthalpy_ / params_.latentCapacity();
}

void
WaxStateEstimator::reset()
{
    estimatedEnthalpy_ = 0.0;
}

} // namespace vmt
