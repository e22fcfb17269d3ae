#include "state/config_echo.h"

#include <sstream>

#include "state/serializer.h"
#include "util/logging.h"

namespace vmt {

void
configMismatch(const std::string &context, const std::string &what)
{
    fatal(context + " does not match the configured run (" + what +
          "); resume requires the exact configuration that produced "
          "the checkpoint");
}

template <typename T>
void
ConfigEcho::check(const char *field, const T &saved, const T &run) const
{
    if (saved == run)
        return;
    // Round-trip precision: constants that differ past the sixth
    // digit must not print alike.
    std::ostringstream what;
    what.precision(17);
    what << std::boolalpha << field << ": snapshot " << saved
         << ", run " << run;
    configMismatch(context_, what.str());
}

void
ConfigEcho::u64(const char *field, std::uint64_t run)
{
    if (out_)
        out_->putU64(run);
    else
        check(field, in_->getU64(), run);
}

void
ConfigEcho::u8(const char *field, std::uint8_t run)
{
    if (out_)
        out_->putU8(run);
    else
        check<unsigned>(field, in_->getU8(), run);
}

void
ConfigEcho::f64(const char *field, double run)
{
    if (out_)
        out_->putDouble(run);
    else
        check(field, in_->getDouble(), run);
}

void
ConfigEcho::flag(const char *field, bool run)
{
    if (out_)
        out_->putBool(run);
    else
        check(field, in_->getBool(), run);
}

void
ConfigEcho::text(const char *field, const std::string &run)
{
    if (out_)
        out_->putString(run);
    else
        check(field, in_->getString(), run);
}

void
ConfigEcho::pcmIntegrator()
{
    if (out_) {
        out_->putU8(0);
        return;
    }
    const unsigned byte = in_->getU8();
    if (byte == 1)
        configMismatch(context_,
                       "PCM integrator: snapshot was written with the "
                       "sub-stepped integrator, which has been removed; "
                       "only the closed-form integrator (byte 0) can "
                       "resume");
    if (byte != 0)
        configMismatch(context_, "PCM integrator: invalid byte " +
                                     std::to_string(byte) +
                                     " (only 0, the closed-form "
                                     "integrator, is valid)");
}

} // namespace vmt
