/**
 * @file
 * One field list per snapshot configuration echo.
 *
 * A snapshot echoes the parameters of the run that wrote it, and the
 * loader refuses a resume under different ones: bitwise-identical
 * resume needs the exact same constants. Each echo is one function
 * that lists its fields through a ConfigEcho. The save path runs it
 * on a writer and the load path on a checker, so the encoding and its
 * check cannot drift apart in field order or type.
 */

#ifndef VMT_STATE_CONFIG_ECHO_H
#define VMT_STATE_CONFIG_ECHO_H

#include <cstdint>
#include <string>
#include <utility>

namespace vmt {

class Deserializer;
class Serializer;

/** @throws FatalError: a @p context snapshot (e.g. "serve snapshot")
 *  disagrees with the configured run on @p what. */
[[noreturn]] void configMismatch(const std::string &context,
                                 const std::string &what);

/** Writes or checks a configuration echo, one typed field a call. */
class ConfigEcho
{
  public:
    /** Writer: each call appends the run's value to @p out. */
    explicit ConfigEcho(Serializer &out) : out_(&out) {}

    /** Checker: each call reads the saved value and compares it
     *  exactly with the run's; a difference is a configMismatch
     *  naming the field and both values. */
    ConfigEcho(Deserializer &in, std::string context)
        : in_(&in), context_(std::move(context))
    {}

    /** Also for sizes: both are 64 bits on disk. */
    void u64(const char *field, std::uint64_t run);
    void u8(const char *field, std::uint8_t run);
    void f64(const char *field, double run);
    void flag(const char *field, bool run);
    void text(const char *field, const std::string &run);
    /** The byte naming the run's PCM integrator. The closed form (0)
     *  is the only one left; 1 names the removed sub-stepped one. */
    void pcmIntegrator();

  private:
    template <typename T>
    void check(const char *field, const T &saved, const T &run) const;

    Serializer *out_ = nullptr;
    Deserializer *in_ = nullptr;
    std::string context_;
};

} // namespace vmt

#endif // VMT_STATE_CONFIG_ECHO_H
