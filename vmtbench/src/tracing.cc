#include "tracing.h"

namespace vmtbench {

std::int32_t
Tracer::add(const char *name, std::int64_t start, std::int64_t end,
            std::int32_t parent, std::int64_t interval)
{
    spans_.push_back(Span{name, start, end, parent, interval});
    return static_cast<std::int32_t>(spans_.size() - 1);
}

void
Tracer::setEnd(std::int32_t span, std::int64_t end)
{
    spans_.at(static_cast<std::size_t>(span)).end = end;
}

std::map<std::string, double>
Tracer::selfSeconds() const
{
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span &span : spans_)
        if (span.parent != kNoParent)
            child_ns[static_cast<std::size_t>(span.parent)] +=
                span.end - span.start;
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        self[spans_[i].name] +=
            static_cast<double>(spans_[i].end - spans_[i].start -
                                child_ns[i]) *
            1e-9;
    return self;
}

std::map<std::string, double>
Tracer::totalSeconds() const
{
    std::map<std::string, double> total;
    for (const Span &span : spans_)
        total[span.name] += secondsBetween(span.start, span.end);
    return total;
}

void
Tracer::writeJsonl(std::ostream &out, const std::string &op) const
{
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << "{\"op\":\"" << op << "\",\"id\":" << i
            << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.start
            << ",\"end_ns\":" << s.end << ",\"parent\":" << s.parent
            << ",\"interval\":" << s.interval << "}\n";
    }
}

} // namespace vmtbench
