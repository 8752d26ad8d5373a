#include "obs/stream.hh"

#include <cinttypes>

namespace emc::obs
{

StatStreamer::StatStreamer(const std::string &path, Cycle interval)
    : interval_(interval < 1 ? 1 : interval)
{
    next_ = interval_;
    out_ = std::fopen(path.c_str(), "w");
}

StatStreamer::~StatStreamer()
{
    if (out_)
        std::fclose(out_);
    out_ = nullptr;
}

void
StatStreamer::writeLine(Cycle now, const StatDump &d)
{
    std::fprintf(out_, "{\"cycle\":%" PRIu64 ",\"stats\":{",
                 static_cast<std::uint64_t>(now));
    bool first = true;
    for (const auto &[name, value] : d.all()) {
        std::fprintf(out_, "%s\"%s\":%.9g", first ? "" : ",",
                     name.c_str(), value);
        first = false;
    }
    std::fputs("}}\n", out_);
    ++lines_;
}

void
StatStreamer::snapshot(Cycle now, const StatDump &d)
{
    if (!out_ || now < next_)
        return;
    writeLine(now, d);
    // Advance past `now` in whole intervals: a cycle-skipped idle
    // region yields one snapshot, not a burst of stale duplicates.
    next_ += ((now - next_) / interval_ + 1) * interval_;
}

void
StatStreamer::finish(Cycle now, const StatDump &d)
{
    if (!out_)
        return;
    writeLine(now, d);
    std::fclose(out_);
    out_ = nullptr;
}

} // namespace emc::obs
