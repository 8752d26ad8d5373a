#include "spans.hh"

#include <cstdio>

namespace emcbench
{

int
SpanRecorder::open(const char *name)
{
    SpanRecord r;
    r.name = name;
    r.start_s = secondsBetween(epoch_, Clock::now());
    r.parent = stack_.empty() ? -1 : stack_.back();
    r.run_id = run_id_;
    spans_.push_back(std::move(r));
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
}

void
SpanRecorder::close(int index)
{
    spans_[index].end_s = secondsBetween(epoch_, Clock::now());
    // Scoped spans close innermost first, so @p index is on top.
    if (!stack_.empty() && stack_.back() == index)
        stack_.pop_back();
}

void
SpanRecorder::finish()
{
    for (SpanRecord &s : spans_)
        s.self_s = s.end_s - s.start_s;
    for (const SpanRecord &s : spans_) {
        if (s.parent >= 0)
            spans_[s.parent].self_s -= s.end_s - s.start_s;
    }
}

std::map<std::string, SpanTotal>
SpanRecorder::totals() const
{
    std::map<std::string, SpanTotal> out;
    for (const SpanRecord &s : spans_) {
        SpanTotal &t = out[s.name];
        ++t.count;
        t.total_s += s.end_s - s.start_s;
        t.self_s += s.self_s;
    }
    return out;
}

bool
SpanRecorder::writeJson(const std::string &path,
                        const std::string &header) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{%s,\n\"spans\": [", header.c_str());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const SpanRecord &s = spans_[i];
        std::fprintf(f,
                     "%s\n{\"name\": \"%s\", \"start_s\": %.9f, "
                     "\"end_s\": %.9f, \"parent\": %d, \"run_id\": %d, "
                     "\"self_s\": %.9f}",
                     i ? "," : "", s.name.c_str(), s.start_s, s.end_s,
                     s.parent, s.run_id, s.self_s);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

} // namespace emcbench
