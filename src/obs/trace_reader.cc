#include "obs/trace_reader.hh"

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <map>

namespace emc::obs
{

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (kind != Kind::kObject)
        return nullptr;
    for (const auto &[k, v] : obj) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

double
JsonValue::numberOr(const std::string &key, double dflt) const
{
    const JsonValue *v = find(key);
    return (v && v->kind == Kind::kNumber) ? v->number : dflt;
}

std::string
JsonValue::stringOr(const std::string &key,
                    const std::string &dflt) const
{
    const JsonValue *v = find(key);
    return (v && v->kind == Kind::kString) ? v->str : dflt;
}

namespace
{

/** Recursive-descent parser over one in-memory JSON text. */
class JsonParser
{
  public:
    JsonParser(const std::string &text, std::string &err)
        : text_(text), err_(err)
    {}

    bool
    parse(JsonValue &out)
    {
        skipWs();
        if (!parseValue(out))
            return false;
        skipWs();
        if (pos_ != text_.size())
            return fail("trailing characters after value");
        return true;
    }

  private:
    bool
    fail(const std::string &why)
    {
        err_ = why + " at offset " + std::to_string(pos_);
        return false;
    }

    void
    skipWs()
    {
        while (pos_ < text_.size()
               && std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    bool
    literal(const char *word, std::size_t len)
    {
        if (text_.compare(pos_, len, word) != 0)
            return fail("bad literal");
        pos_ += len;
        return true;
    }

    bool
    parseValue(JsonValue &out)
    {
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        switch (text_[pos_]) {
          case '{': return parseObject(out);
          case '[': return parseArray(out);
          case '"':
            out.kind = JsonValue::Kind::kString;
            return parseString(out.str);
          case 't':
            out.kind = JsonValue::Kind::kBool;
            out.boolean = true;
            return literal("true", 4);
          case 'f':
            out.kind = JsonValue::Kind::kBool;
            out.boolean = false;
            return literal("false", 5);
          case 'n':
            out.kind = JsonValue::Kind::kNull;
            return literal("null", 4);
          default: return parseNumber(out);
        }
    }

    bool
    parseString(std::string &out)
    {
        ++pos_; // opening quote
        while (pos_ < text_.size()) {
            char c = text_[pos_++];
            if (c == '"')
                return true;
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (pos_ >= text_.size())
                break;
            char esc = text_[pos_++];
            switch (esc) {
              case '"': out.push_back('"'); break;
              case '\\': out.push_back('\\'); break;
              case '/': out.push_back('/'); break;
              case 'n': out.push_back('\n'); break;
              case 't': out.push_back('\t'); break;
              case 'r': out.push_back('\r'); break;
              case 'b': out.push_back('\b'); break;
              case 'f': out.push_back('\f'); break;
              case 'u':
                if (pos_ + 4 > text_.size())
                    return fail("bad \\u escape");
                // The writer never emits non-ASCII; decode the low
                // byte only.
                out.push_back(static_cast<char>(std::strtoul(
                    text_.substr(pos_, 4).c_str(), nullptr, 16)));
                pos_ += 4;
                break;
              default: return fail("bad escape");
            }
        }
        return fail("unterminated string");
    }

    bool
    parseNumber(JsonValue &out)
    {
        const char *start = text_.c_str() + pos_;
        char *end = nullptr;
        out.number = std::strtod(start, &end);
        if (end == start)
            return fail("bad number");
        out.kind = JsonValue::Kind::kNumber;
        pos_ += static_cast<std::size_t>(end - start);
        return true;
    }

    bool
    parseArray(JsonValue &out)
    {
        out.kind = JsonValue::Kind::kArray;
        ++pos_; // '['
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            JsonValue elem;
            if (!parseValue(elem))
                return false;
            out.arr.push_back(std::move(elem));
            skipWs();
            if (pos_ >= text_.size())
                return fail("unterminated array");
            char c = text_[pos_++];
            if (c == ']')
                return true;
            if (c != ',')
                return fail("expected ',' or ']'");
            skipWs();
        }
    }

    bool
    parseObject(JsonValue &out)
    {
        out.kind = JsonValue::Kind::kObject;
        ++pos_; // '{'
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != '"')
                return fail("expected member name");
            std::string key;
            if (!parseString(key))
                return false;
            skipWs();
            if (pos_ >= text_.size() || text_[pos_++] != ':')
                return fail("expected ':'");
            skipWs();
            JsonValue val;
            if (!parseValue(val))
                return false;
            out.obj.emplace_back(std::move(key), std::move(val));
            skipWs();
            if (pos_ >= text_.size())
                return fail("unterminated object");
            char c = text_[pos_++];
            if (c == '}')
                return true;
            if (c != ',')
                return fail("expected ',' or '}'");
        }
    }

    const std::string &text_;
    std::string &err_;
    std::size_t pos_ = 0;
};

/** In-flight lifecycle span while scanning the file. */
struct OpenSpan
{
    Cycle created = 0;
    Cycle llc_miss = 0;
    Cycle dram_enqueue = 0;
    Cycle dram_issue = 0;
    Cycle dram_data = 0;  ///< 0: DRAM never serviced this span's read
    Cycle emc_data = 0;
    Cycle last = 0;  ///< cycle of the span's latest event
    double pid = 0;
    double tid = 0;
    std::uint8_t flags = 0;
};

/** Map a trace-event name back to its point-counter slot. */
int
pointIndex(const std::string &name)
{
    for (int i = 0; i < kNumTracePoints; ++i) {
        if (name == tracePointName(static_cast<TracePoint>(i)))
            return i;
    }
    return -1;
}

std::uint8_t
flagsOf(const JsonValue &ev)
{
    const JsonValue *args = ev.find("args");
    std::uint8_t flags = 0;
    if (!args)
        return flags;
    if (args->numberOr("dep", 0) != 0)
        flags |= kFlagDependent;
    if (args->numberOr("emc", 0) != 0)
        flags |= kFlagEmc;
    if (args->numberOr("pf", 0) != 0)
        flags |= kFlagPrefetch;
    if (args->numberOr("st", 0) != 0)
        flags |= kFlagStore;
    return flags;
}

} // namespace

TraceSummary
readTrace(const std::string &path, std::size_t max_issues)
{
    TraceSummary sum;
    auto issue = [&](std::size_t line, const std::string &msg) {
        if (sum.issues.size() < max_issues)
            sum.issues.push_back(TraceIssue{line, msg});
        ++sum.issue_total;
    };

    std::ifstream in(path);
    if (!in) {
        issue(0, "cannot open " + path);
        return sum;
    }

    std::string line;
    std::size_t lineno = 0;
    bool saw_header = false;
    bool saw_footer = false;
    bool saw_ts = false;
    Cycle prev_ts = 0;
    std::map<std::uint64_t, OpenSpan> open;

    while (std::getline(in, line)) {
        ++lineno;
        // Trim, drop the inter-event separator comma.
        std::size_t b = line.find_first_not_of(" \t\r");
        if (b == std::string::npos)
            continue;
        std::size_t e = line.find_last_not_of(" \t\r");
        std::string body = line.substr(b, e - b + 1);
        if (!saw_header) {
            if (body.find("\"traceEvents\"") == std::string::npos) {
                issue(lineno, "missing traceEvents header");
                return sum;
            }
            saw_header = true;
            continue;
        }
        if (body == "]}") {
            saw_footer = true;
            continue;
        }
        if (saw_footer) {
            issue(lineno, "content after closing ]}");
            continue;
        }
        if (!body.empty() && body.back() == ',')
            body.pop_back();

        JsonValue ev;
        std::string err;
        if (!parseJson(body, ev, err)
            || ev.kind != JsonValue::Kind::kObject) {
            issue(lineno, "bad JSON event: " + err);
            continue;
        }
        ++sum.counts.events;

        const std::string ph = ev.stringOr("ph", "");
        if (ph == "M") {
            ++sum.counts.meta;
            continue;
        }
        if (!ev.find("ts")) {
            issue(lineno, "event without ts");
            continue;
        }
        const Cycle ts = static_cast<Cycle>(ev.numberOr("ts", 0));
        if (!saw_ts) {
            sum.counts.first_cycle = ts;
            saw_ts = true;
        } else if (ts < prev_ts) {
            issue(lineno, "timestamps not monotone in file order");
        }
        prev_ts = ts;
        sum.counts.last_cycle = ts;

        const std::string name = ev.stringOr("name", "");
        if (ph == "i") {
            ++sum.counts.instants;
            int pi = pointIndex(name);
            if (pi >= 0)
                ++sum.point_counts[pi];
            continue;
        }
        if (ph != "b" && ph != "n" && ph != "e") {
            issue(lineno, "unexpected ph \"" + ph + "\"");
            continue;
        }

        const std::string id_str = ev.stringOr("id", "");
        const std::uint64_t id =
            std::strtoull(id_str.c_str(), nullptr, 0);
        if (id_str.empty()) {
            issue(lineno, "span event without id");
            continue;
        }
        auto it = open.find(id);
        if (ph == "b") {
            ++sum.counts.spans;
            ++sum.point_counts[static_cast<int>(TracePoint::kCreated)];
            if (it != open.end()) {
                issue(lineno, "span " + id_str + " opened twice");
                continue;
            }
            OpenSpan sp;
            sp.created = sp.last = ts;
            sp.pid = ev.numberOr("pid", -1);
            sp.tid = ev.numberOr("tid", -1);
            sp.flags = flagsOf(ev);
            open.emplace(id, sp);
            continue;
        }
        if (it == open.end()) {
            issue(lineno, "event for unopened span " + id_str);
            continue;
        }
        OpenSpan &sp = it->second;
        if (ev.numberOr("pid", -1) != sp.pid
            || ev.numberOr("tid", -1) != sp.tid) {
            issue(lineno, "span " + id_str + " changed track");
        }
        if (ts < sp.last)
            issue(lineno, "span " + id_str + " not monotone in cycle");
        sp.last = ts;
        if (ph == "n") {
            int pi = pointIndex(name);
            if (pi >= 0)
                ++sum.point_counts[pi];
            // Last occurrence wins, matching the simulator's
            // timestamp fields which hold the final value.
            if (name == "llc_miss") {
                sp.llc_miss = ts;
            } else if (name == "dram_enqueue") {
                sp.dram_enqueue = ts;
            } else if (name == "dram_data") {
                const JsonValue *args = ev.find("args");
                const std::string arg =
                    args ? args->stringOr("arg", "0") : "0";
                sp.dram_issue = std::strtoull(arg.c_str(), nullptr, 0);
                sp.dram_data = ts;
            } else if (name == "emc_data") {
                sp.emc_data = ts;
            } else if (name != "fill") {
                issue(lineno, "unknown span annotation " + name);
            }
            continue;
        }
        // ph == "e": the span retires.
        ++sum.point_counts[static_cast<int>(TracePoint::kRetire)];
        const JsonValue *args = ev.find("args");
        const bool truncated =
            args && args->numberOr("truncated", 0) != 0;
        const bool emc = sp.flags & kFlagEmc;
        if (truncated) {
            ++sum.counts.truncated;
        } else if (!(sp.flags & (kFlagPrefetch | kFlagStore))
                   && sp.dram_data != 0) {
            // Mirrors System::retireTxn: a demand whose own read DRAM
            // serviced, ending when its data reached the requester.
            PhaseTimes t;
            t.created = sp.created;
            t.llc_miss = sp.llc_miss ? sp.llc_miss : sp.created;
            t.dram_enqueue = sp.dram_enqueue;
            t.dram_issue = sp.dram_issue;
            t.dram_data = sp.dram_data;
            t.done = emc ? sp.emc_data : ts;
            if (t.ordered()) {
                sum.phases.sample(emc ? PhaseClass::kEmc
                                      : ((sp.flags & kFlagDependent)
                                             ? PhaseClass::kCoreDep
                                             : PhaseClass::kCore),
                                  t);
            } else {
                issue(lineno, "span " + id_str
                                  + " has out-of-order phase endpoints");
            }
        }
        open.erase(it);
    }

    if (!saw_header)
        issue(lineno, "empty or headerless file");
    if (!saw_footer)
        issue(lineno, "missing closing ]}");
    for (const auto &[id, sp] : open) {
        issue(lineno, "span 0x" + std::to_string(id)
                          + " never closed");
    }
    sum.ok = sum.issue_total == 0;
    return sum;
}

bool
parseJson(const std::string &text, JsonValue &out, std::string &err)
{
    JsonParser p(text, err);
    return p.parse(out);
}

} // namespace emc::obs
