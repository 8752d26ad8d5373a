/**
 * @file
 * Tests for the observability subsystem (src/obs, DESIGN.md §6).
 *
 * Strategy mirrors test_invariants.cpp: tracing is observation-only,
 * so a traced run must render byte-identical statistics to an
 * untraced run of the same config. On top of that the exported
 * Chrome trace must be structurally valid (readTrace enforces span
 * nesting and cycle monotonicity), and `emctrace summarize` — which
 * shares readTrace — must rebuild exactly the phase histograms the
 * simulator exported as `phase.*` stats.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "obs/phase.hh"
#include "obs/trace_reader.hh"
#include "sim/system.hh"

namespace emc::obs
{
namespace
{

std::string
tempPath(const char *name)
{
    return ::testing::TempDir() + name;
}

SystemConfig
smallConfig()
{
    SystemConfig cfg;
    cfg.target_uops = 3000;
    cfg.max_cycles = 3'000'000;
    cfg.emc_enabled = true;  // exercise EMC spans and chain offloads
    return cfg;
}

const std::vector<std::string> kWorkload{"mcf", "mcf", "mcf", "mcf"};

// --------------------------------------------------------------------
// JSON parser
// --------------------------------------------------------------------

TEST(JsonParserTest, ParsesNestedObject)
{
    JsonValue v;
    std::string err;
    ASSERT_TRUE(parseJson(
        R"({"ph":"b","ts":12,"args":{"dep":1,"name":"a\"b"},"arr":[1,2]})",
        v, err)) << err;
    EXPECT_EQ(v.stringOr("ph", ""), "b");
    EXPECT_DOUBLE_EQ(v.numberOr("ts", -1), 12.0);
    const JsonValue *args = v.find("args");
    ASSERT_NE(args, nullptr);
    EXPECT_DOUBLE_EQ(args->numberOr("dep", 0), 1.0);
    EXPECT_EQ(args->stringOr("name", ""), "a\"b");
    const JsonValue *arr = v.find("arr");
    ASSERT_NE(arr, nullptr);
    ASSERT_EQ(arr->arr.size(), 2u);
    EXPECT_DOUBLE_EQ(arr->arr[1].number, 2.0);
}

TEST(JsonParserTest, RejectsMalformed)
{
    JsonValue v;
    std::string err;
    EXPECT_FALSE(parseJson(R"({"a":1,})", v, err));
    EXPECT_FALSE(parseJson(R"({"a")", v, err));
    EXPECT_FALSE(parseJson("{} trailing", v, err));
}

// --------------------------------------------------------------------
// Phase accumulator sampling rules
// --------------------------------------------------------------------

TEST(PhaseAccumulatorTest, SkippedPhaseContributesZero)
{
    PhaseAccumulator acc;
    PhaseTimes t;  // EMC direct-DRAM path: no LLC lookup, own MC
    t.created = 100;
    t.llc_miss = 100;
    t.dram_enqueue = 101;
    t.dram_issue = 101;
    t.dram_data = 205;
    t.done = 205;
    acc.sample(PhaseClass::kEmc, t);
    const double want[kNumPhases] = {0, 1, 0, 104, 0, 105};
    for (std::size_t p = 0; p < kNumPhases; ++p) {
        const Histogram &h = acc.hist(PhaseClass::kEmc, p);
        EXPECT_EQ(h.samples(), 1u) << phaseName(p);
        EXPECT_DOUBLE_EQ(h.mean(), want[p]) << phaseName(p);
        // One sample: every percentile is that sample, not a bucket
        // midpoint above it.
        EXPECT_DOUBLE_EQ(h.percentile(0.5), want[p]) << phaseName(p);
    }
    EXPECT_EQ(acc.hist(PhaseClass::kCore, kPhaseTotal).samples(), 0u);
}

TEST(PhaseAccumulatorTest, DependentCoreSamplesAlsoCountAsCore)
{
    PhaseAccumulator acc;
    PhaseTimes t{10, 40, 50, 60, 164, 180};
    acc.sample(PhaseClass::kCoreDep, t);
    acc.sample(PhaseClass::kCore, t);
    EXPECT_EQ(acc.hist(PhaseClass::kCoreDep, kPhaseTotal).samples(), 1u);
    EXPECT_EQ(acc.hist(PhaseClass::kCore, kPhaseTotal).samples(), 2u);
    EXPECT_EQ(acc.hist(PhaseClass::kEmc, kPhaseTotal).samples(), 0u);
}

TEST(TraceReaderTest, OutOfOrderPhaseEndpointsAreAnIssue)
{
    // A crafted span whose dram_data arg (the DRAM issue cycle) lies
    // after the data: reported, not sampled, not a crash.
    const std::string path = tempPath("crafted.json");
    {
        std::ofstream out(path);
        const std::string ev =
            R"("cat":"txn","pid":1,"tid":0,"id":"0x1")";
        out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"
            << R"({"ph":"b","name":"demand",)" << ev
            << R"(,"ts":10,"args":{"dep":0,"emc":0,"pf":0,"st":0}},)"
            << "\n"
            << R"({"ph":"n","name":"llc_miss",)" << ev << R"(,"ts":30},)"
            << "\n"
            << R"({"ph":"n","name":"dram_enqueue",)" << ev
            << R"(,"ts":40},)" << "\n"
            << R"({"ph":"n","name":"dram_data",)" << ev
            << R"(,"ts":100,"args":{"arg":"0x500"}},)" << "\n"
            << R"({"ph":"e","name":"demand",)" << ev << R"(,"ts":110})"
            << "\n]}\n";
    }
    const TraceSummary s = readTrace(path);
    EXPECT_FALSE(s.ok);
    ASSERT_EQ(s.issue_total, 1u);
    EXPECT_NE(s.issues[0].message.find("out-of-order"), std::string::npos);
    EXPECT_EQ(s.phases.hist(PhaseClass::kCore, kPhaseTotal).samples(), 0u);
}

// --------------------------------------------------------------------
// End to end: traced run vs untraced run
// --------------------------------------------------------------------

TEST(TracedRunTest, DoesNotPerturbStats)
{
    const SystemConfig cfg = smallConfig();

    StatDump plain;
    {
        System sys(cfg, kWorkload);
        sys.run();
        plain = sys.dump();
    }

    SystemConfig traced_cfg = cfg;
    traced_cfg.trace_path = tempPath("identity.json");
    traced_cfg.trace_interval = 25000;
    StatDump traced;
    {
        System sys(traced_cfg, kWorkload);
        sys.run();
        traced = sys.dump();
    }

    // Observation only: the rendered stat output is byte-identical.
    EXPECT_EQ(plain.format(), traced.format());
}

TEST(TracedRunTest, ExportedTraceIsValid)
{
#ifndef EMC_SIM_TRACE
    GTEST_SKIP() << "trace hooks compiled out (EMC_SIM_TRACE=OFF)";
#endif
    SystemConfig cfg = smallConfig();
    cfg.trace_path = tempPath("valid.json");
    {
        System sys(cfg, kWorkload);
        sys.run();
    }

    const TraceSummary s = readTrace(cfg.trace_path);
    for (const auto &iss : s.issues)
        ADD_FAILURE() << "line " << iss.line << ": " << iss.message;
    EXPECT_TRUE(s.ok);
    EXPECT_GT(s.counts.spans, 0u);
    EXPECT_GE(s.counts.last_cycle, s.counts.first_cycle);
    // Every span opened was closed (readTrace flags leftovers), and
    // every lifecycle point fired at least once in an EMC-enabled run.
    using P = TracePoint;
    for (P p : {P::kCreated, P::kLlcMiss, P::kDramEnqueue, P::kFill,
                P::kRetire, P::kDramData, P::kEmcData})
        EXPECT_GT(s.point_counts[static_cast<int>(p)], 0u)
            << tracePointName(p);
}

TEST(TracedRunTest, SummarizeAgreesWithExportedPhaseStats)
{
#ifndef EMC_SIM_TRACE
    GTEST_SKIP() << "trace hooks compiled out (EMC_SIM_TRACE=OFF)";
#endif
    // warmup_uops stays 0: the trace records from cycle 0 while stats
    // reset post-warmup, so agreement holds for unwarmed runs only.
    // Two MCs add EMC requests whose data returns by a cross-MC reply.
    for (unsigned mcs : {1u, 2u}) {
        SCOPED_TRACE("num_mcs=" + std::to_string(mcs));
        SystemConfig cfg = smallConfig();
        cfg.num_mcs = mcs;
        cfg.trace_path = tempPath("agree.json");

        StatDump d;
        {
            System sys(cfg, kWorkload);
            sys.run();
            d = sys.dump();
        }

        const TraceSummary s = readTrace(cfg.trace_path);
        ASSERT_TRUE(s.ok);
        ASSERT_GT(d.get("phase.emc.total_samples"), 0.0);

        for (std::size_t c = 0; c < kNumPhaseClasses; ++c) {
            const auto cls = static_cast<PhaseClass>(c);
            for (std::size_t p = 0; p < kNumPhases; ++p) {
                const Histogram &h = s.phases.hist(cls, p);
                const std::string key = std::string("phase.")
                                        + phaseClassName(cls) + "."
                                        + phaseName(p);
                if (h.samples() == 0) {
                    EXPECT_FALSE(d.has(key + "_samples")) << key;
                    continue;
                }
                EXPECT_DOUBLE_EQ(d.get(key + "_samples"),
                                 static_cast<double>(h.samples()))
                    << key;
                EXPECT_DOUBLE_EQ(d.get(key + "_avg"), h.mean()) << key;
                EXPECT_DOUBLE_EQ(d.get(key + "_p50"), h.percentile(0.50))
                    << key;
                EXPECT_DOUBLE_EQ(d.get(key + "_p95"), h.percentile(0.95))
                    << key;
                EXPECT_DOUBLE_EQ(d.get(key + "_p99"), h.percentile(0.99))
                    << key;
            }
        }
    }
}

TEST(TracedRunTest, StreamerWritesMonotoneSnapshots)
{
    SystemConfig cfg = smallConfig();
    cfg.trace_path = tempPath("stream.json");
    cfg.trace_interval = 20000;
    StatDump d;
    {
        System sys(cfg, kWorkload);
        sys.run();
        d = sys.dump();
    }

    std::ifstream in(cfg.trace_path + ".jsonl");
    ASSERT_TRUE(in.is_open());
    std::string line;
    std::size_t lines = 0;
    double prev_cycle = -1;
    double last_cycles_stat = 0;
    while (std::getline(in, line)) {
        ++lines;
        JsonValue v;
        std::string err;
        ASSERT_TRUE(parseJson(line, v, err)) << err;
        const double cyc = v.numberOr("cycle", -1);
        EXPECT_GT(cyc, prev_cycle);
        prev_cycle = cyc;
        const JsonValue *stats = v.find("stats");
        ASSERT_NE(stats, nullptr);
        last_cycles_stat = stats->numberOr("system.cycles", -1);
    }
    EXPECT_GE(lines, 2u);  // at least one interval plus the final line
    // The last snapshot is the end-of-run dump.
    EXPECT_DOUBLE_EQ(last_cycles_stat, d.get("system.cycles"));
}

} // namespace
} // namespace emc::obs
