#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <sstream>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "profiling/edp_io.hpp"
#include "profiling/profiler.hpp"
#include "profiling/sampling.hpp"

using namespace extradeep;
using namespace extradeep::profiling;

namespace {

sim::Workload small_workload(int ranks = 2) {
    return sim::Workload::make("CIFAR-10", hw::SystemSpec::deep(),
                               parallel::ParallelConfig::data(ranks),
                               parallel::ScalingMode::Weak, 256);
}

}  // namespace

TEST(Sampling, EfficientDefaultsMatchPaper) {
    const SamplingStrategy s = SamplingStrategy::efficient();
    EXPECT_EQ(s.epochs, 2);
    EXPECT_EQ(s.train_steps_per_epoch, 5);
    EXPECT_EQ(s.discard_warmup_epochs, 1);
    EXPECT_NE(s.describe().find("efficient"), std::string::npos);
}

TEST(Sampling, StandardProfilesFullEpochs) {
    const SamplingStrategy s = SamplingStrategy::standard();
    EXPECT_EQ(s.train_steps_per_epoch, -1);
    EXPECT_EQ(s.val_steps_per_epoch, -1);
}

TEST(Sampling, TraceOptionsCarrySeed) {
    const auto o = SamplingStrategy::efficient().trace_options(77);
    EXPECT_EQ(o.run_seed, 77u);
    EXPECT_EQ(o.train_steps_per_epoch, 5);
}

TEST(Profiler, ProfilesAllRanks) {
    const sim::TrainingSimulator sim(small_workload(3));
    const Profiler profiler(SamplingStrategy::efficient());
    const ProfiledRun run = profiler.profile(sim, {{"x1", 3.0}}, 0);
    ASSERT_EQ(run.ranks.size(), 3u);
    for (int r = 0; r < 3; ++r) {
        EXPECT_EQ(run.ranks[r].rank, r);
        EXPECT_FALSE(run.ranks[r].events.empty());
    }
    EXPECT_GT(run.profiling_wall_time, 0.0);
    EXPECT_EQ(run.params.at("x1"), 3.0);
}

TEST(Profiler, RepetitionsDiffer) {
    const sim::TrainingSimulator sim(small_workload());
    const Profiler profiler(SamplingStrategy::efficient());
    const ProfiledRun a = profiler.profile(sim, {{"x1", 2.0}}, 0);
    const ProfiledRun b = profiler.profile(sim, {{"x1", 2.0}}, 1);
    EXPECT_NE(a.profiling_wall_time, b.profiling_wall_time);
}

TEST(Profiler, EfficientMuchCheaperThanStandard) {
    // The headline Fig. 8 property: ~95 % profiling-time reduction.
    const sim::TrainingSimulator sim(small_workload());
    const double efficient =
        Profiler(SamplingStrategy::efficient()).profiling_cost(sim);
    const double standard =
        Profiler(SamplingStrategy::standard()).profiling_cost(sim);
    EXPECT_LT(efficient, 0.15 * standard);
}

TEST(Profiler, OverheadFractionApplied) {
    const sim::TrainingSimulator sim(small_workload());
    const double with = Profiler(SamplingStrategy::efficient(), 0.10)
                            .profiling_cost(sim);
    const double without = Profiler(SamplingStrategy::efficient(), 0.0)
                               .profiling_cost(sim);
    EXPECT_NEAR(with / without, 1.10, 1e-9);
    EXPECT_THROW(Profiler(SamplingStrategy::efficient(), -0.1),
                 InvalidArgumentError);
}

TEST(RunSeed, DependsOnAllComponents) {
    const std::map<std::string, double> p1 = {{"x1", 4.0}};
    const std::map<std::string, double> p2 = {{"x1", 8.0}};
    EXPECT_NE(run_seed_for(p1, 0, 0), run_seed_for(p2, 0, 0));
    EXPECT_NE(run_seed_for(p1, 0, 0), run_seed_for(p1, 1, 0));
    EXPECT_NE(run_seed_for(p1, 0, 0), run_seed_for(p1, 0, 1));
    EXPECT_EQ(run_seed_for(p1, 3, 9), run_seed_for(p1, 3, 9));
}

TEST(EdpIo, RoundTripPreservesEverything) {
    const sim::TrainingSimulator sim(small_workload());
    const Profiler profiler(SamplingStrategy::efficient());
    const ProfiledRun run = profiler.profile(sim, {{"x1", 2.0}}, 1);

    std::stringstream buffer;
    write_edp(buffer, run);
    const ProfiledRun back = read_edp(buffer);

    EXPECT_EQ(back.params, run.params);
    EXPECT_EQ(back.repetition, run.repetition);
    // Bit-exact: the writer emits shortest-round-trip decimals, so a
    // write/read cycle is the identity on every double.
    EXPECT_EQ(back.profiling_wall_time, run.profiling_wall_time);
    ASSERT_EQ(back.ranks.size(), run.ranks.size());
    for (std::size_t r = 0; r < run.ranks.size(); ++r) {
        ASSERT_EQ(back.ranks[r].events.size(), run.ranks[r].events.size());
        ASSERT_EQ(back.ranks[r].marks.size(), run.ranks[r].marks.size());
        for (std::size_t i = 0; i < run.ranks[r].events.size(); ++i) {
            const auto& a = run.ranks[r].events[i];
            const auto& b = back.ranks[r].events[i];
            EXPECT_EQ(a.name, b.name);
            EXPECT_EQ(a.category, b.category);
            EXPECT_EQ(a.visits, b.visits);
            EXPECT_EQ(a.start, b.start);
            EXPECT_EQ(a.duration, b.duration);
        }
    }
}

TEST(EdpIo, RoundTripIsBitExactOffTheTwelveDigitGrid) {
    // Regression: the writer used a fixed 12-significant-digit encoding, so
    // any value off that grid (0.1 + 0.2, 1/3, nextafter(1, 2), ...) came
    // back with its low mantissa bits changed. The shortest-round-trip
    // encoding must reproduce every bit.
    const double awkward[] = {0.1 + 0.2,
                              1.0 / 3.0,
                              std::nextafter(1.0, 2.0),
                              3.141592653589793,
                              6.02214076e23,
                              2.2250738585072014e-308 /* DBL_MIN */};
    ProfiledRun run;
    run.params = {{"x1", 2.0}};
    run.repetition = 0;
    run.profiling_wall_time = awkward[0];
    trace::RankTrace rank;
    rank.rank = 0;
    for (const double v : awkward) {
        trace::TraceEvent e;
        e.name = "k";
        e.category = trace::KernelCategory::CudaKernel;
        e.start = v;
        e.duration = v;
        e.bytes = v;
        rank.events.push_back(e);
    }
    run.ranks.push_back(rank);

    std::stringstream buffer;
    write_edp(buffer, run);
    const ProfiledRun back = read_edp(buffer);
    EXPECT_EQ(back.profiling_wall_time, run.profiling_wall_time);
    ASSERT_EQ(back.ranks.size(), 1u);
    ASSERT_EQ(back.ranks[0].events.size(), std::size(awkward));
    for (std::size_t i = 0; i < std::size(awkward); ++i) {
        EXPECT_EQ(back.ranks[0].events[i].start, awkward[i]) << i;
        EXPECT_EQ(back.ranks[0].events[i].duration, awkward[i]) << i;
        EXPECT_EQ(back.ranks[0].events[i].bytes, awkward[i]) << i;
    }
}

TEST(EdpIo, FileRoundTrip) {
    const sim::TrainingSimulator sim(small_workload());
    const ProfiledRun run = Profiler(SamplingStrategy::efficient())
                                .profile(sim, {{"x1", 2.0}}, 0);
    const std::string path = ::testing::TempDir() + "/run.edp";
    write_edp_file(path, run);
    const ProfiledRun back = read_edp_file(path);
    EXPECT_EQ(back.ranks.size(), run.ranks.size());
    std::remove(path.c_str());
}

TEST(EdpIo, RejectsMissingHeader) {
    std::stringstream s("nonsense\n");
    EXPECT_THROW(read_edp(s), ParseError);
}

TEST(EdpIo, RejectsWrongVersion) {
    std::stringstream s("EDP\t99\nEND\n");
    EXPECT_THROW(read_edp(s), ParseError);
}

TEST(EdpIo, RejectsTruncatedFile) {
    std::stringstream s("EDP\t1\nRANK\t0\n");  // no END
    EXPECT_THROW(read_edp(s), ParseError);
}

TEST(EdpIo, RejectsEventBeforeRank) {
    std::stringstream s(
        "EDP\t1\nE\tk\tCUDA kernel\t0\t1\t1\t0\nEND\n");
    EXPECT_THROW(read_edp(s), ParseError);
}

TEST(EdpIo, RejectsMalformedNumbers) {
    std::stringstream s(
        "EDP\t1\nRANK\t0\nE\tk\tCUDA kernel\tabc\t1\t1\t0\nEND\n");
    EXPECT_THROW(read_edp(s), ParseError);
}

TEST(EdpIo, RejectsUnknownCategory) {
    std::stringstream s(
        "EDP\t1\nRANK\t0\nE\tk\tWarpDrive\t0\t1\t1\t0\nEND\n");
    EXPECT_THROW(read_edp(s), ParseError);
}

TEST(EdpIo, RejectsUnknownTag) {
    std::stringstream s("EDP\t1\nXYZ\t1\nEND\n");
    EXPECT_THROW(read_edp(s), ParseError);
}

TEST(EdpIo, RejectsTabInKernelName) {
    ProfiledRun run;
    trace::RankTrace t;
    trace::TraceEvent e;
    e.name = "bad\tname";
    t.events.push_back(e);
    run.ranks.push_back(t);
    std::stringstream s;
    EXPECT_THROW(write_edp(s, run), InvalidArgumentError);
}

TEST(EdpIo, MissingFileThrows) {
    EXPECT_THROW(read_edp_file("/nonexistent/path/profile.edp"), Error);
}

TEST(EdpIo, EmptyRunRoundTrips) {
    ProfiledRun run;
    run.repetition = 7;
    std::stringstream s;
    write_edp(s, run);
    const ProfiledRun back = read_edp(s);
    EXPECT_EQ(back.repetition, 7);
    EXPECT_TRUE(back.ranks.empty());
}

TEST(EdpIo, RoundTripsSubnormalValues) {
    // fmt::shortest writes denorm_min() as "5e-324" and 1e-310 as itself; a
    // strtod-based reader reported both as out of range, so strict mode
    // rejected a file its own writer produced.
    const double subnormals[] = {std::numeric_limits<double>::denorm_min(),
                                 1e-310};
    ProfiledRun run;
    run.repetition = 0;
    trace::RankTrace rank;
    rank.rank = 0;
    for (const double v : subnormals) {
        trace::TraceEvent e;
        e.name = "k";
        e.duration = v;
        e.bytes = v;
        rank.events.push_back(e);
        trace::NvtxMark m;
        m.time = v;
        rank.marks.push_back(m);
    }
    run.ranks.push_back(rank);

    std::stringstream buffer;
    write_edp(buffer, run);
    const ProfiledRun back = read_edp(buffer);
    ASSERT_EQ(back.ranks.size(), 1u);
    ASSERT_EQ(back.ranks[0].events.size(), std::size(subnormals));
    ASSERT_EQ(back.ranks[0].marks.size(), std::size(subnormals));
    for (std::size_t i = 0; i < std::size(subnormals); ++i) {
        const auto bits = std::bit_cast<std::uint64_t>(subnormals[i]);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(
                      back.ranks[0].events[i].duration), bits) << i;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(back.ranks[0].events[i].bytes),
                  bits) << i;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(back.ranks[0].marks[i].time),
                  bits) << i;
    }
}

namespace {

EdpReadResult tolerant_parse(const std::string& text) {
    std::istringstream is(text);
    EdpReadOptions options;
    options.mode = ParseMode::Tolerant;
    return read_edp(is, options);
}

const char* const kCleanEdp =
    "EDP\t1\n"
    "P\tx1\t4\n"
    "REP\t0\n"
    "WALL\t2.5\n"
    "RANK\t0\n"
    "M\tepoch_start\t0\t-1\ttrain\t0\n"
    "M\tepoch_end\t0\t-1\ttrain\t2\n"
    "E\tgemm\tCUDA kernel\t0.5\t0.25\t3\t0\n"
    "END\n";

}  // namespace

TEST(EdpTolerant, SkipsCorruptEventLineAndKeepsTheRest) {
    const EdpReadResult result = tolerant_parse(
        "EDP\t1\n"
        "P\tx1\t4\n"
        "REP\t0\n"
        "WALL\t2.5\n"
        "RANK\t0\n"
        "E\tgemm\tCUDA kernel\tabc\t0.25\t3\t0\n"
        "E\tgemm\tCUDA kernel\t0.5\t0.25\t3\t0\n"
        "END\n");
    EXPECT_TRUE(result.ok()) << result.diagnostics.summary();
    EXPECT_EQ(result.diagnostics.count(Severity::Warning), 1u);
    ASSERT_EQ(result.run.ranks.size(), 1u);
    ASSERT_EQ(result.run.ranks[0].events.size(), 1u);
    EXPECT_EQ(result.run.ranks[0].events[0].start, 0.5);
    const auto& d = result.diagnostics.entries()[0];
    EXPECT_EQ(d.line, 6);
    EXPECT_EQ(d.rank, 0);
}

TEST(EdpTolerant, DuplicateRankBlockIsQuarantined) {
    const std::string text =
        "EDP\t1\n"
        "RANK\t0\n"
        "E\tgemm\tCUDA kernel\t0.5\t0.25\t3\t0\n"
        "RANK\t0\n"
        "E\tother\tCUDA kernel\t1\t1\t1\t0\n"
        "END\n";
    const EdpReadResult result = tolerant_parse(text);
    EXPECT_TRUE(result.ok());
    ASSERT_EQ(result.run.ranks.size(), 1u);
    ASSERT_EQ(result.run.ranks[0].events.size(), 1u);
    EXPECT_EQ(result.run.ranks[0].events[0].name, "gemm");
    EXPECT_GE(result.diagnostics.count(Severity::Warning), 1u);
    EXPECT_GE(result.diagnostics.count(Severity::Info), 1u);

    std::istringstream is(text);
    EXPECT_THROW(read_edp(is), ParseError);
}

TEST(EdpTolerant, BadRankHeaderQuarantinesBlockThenRecovers) {
    const EdpReadResult result = tolerant_parse(
        "EDP\t1\n"
        "RANK\tabc\n"
        "M\tepoch_start\t0\t-1\ttrain\t0\n"
        "E\tlost\tCUDA kernel\t0\t1\t1\t0\n"
        "RANK\t1\n"
        "E\tkept\tCUDA kernel\t0\t1\t1\t0\n"
        "END\n");
    EXPECT_TRUE(result.ok());
    ASSERT_EQ(result.run.ranks.size(), 1u);
    EXPECT_EQ(result.run.ranks[0].rank, 1);
    ASSERT_EQ(result.run.ranks[0].events.size(), 1u);
    EXPECT_EQ(result.run.ranks[0].events[0].name, "kept");
    // One warning for the header, one for the first quarantined record, one
    // info summarising the quarantined block.
    EXPECT_EQ(result.diagnostics.count(Severity::Warning), 2u);
    EXPECT_EQ(result.diagnostics.count(Severity::Info), 1u);
}

TEST(EdpStrict, RejectsNonFiniteAndNegativeMetrics) {
    const char* const bad_lines[] = {
        "E\tk\tCUDA kernel\t0\tnan\t1\t0",    // NaN duration
        "E\tk\tCUDA kernel\t-1\t1\t1\t0",     // negative start
        "E\tk\tCUDA kernel\t0\t1\t1\tinf",    // infinite bytes
        "E\tk\tCUDA kernel\t0\t1\t-3\t0",     // negative visits
        "M\tepoch_start\t-1\t-1\ttrain\t0",   // negative epoch
        "M\tstep_start\t0\t-2\ttrain\t0",     // step below -1
        "M\tstep_start\t0\t0\ttrain\tinf",    // non-finite mark time
        "WALL\t-1",                           // negative wall time
        "REP\t-1",                            // negative repetition
        "RANK\t-1",                           // negative rank id
    };
    for (const char* bad : bad_lines) {
        std::stringstream s("EDP\t1\nRANK\t0\n" + std::string(bad) + "\nEND\n");
        EXPECT_THROW(read_edp(s), ParseError) << bad;
    }
}

TEST(EdpStrict, RejectsTrailingDataAfterEnd) {
    std::stringstream s(std::string(kCleanEdp) + "E\tk\tMPI\t0\t1\t1\t0\n");
    EXPECT_THROW(read_edp(s), ParseError);
}

TEST(EdpTolerant, WarnsOnTrailingDataAfterEnd) {
    const EdpReadResult result =
        tolerant_parse(std::string(kCleanEdp) + "E\tk\tMPI\t0\t1\t1\t0\n");
    EXPECT_TRUE(result.ok());
    EXPECT_EQ(result.diagnostics.count(Severity::Warning), 1u);
    ASSERT_EQ(result.run.ranks.size(), 1u);
    EXPECT_EQ(result.run.ranks[0].events.size(), 1u);  // trailing E ignored
}

TEST(EdpIo, RejectsCarriageReturnInNameOnBothPaths) {
    ProfiledRun run;
    trace::RankTrace t;
    trace::TraceEvent e;
    e.name = "bad\rname";
    t.events.push_back(e);
    run.ranks.push_back(t);
    std::stringstream w;
    EXPECT_THROW(write_edp(w, run), InvalidArgumentError);

    // Mid-line CR is not CRLF tolerance; the read path rejects it too.
    std::stringstream r(
        "EDP\t1\nRANK\t0\nE\tbad\rname\tCUDA kernel\t0\t1\t1\t0\nEND\n");
    EXPECT_THROW(read_edp(r), ParseError);
}

TEST(EdpIo, ParsesCrlfLineEndings) {
    std::string crlf(kCleanEdp);
    std::string::size_type pos = 0;
    while ((pos = crlf.find('\n', pos)) != std::string::npos) {
        crlf.replace(pos, 1, "\r\n");
        pos += 2;
    }
    std::stringstream s(crlf);
    const ProfiledRun run = read_edp(s);
    ASSERT_EQ(run.ranks.size(), 1u);
    EXPECT_EQ(run.ranks[0].events[0].name, "gemm");
    EXPECT_EQ(run.params.at("x1"), 4.0);
}

TEST(EdpTolerant, EmptyInputIsAnError) {
    const EdpReadResult result = tolerant_parse("");
    EXPECT_FALSE(result.ok());
}

TEST(EdpTolerant, MissingHeaderSalvagesRecordsButQuarantinesRun) {
    const EdpReadResult result = tolerant_parse(
        "P\tx1\t4\n"
        "RANK\t0\n"
        "E\tgemm\tCUDA kernel\t0.5\t0.25\t3\t0\n"
        "END\n");
    EXPECT_FALSE(result.ok());  // header loss makes the file untrustworthy
    EXPECT_EQ(result.run.params.at("x1"), 4.0);  // still salvaged
    ASSERT_EQ(result.run.ranks.size(), 1u);
    EXPECT_EQ(result.run.ranks[0].events.size(), 1u);
}

TEST(EdpTolerant, MissingEndIsAnErrorButDataIsKept) {
    const EdpReadResult result = tolerant_parse(
        "EDP\t1\n"
        "RANK\t0\n"
        "E\tgemm\tCUDA kernel\t0.5\t0.25\t3\t0\n");
    EXPECT_FALSE(result.ok());
    ASSERT_EQ(result.run.ranks.size(), 1u);
    EXPECT_EQ(result.run.ranks[0].events.size(), 1u);
}

TEST(EdpStrict, RejectsMalformedEndLine) {
    std::stringstream s("EDP\t1\nEND\textra\n");
    EXPECT_THROW(read_edp(s), ParseError);
}

TEST(EdpTolerant, OrphanRecordsBeforeAnyRankAreCounted) {
    const EdpReadResult result = tolerant_parse(
        "EDP\t1\n"
        "M\tepoch_start\t0\t-1\ttrain\t0\n"
        "E\tk\tCUDA kernel\t0\t1\t1\t0\n"
        "RANK\t0\n"
        "END\n");
    EXPECT_TRUE(result.ok());
    EXPECT_EQ(result.run.ranks.size(), 1u);
    EXPECT_TRUE(result.run.ranks[0].events.empty());
    EXPECT_EQ(result.diagnostics.count(Severity::Warning), 1u);
    EXPECT_EQ(result.diagnostics.count(Severity::Info), 1u);
}

namespace {

/// The strict-mode verdict on one token: "" if it is accepted, else the
/// exact ParseError message.
std::string strict_verdict(const std::string& text) {
    std::istringstream is(text);
    try {
        read_edp(is);
    } catch (const ParseError& e) {
        return e.what();
    }
    return "";
}

}  // namespace

TEST(EdpStrict, NumberGrammar) {
    // One row per token: its verdict in a double field (P value) and in an
    // integer field (E visits). The grammar is exactly what write_edp
    // emits; the first twelve rows are the corrupt_number fuzz tokens.
    struct Row {
        const char* token;
        const char* as_double;
        const char* as_integer;
    };
    const Row rows[] = {
        {"nan", "EDP: non-finite value for param value: 'nan'",
         "EDP: bad integer for event visits: 'nan'"},
        {"-nan", "EDP: non-finite value for param value: '-nan'",
         "EDP: bad integer for event visits: '-nan'"},
        {"inf", "EDP: non-finite value for param value: 'inf'",
         "EDP: bad integer for event visits: 'inf'"},
        {"-inf", "EDP: non-finite value for param value: '-inf'",
         "EDP: bad integer for event visits: '-inf'"},
        {"1e999", "EDP: number out of range for param value",
         "EDP: trailing junk in event visits"},
        {"-1", "", "EDP: negative value for event visits"},
        {"12x", "EDP: trailing junk in param value",
         "EDP: trailing junk in event visits"},
        {"", "EDP: bad number for param value: ''",
         "EDP: bad integer for event visits: ''"},
        {"0.0.0", "EDP: trailing junk in param value",
         "EDP: trailing junk in event visits"},
        {"+-3", "EDP: bad number for param value: '+-3'",
         "EDP: bad integer for event visits: '+-3'"},
        {"0x", "EDP: trailing junk in param value",
         "EDP: trailing junk in event visits"},
        {"999999999999999999999999", "",
         "EDP: integer out of range for event visits"},
        // Accepted by the strtod/strtoll grammar, never written by write_edp.
        {"+1", "EDP: bad number for param value: '+1'",
         "EDP: bad integer for event visits: '+1'"},
        {" 1", "EDP: bad number for param value: ' 1'",
         "EDP: bad integer for event visits: ' 1'"},
        {"0x10", "EDP: trailing junk in param value",
         "EDP: trailing junk in event visits"},
        // A subnormal, written by fmt::shortest as itself.
        {"1e-310", "", "EDP: trailing junk in event visits"},
    };
    for (const Row& row : rows) {
        const std::string token(row.token);
        EXPECT_EQ(strict_verdict("EDP\t1\nP\tx1\t" + token + "\nEND\n"),
                  row.as_double)
            << "double '" << token << "'";
        EXPECT_EQ(strict_verdict("EDP\t1\nRANK\t0\nE\tk\tCUDA kernel\t0\t1\t" +
                                 token + "\t0\nEND\n"),
                  row.as_integer)
            << "integer '" << token << "'";
    }

    std::istringstream subnormal("EDP\t1\nP\tx1\t1e-310\nEND\n");
    EXPECT_EQ(read_edp(subnormal).params.at("x1"), 1e-310);
}

TEST(EdpStrict, RandomNormalDoublesRoundTripBitExact) {
    // 1e5 seeded random finite, non-negative, normal doubles (every
    // exponent, every mantissa) through write_edp and back.
    Rng rng(20231112);
    const auto random_normal = [&] {
        const auto exponent = static_cast<std::uint64_t>(rng.uniform_int(1, 2046));
        const std::uint64_t mantissa = rng.next_u64() >> 12;
        return std::bit_cast<double>((exponent << 52) | mantissa);
    };
    ProfiledRun run;
    trace::RankTrace rank;
    rank.rank = 0;
    constexpr int kValues = 100000;
    for (int i = 0; i < kValues / 4; ++i) {
        trace::TraceEvent e;
        e.name = "k";
        e.start = random_normal();
        e.duration = random_normal();
        e.bytes = random_normal();
        rank.events.push_back(e);
        trace::NvtxMark m;
        m.time = random_normal();
        rank.marks.push_back(m);
    }
    run.ranks.push_back(rank);

    std::stringstream buffer;
    write_edp(buffer, run);
    const ProfiledRun back = read_edp(buffer);
    ASSERT_EQ(back.ranks.size(), 1u);
    const auto& a = run.ranks[0];
    const auto& b = back.ranks[0];
    ASSERT_EQ(b.events.size(), a.events.size());
    ASSERT_EQ(b.marks.size(), a.marks.size());
    const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < a.events.size(); ++i) {
        mismatches += bits(a.events[i].start) != bits(b.events[i].start);
        mismatches += bits(a.events[i].duration) != bits(b.events[i].duration);
        mismatches += bits(a.events[i].bytes) != bits(b.events[i].bytes);
        mismatches += bits(a.marks[i].time) != bits(b.marks[i].time);
    }
    EXPECT_EQ(mismatches, 0u);
}
