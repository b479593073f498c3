#include "campaign/shard_io.hpp"

#include "core/io.hpp"
#include "support/error.hpp"

#include "temp_path.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>

namespace campaign = relperf::campaign;
namespace core = relperf::core;

namespace {

campaign::ShardResult sample_shard() {
    campaign::ShardResult shard;
    shard.manifest.spec_hash = 0xDEADBEEFCAFEF00DULL;
    shard.manifest.shard_index = 1;
    shard.manifest.shard_count = 3;
    shard.manifest.campaign = "edge-sweep";
    shard.manifest.host = "rpi-kitchen";
    shard.manifest.backend = "blas";
    shard.measurements.add("algDA", {0.25, 0.26, 0.24});
    shard.measurements.add("algAA", {0.125, 1.0 / 3.0, 0.1275});
    return shard;
}

std::string write_temp(const std::string& content, const std::string& name) {
    const std::string path = relperf::test::temp_path(name);
    std::ofstream out(path);
    out << content;
    return path;
}

} // namespace

TEST(ShardIo, RoundTripsManifestAndMeasurementsExactly) {
    const campaign::ShardResult original = sample_shard();
    const std::string path = relperf::test::temp_path("shard_rt.csv");
    campaign::write_shard_csv(original, path);
    const campaign::ShardResult loaded = campaign::read_shard_csv(path);
    std::remove(path.c_str());

    EXPECT_EQ(loaded.manifest.spec_hash, original.manifest.spec_hash);
    EXPECT_EQ(loaded.manifest.shard_index, original.manifest.shard_index);
    EXPECT_EQ(loaded.manifest.shard_count, original.manifest.shard_count);
    EXPECT_EQ(loaded.manifest.campaign, original.manifest.campaign);
    EXPECT_EQ(loaded.manifest.host, original.manifest.host);
    EXPECT_EQ(loaded.manifest.backend, original.manifest.backend);

    ASSERT_EQ(loaded.measurements.size(), original.measurements.size());
    for (std::size_t i = 0; i < original.measurements.size(); ++i) {
        EXPECT_EQ(loaded.measurements.name(i), original.measurements.name(i));
        const auto got = loaded.measurements.samples(i);
        const auto want = original.measurements.samples(i);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t k = 0; k < want.size(); ++k) {
            // %.17g must reproduce the doubles bit-for-bit (1/3 included).
            EXPECT_EQ(got[k], want[k]);
        }
    }
}

TEST(ShardIo, ShardFilesAreReadableAsPlainMeasurementCsv) {
    const campaign::ShardResult original = sample_shard();
    const std::string path = relperf::test::temp_path("shard_plain.csv");
    campaign::write_shard_csv(original, path);
    const core::MeasurementSet set = core::read_measurements_csv(path);
    std::remove(path.c_str());
    EXPECT_EQ(set.size(), 2u);
    EXPECT_EQ(set.name(0), "algDA");
}

TEST(ShardIo, MissingManifestIsRejectedWithTheFileName) {
    const std::string path = write_temp(
        "algorithm,measurement_index,seconds\nalgD,0,1.0\n",
        "relperf_shard_nomanifest.csv");
    try {
        (void)campaign::read_shard_csv(path);
        FAIL() << "expected an error";
    } catch (const relperf::Error& e) {
        EXPECT_NE(std::string(e.what()).find(path), std::string::npos);
        EXPECT_NE(std::string(e.what()).find("spec_hash"), std::string::npos);
    }
    std::remove(path.c_str());
}

TEST(ShardIo, MalformedManifestValuesNameTheLine) {
    const std::string path = write_temp(
        "# spec_hash = zzzz-not-hex\n"
        "# shard_index = 0\n"
        "# shard_count = 2\n"
        "algorithm,measurement_index,seconds\nalgD,0,1.0\n",
        "relperf_shard_badhash.csv");
    try {
        (void)campaign::read_shard_csv(path);
        FAIL() << "expected an error";
    } catch (const relperf::Error& e) {
        EXPECT_NE(std::string(e.what()).find(":1:"), std::string::npos)
            << e.what();
    }
    std::remove(path.c_str());
}

TEST(ShardIo, InconsistentShardRefIsRejected) {
    const std::string path = write_temp(
        "# spec_hash = 00000000000000ff\n"
        "# shard_index = 5\n"
        "# shard_count = 2\n"
        "algorithm,measurement_index,seconds\nalgD,0,1.0\n",
        "relperf_shard_badref.csv");
    EXPECT_THROW((void)campaign::read_shard_csv(path), relperf::Error);
    std::remove(path.c_str());
}

TEST(ShardIo, ExpandsCommaListsAndSortsThem) {
    const std::vector<std::string> paths =
        campaign::expand_shard_pattern("b.csv, a.csv ,c.csv");
    EXPECT_EQ(paths, (std::vector<std::string>{"a.csv", "b.csv", "c.csv"}));
    EXPECT_THROW((void)campaign::expand_shard_pattern("  "), relperf::Error);
}

TEST(ShardIo, ExpandsGlobPatterns) {
    const std::string a = write_temp("x", "glob_s0.csv");
    const std::string b = write_temp("x", "glob_s1.csv");
    const std::vector<std::string> paths =
        campaign::expand_shard_pattern(relperf::test::temp_path("glob_s*.csv"));
    EXPECT_EQ(paths.size(), 2u);
    EXPECT_NE(paths[0], paths[1]);
    EXPECT_THROW(
        (void)campaign::expand_shard_pattern(
            relperf::test::temp_path("glob_none*.csv")),
        relperf::Error);
    std::remove(a.c_str());
    std::remove(b.c_str());
}

TEST(ShardIo, HostNameIsNonEmpty) {
    EXPECT_FALSE(campaign::host_name().empty());
}

TEST(ShardIo, PreBackendShardFilesReadAsPortable) {
    // Files written before the backend axis have no `# backend` line; they
    // were measured on the (only) portable kernels, and must read as such.
    const std::string path = write_temp(
        "# spec_hash = 00000000000000ff\n"
        "# shard_index = 0\n"
        "# shard_count = 2\n"
        "algorithm,measurement_index,seconds\nalgD,0,1.0\n",
        "relperf_shard_prebackend.csv");
    const campaign::ShardResult loaded = campaign::read_shard_csv(path);
    std::remove(path.c_str());
    EXPECT_EQ(loaded.manifest.backend, "portable");
}

namespace {

campaign::ShardResult adaptive_shard() {
    campaign::ShardResult shard = sample_shard();
    shard.manifest.adaptive_min = 2;
    shard.manifest.adaptive_batch = 1;
    shard.manifest.adaptive_stability = 2;
    shard.manifest.samples_per_algorithm = {3, 3};
    return shard;
}

} // namespace

TEST(ShardIoAdaptive, ManifestRoundTripsAndFixedFilesStayClean) {
    const campaign::ShardResult original = adaptive_shard();
    const std::string path = relperf::test::temp_path("shard_adaptive.csv");
    campaign::write_shard_csv(original, path);
    const campaign::ShardResult loaded = campaign::read_shard_csv(path);
    std::remove(path.c_str());
    EXPECT_EQ(loaded.manifest.adaptive_min, 2u);
    EXPECT_EQ(loaded.manifest.adaptive_batch, 1u);
    EXPECT_EQ(loaded.manifest.adaptive_stability, 2u);
    EXPECT_EQ(loaded.manifest.samples_per_algorithm,
              (std::vector<std::size_t>{3, 3}));

    // A fixed-N shard keeps the exact pre-adaptive file form: no adaptive
    // manifest lines at all, and the reader defaults to fixed-N.
    const std::string fixed_path = relperf::test::temp_path("shard_fixed.csv");
    campaign::write_shard_csv(sample_shard(), fixed_path);
    std::ifstream in(fixed_path);
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    EXPECT_EQ(content.find("adaptive"), std::string::npos);
    EXPECT_EQ(content.find("samples_per_algorithm"), std::string::npos);
    const campaign::ShardResult fixed = campaign::read_shard_csv(fixed_path);
    std::remove(fixed_path.c_str());
    EXPECT_EQ(fixed.manifest.adaptive_min, 0u);
    EXPECT_TRUE(fixed.manifest.samples_per_algorithm.empty());
}

TEST(ShardIoAdaptive, DeclaredCountsAreCheckedAgainstTheRows) {
    // Truncation/tampering canary: the manifest's per-algorithm counts must
    // match the measurement rows that follow.
    const campaign::ShardResult original = adaptive_shard();
    const std::string path = relperf::test::temp_path("shard_tamper.csv");
    campaign::write_shard_csv(original, path);
    std::ifstream in(path);
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    in.close();

    // Drop the last measurement row (simulated truncation).
    std::string truncated = content;
    truncated.erase(truncated.find_last_of('\n', truncated.size() - 2) + 1);
    const std::string tpath = write_temp(truncated, "relperf_trunc.csv");
    EXPECT_THROW((void)campaign::read_shard_csv(tpath), relperf::Error);
    std::remove(tpath.c_str());

    // Wrong declared count for the right number of rows.
    std::string edited = content;
    const std::string decl = "# samples_per_algorithm = 3,3";
    edited.replace(edited.find(decl), decl.size(),
                   "# samples_per_algorithm = 3,4");
    const std::string epath = write_temp(edited, "relperf_edit.csv");
    EXPECT_THROW((void)campaign::read_shard_csv(epath), relperf::Error);
    std::remove(epath.c_str());

    // Wrong list length.
    std::string shorter = content;
    shorter.replace(shorter.find(decl), decl.size(),
                    "# samples_per_algorithm = 6");
    const std::string spath = write_temp(shorter, "relperf_short.csv");
    EXPECT_THROW((void)campaign::read_shard_csv(spath), relperf::Error);
    std::remove(spath.c_str());

    std::remove(path.c_str());
}

TEST(ShardIoAdaptive, WriterRejectsDivergentDeclaredCounts) {
    // The manifest's declared counts are cross-checked on the write side
    // too: persisting counts that disagree with the rows would write a lie
    // the read-side canary then blames on file corruption.
    campaign::ShardResult shard = adaptive_shard();
    shard.manifest.samples_per_algorithm = {3, 4}; // algAA really has 3
    const std::string path = relperf::test::temp_path("divergent.csv");
    EXPECT_THROW(campaign::write_shard_csv(shard, path), relperf::Error);
    shard.manifest.samples_per_algorithm = {3};
    EXPECT_THROW(campaign::write_shard_csv(shard, path), relperf::Error);
    std::remove(path.c_str());
}

TEST(ShardIoCoordinated, RetiredLinesStillReadAndNewFilesStayClean) {
    // Files written today carry no coordination lines; the confidence level
    // round-trips.
    campaign::ShardResult original = adaptive_shard();
    original.manifest.adaptive_confidence = 0.95;
    const std::string path =
        relperf::test::temp_path("shard_confident.csv");
    campaign::write_shard_csv(original, path);
    std::ifstream in(path);
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    in.close();
    EXPECT_EQ(content.find("coordination"), std::string::npos);
    EXPECT_EQ(content.find("stopset"), std::string::npos);
    const campaign::ShardResult loaded = campaign::read_shard_csv(path);
    std::remove(path.c_str());
    EXPECT_DOUBLE_EQ(loaded.manifest.adaptive_confidence, 0.95);

    // Files from before the lines were retired still read, to the same
    // shard: the reader ignores both keys, whatever their values.
    const std::string counts = "# samples_per_algorithm = ";
    ASSERT_NE(content.find(counts), std::string::npos);
    content.insert(content.find(counts),
                   "# adaptive_coordination = coordinated\n"
                   "# stopset_rounds = 0,1,2\n");
    const std::string old_path = write_temp(content, "shard_retired.csv");
    const campaign::ShardResult old = campaign::read_shard_csv(old_path);
    std::remove(old_path.c_str());
    EXPECT_EQ(old.manifest.spec_hash, loaded.manifest.spec_hash);
    EXPECT_DOUBLE_EQ(old.manifest.adaptive_confidence, 0.95);
    EXPECT_EQ(old.manifest.samples_per_algorithm,
              loaded.manifest.samples_per_algorithm);
    ASSERT_EQ(old.measurements.size(), loaded.measurements.size());
    for (std::size_t i = 0; i < old.measurements.size(); ++i) {
        const auto a = old.measurements.samples(i);
        const auto b = loaded.measurements.samples(i);
        EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
    }

    // A stability-rule adaptive shard writes no confidence line either.
    const std::string plain_path =
        relperf::test::temp_path("shard_plain_adaptive.csv");
    campaign::write_shard_csv(adaptive_shard(), plain_path);
    std::ifstream plain_in(plain_path);
    const std::string plain((std::istreambuf_iterator<char>(plain_in)),
                            std::istreambuf_iterator<char>());
    EXPECT_EQ(plain.find("confidence"), std::string::npos);
    EXPECT_DOUBLE_EQ(
        campaign::read_shard_csv(plain_path).manifest.adaptive_confidence,
        0.0);
    std::remove(plain_path.c_str());
}
