//! The run provenance record: built-in facts, user entries (ordering,
//! overwrite, sanitization), and the round-trip through a shard manifest's
//! `# provenance =` line.
#include "obs/provenance.hpp"

#include "campaign/campaign.hpp"
#include "obs/obs.hpp"

#include "temp_path.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace campaign = relperf::campaign;
namespace obs = relperf::obs;

namespace {

class ProvenanceTest : public ::testing::Test {
protected:
    void SetUp() override { obs::clear_provenance(); }
    void TearDown() override { obs::clear_provenance(); }

    static const std::string* find(const std::vector<obs::ProvenanceEntry>& r,
                                   const std::string& key) {
        for (const obs::ProvenanceEntry& e : r) {
            if (e.key == key) return &e.value;
        }
        return nullptr;
    }
};

} // namespace

TEST_F(ProvenanceTest, BuiltinFactsArePresentAndNonEmpty) {
    const std::vector<obs::ProvenanceEntry> record = obs::provenance();
    for (const char* key : {"host", "build", "sanitize", "openmp"}) {
        const std::string* value = find(record, key);
        ASSERT_NE(value, nullptr) << key;
        EXPECT_FALSE(value->empty()) << key;
    }
}

TEST_F(ProvenanceTest, UserEntriesAppendInInsertionOrderAfterBuiltins) {
    const std::size_t builtin_count = obs::provenance().size();
    obs::set_provenance("zeta", "1");
    obs::set_provenance("alpha", "2");
    const std::vector<obs::ProvenanceEntry> record = obs::provenance();
    ASSERT_EQ(record.size(), builtin_count + 2);
    EXPECT_EQ(record[builtin_count].key, "zeta");
    EXPECT_EQ(record[builtin_count + 1].key, "alpha");
}

TEST_F(ProvenanceTest, SetOverwritesInPlaceAndClearDropsUserEntriesOnly) {
    const std::size_t builtin_count = obs::provenance().size();
    obs::set_provenance("spec", "first");
    obs::set_provenance("plan", "p");
    obs::set_provenance("spec", "second");
    const std::vector<obs::ProvenanceEntry> record = obs::provenance();
    ASSERT_EQ(record.size(), builtin_count + 2);
    EXPECT_EQ(record[builtin_count].key, "spec");
    EXPECT_EQ(record[builtin_count].value, "second");

    obs::clear_provenance();
    EXPECT_EQ(obs::provenance().size(), builtin_count);
}

TEST_F(ProvenanceTest, ValuesAreSanitizedForSingleLineEmbedding) {
    obs::set_provenance("cmd", "a=b;c\nd\re");
    // provenance() returns by value; keep the record alive past find().
    const std::vector<obs::ProvenanceEntry> record = obs::provenance();
    const std::string* value = find(record, "cmd");
    ASSERT_NE(value, nullptr);
    EXPECT_EQ(*value, "a b c d e");
}

TEST_F(ProvenanceTest, ShardManifestRoundTripsTheRecord) {
    obs::set_provenance("spec", "prov-roundtrip");
    obs::set_provenance("plan_hash", "00000000deadbeef");

    campaign::CampaignSpec spec;
    spec.name = "prov-roundtrip";
    spec.sizes = {32, 64};
    spec.iters = 3;
    spec.platform = "paper-cpu-gpu";
    spec.measurements = 8;
    spec.measurement_seed = 5;
    spec.clustering_repetitions = 30;
    spec.clustering_seed = 9;

    const campaign::ShardResult shard = campaign::run_shard(spec, 0, 1);
    ASSERT_FALSE(shard.manifest.provenance.empty());

    // The manifest snapshot contains every provenance entry, in order.
    const std::vector<obs::ProvenanceEntry> record = obs::provenance();
    ASSERT_EQ(shard.manifest.provenance.size(), record.size());
    for (std::size_t i = 0; i < record.size(); ++i) {
        EXPECT_EQ(shard.manifest.provenance[i].first, record[i].key) << i;
        EXPECT_EQ(shard.manifest.provenance[i].second, record[i].value) << i;
    }

    const std::string path = relperf::test::temp_path("shard.csv");
    campaign::write_shard_csv(shard, path);
    const campaign::ShardResult back = campaign::read_shard_csv(path);
    EXPECT_EQ(back.manifest.provenance, shard.manifest.provenance);

    const auto has = [&back](const std::string& key, const std::string& value) {
        return std::find(back.manifest.provenance.begin(),
                         back.manifest.provenance.end(),
                         std::make_pair(key, value)) !=
               back.manifest.provenance.end();
    };
    EXPECT_TRUE(has("spec", "prov-roundtrip"));
    EXPECT_TRUE(has("plan_hash", "00000000deadbeef"));
}
