#include "core/report.hpp"

#include "core/bootstrap_comparator.hpp"
#include "core/clustering.hpp"
#include "support/error.hpp"

#include "temp_path.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace core = relperf::core;
using relperf::stats::Rng;

namespace {

std::string slurp(const std::string& path) {
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/// Deterministic mean comparator for stable report fixtures.
class MeanComparator final : public core::Comparator {
public:
    core::Ordering compare(std::span<const double> a, std::span<const double> b,
                           Rng&) const override {
        const double ma = relperf::stats::mean(a);
        const double mb = relperf::stats::mean(b);
        if (std::fabs(ma - mb) <= 0.02 * std::min(ma, mb)) {
            return core::Ordering::Equivalent;
        }
        return ma < mb ? core::Ordering::Better : core::Ordering::Worse;
    }
    std::string name() const override { return "mean"; }
};

struct Fixture {
    core::MeasurementSet set = [] {
        core::MeasurementSet s;
        s.add("algAD", {1.00, 1.01, 0.99});
        s.add("algAA", {1.20, 1.21, 1.19});
        s.add("algDD", {2.00, 2.01, 1.99});
        s.add("algDA", {2.005, 2.015, 1.995});
        return s;
    }();
    MeanComparator comparator;
    core::Clustering clustering = core::RelativeClusterer(
        comparator, core::ClustererConfig{20, 3}).cluster(set);
};

} // namespace

TEST(RenderClusterTable, ContainsClustersAndScores) {
    Fixture f;
    const std::string out = core::render_cluster_table(f.clustering, f.set);
    EXPECT_NE(out.find("Cluster"), std::string::npos);
    EXPECT_NE(out.find("Relative Score"), std::string::npos);
    EXPECT_NE(out.find("C1"), std::string::npos);
    EXPECT_NE(out.find("algAD"), std::string::npos);
    EXPECT_NE(out.find("1.00"), std::string::npos);
    // DD and DA are equivalent: same cluster, so at most 3 clusters.
    EXPECT_EQ(out.find("C4"), std::string::npos);
}

TEST(RenderFinalTable, OrdersByRank) {
    Fixture f;
    const std::string out = core::render_final_table(f.clustering, f.set);
    // algAD (rank 1) must appear before algDD (rank 3) in the rendering.
    EXPECT_LT(out.find("algAD"), out.find("algDD"));
    EXPECT_NE(out.find("Final Cluster"), std::string::npos);
    EXPECT_NE(out.find("Cumulated Score"), std::string::npos);
}

TEST(RenderSummaryTable, SortsByMeanAndShowsStats) {
    Fixture f;
    const std::string out = core::render_summary_table(f.set);
    EXPECT_LT(out.find("algAD"), out.find("algAA"));
    EXPECT_LT(out.find("algAA"), out.find("algDD"));
    EXPECT_NE(out.find("Mean"), std::string::npos);
    EXPECT_NE(out.find("Median"), std::string::npos);
    EXPECT_NE(out.find("ms"), std::string::npos); // human-readable units
}

TEST(RenderComparisonMatrix, DiagonalAndSymbols) {
    Fixture f;
    Rng rng(1);
    const std::string out =
        core::render_comparison_matrix(f.set, f.comparator, rng);
    EXPECT_NE(out.find("="), std::string::npos);
    EXPECT_NE(out.find(">"), std::string::npos);
    EXPECT_NE(out.find("<"), std::string::npos);
    EXPECT_NE(out.find("~"), std::string::npos); // DD ~ DA
}

TEST(RenderSortTrace, ShowsStepsAndSequences) {
    Fixture f;
    Rng rng(2);
    std::vector<core::SortStep> trace;
    const core::RelativeClusterer clusterer(f.comparator,
                                            core::ClustererConfig{1, 1});
    (void)clusterer.sort_once_traced(f.set, {0, 1, 2, 3}, rng, trace);
    const std::string out = core::render_sort_trace(trace, f.set);
    EXPECT_NE(out.find("step 1"), std::string::npos);
    EXPECT_NE(out.find("sequence:"), std::string::npos);
    EXPECT_NE(out.find("algAD"), std::string::npos);
}

TEST(RenderDistributions, SharedAxisHistograms) {
    Fixture f;
    const std::string out = core::render_distributions(f.set, 10, 20);
    // One block per algorithm.
    EXPECT_NE(out.find("algAD"), std::string::npos);
    EXPECT_NE(out.find("algDA"), std::string::npos);
    EXPECT_NE(out.find("#"), std::string::npos);
}

TEST(RenderDistributions, EmptySetThrows) {
    EXPECT_THROW((void)core::render_distributions(core::MeasurementSet{}),
                 relperf::InvalidArgument);
}

TEST(CsvExports, MeasurementsRoundTrip) {
    Fixture f;
    const std::string path = relperf::test::temp_path("report_meas.csv");
    core::write_measurements_csv(f.set, path);
    const std::string content = slurp(path);
    EXPECT_NE(content.find("algorithm,measurement_index,seconds"),
              std::string::npos);
    EXPECT_NE(content.find("algDD,0,"), std::string::npos);
    // 4 algs x 3 measurements + header = 13 lines.
    EXPECT_EQ(std::count(content.begin(), content.end(), '\n'), 13);
    std::remove(path.c_str());
}

TEST(CsvExports, ClusteringContainsFinalColumns) {
    Fixture f;
    const std::string path = relperf::test::temp_path("report_clus.csv");
    core::write_clustering_csv(f.clustering, f.set, path);
    const std::string content = slurp(path);
    EXPECT_NE(content.find("cluster,algorithm,relative_score,final_cluster,final_score"),
              std::string::npos);
    EXPECT_NE(content.find("algAD"), std::string::npos);
    std::remove(path.c_str());
}
