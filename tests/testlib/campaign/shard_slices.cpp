#include "campaign/shard_slices.hpp"

#include "campaign/sharder.hpp"

#include <utility>

namespace relperf::test {

std::vector<campaign::ShardResult> slice_shards(
    const campaign::CampaignSpec& spec, const core::MeasurementSet& measured,
    std::size_t shard_count) {
    const campaign::Sharder sharder(measured.size(), shard_count);
    std::vector<campaign::ShardResult> shards;
    for (std::size_t i = 0; i < shard_count; ++i) {
        const campaign::ShardPlan plan = sharder.plan(i);
        campaign::ShardResult shard;
        for (const std::size_t global : plan.assignment_indices) {
            const auto samples = measured.samples(global);
            shard.measurements.add(measured.name(global),
                                   {samples.begin(), samples.end()});
        }
        shard.manifest = campaign::plan_manifest(spec, i, shard_count,
                                                 shard.measurements);
        shards.push_back(std::move(shard));
    }
    return shards;
}

} // namespace relperf::test
