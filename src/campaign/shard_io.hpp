#pragma once
//! \file shard_io.hpp
//! Persistence of one shard's output: the standard measurements CSV
//! (`algorithm,measurement_index,seconds`, readable by core::io and by
//! relperf_cli --input) prefixed with a small manifest in `#` comment lines
//! — spec hash, shard index/count, campaign label and producing host — so a
//! merge on the collecting machine can verify every file belongs to the same
//! measurement plan before clustering.
//!
//! Example file:
//!
//!     # relperf-shard v1
//!     # campaign = edge-sweep
//!     # spec_hash = 9e1b7c2a44f00d1c
//!     # shard_index = 0
//!     # shard_count = 4
//!     # host = rpi-kitchen
//!     algorithm,measurement_index,seconds
//!     algDDD,0,0.0406...

#include "core/measurement.hpp"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace relperf::campaign {

/// Provenance header of a shard file.
struct ShardManifest {
    std::uint64_t spec_hash = 0;  ///< CampaignSpec::hash() of the plan.
    std::size_t shard_index = 0;  ///< i in [0, K).
    std::size_t shard_count = 1;  ///< K.
    std::string campaign;         ///< Spec label (informational).
    std::string host;             ///< Producing host name (informational).
    /// Chain-default linalg backend the shard was measured on. Files from
    /// before the backend axis carry no `# backend` line and read back as
    /// "portable" (which is exactly what they ran on). merge_shards rejects
    /// a backend that disagrees with the spec *before* comparing hashes, so
    /// a cross-backend merge fails with a message naming the real cause.
    std::string backend = "portable";
    /// Per-task backend axis of the plan (`# variant_backends = a,b`); empty
    /// for plain-placement campaigns and for files from before the variant
    /// axis. Checked against the spec by merge_shards like `backend`.
    std::vector<std::string> variant_backends;
    /// Adaptive plan of the shard (0 = fixed-N, the pre-adaptive file form).
    /// Checked against the spec by merge_shards like `backend`.
    std::size_t adaptive_min = 0;       ///< `# adaptive_min_measurements`.
    std::size_t adaptive_batch = 0;     ///< `# adaptive_batch`.
    std::size_t adaptive_stability = 0; ///< `# adaptive_stability_rounds`.
    /// Confidence-targeted stopping rule level (`# adaptive_confidence`);
    /// 0 = the membership-stability rule. Checked like `backend`.
    double adaptive_confidence = 0.0;
    /// Per-algorithm sample counts in CSV order (`# samples_per_algorithm =
    /// 10,15,30`). Written only by adaptive shards — fixed-N counts are
    /// implied by the plan — and cross-checked against the CSV rows on read,
    /// so a truncated or hand-edited file dies before it reaches a merge.
    std::vector<std::size_t> samples_per_algorithm;
    /// Run provenance record of the producing process (`# provenance =
    /// key=value;key=value`, see obs/provenance.hpp). Informational, like
    /// `host`: a merge never validates it, and files from before the obs
    /// layer carry no line and read back empty.
    std::vector<std::pair<std::string, std::string>> provenance;
};

/// One shard's manifest plus its measured distributions (the algorithms of
/// the shard's assignment plan, in plan order).
struct ShardResult {
    ShardManifest manifest;
    core::MeasurementSet measurements;
};

/// Best-effort name of this machine ("unknown" when unavailable).
[[nodiscard]] std::string host_name();

/// Writes `shard` to `path` in the format above. Values use round-trip
/// precision (%.17g) so a merge of written shards is bit-identical to an
/// in-memory merge. Throws relperf::Error on I/O failure.
void write_shard_csv(const ShardResult& shard, const std::string& path);

/// Reads a shard file; throws relperf::Error naming the file (and line, for
/// malformed content) on missing/incomplete manifests or bad measurement rows.
[[nodiscard]] ShardResult read_shard_csv(const std::string& path);

/// Expands a shard-file pattern into sorted paths: a POSIX glob when the
/// pattern contains metacharacters (`*?[`), otherwise a comma-separated list
/// of literal paths. Throws when nothing matches.
[[nodiscard]] std::vector<std::string> expand_shard_pattern(
    const std::string& pattern);

} // namespace relperf::campaign
