#pragma once
//! \file refs.hpp
//! Reference outputs the sim workloads are checked against, recorded in
//! perfbench/refs/ by `perfbench --record`. One file per workload and
//! input id; each holds one case per campaign output: its label, the
//! per-algorithm sample counts, the digest of the measured values and the
//! exact bytes of the clustering CSV.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RefCase {
    std::string label;
    std::vector<std::size_t> counts;
    std::uint64_t digest = 0;
    std::string csv;
};

/// Parses a reference file; throws std::runtime_error when it is missing or
/// malformed.
[[nodiscard]] std::vector<RefCase> read_refs(const std::string& path);

void write_refs(const std::string& path, const std::string& title,
                const std::vector<RefCase>& cases);

/// The reference case called `label`, or nullptr.
[[nodiscard]] const RefCase* find_ref(const std::vector<RefCase>& cases,
                                      const std::string& label);

} // namespace perfbench
