#pragma once
//! \file campaign.hpp
//! Umbrella header for the campaign subsystem: sharded, resumable
//! measurement campaigns. Workflow:
//!
//!   1. describe the plan once      — CampaignSpec (spec.hpp), saved to a file;
//!   2. run shards anywhere         — run_shard / LocalShardRunner (runner.hpp),
//!                                    persisted via shard_io.hpp;
//!   3. merge and cluster centrally — merge_shards (merge.hpp).
//!
//! The per-assignment RNG streams of core::measure_assignments guarantee the
//! merged result is bit-identical to the single-process pipeline. On one
//! host, run_campaign (merge.hpp) therefore measures a K-invariant plan once
//! through one engine and fans out into shards only when the stop decisions
//! depend on K.

#include "campaign/merge.hpp"
#include "campaign/runner.hpp"
#include "campaign/shard_io.hpp"
#include "campaign/sharder.hpp"
#include "campaign/spec.hpp"
