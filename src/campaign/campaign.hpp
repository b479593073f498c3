#pragma once
//! \file campaign.hpp
//! Umbrella header for the campaign subsystem: sharded, resumable
//! measurement campaigns. Workflow of a fixed-N plan across hosts:
//!
//!   1. describe the plan once      — CampaignSpec (spec.hpp), saved to a file;
//!   2. run shards anywhere         — run_shard (runner.hpp), persisted via
//!                                    shard_io.hpp;
//!   3. merge and cluster centrally — merge_shards (merge.hpp).
//!
//! The per-assignment RNG streams of core::measure_assignments guarantee the
//! merged result is bit-identical to the single-process pipeline. On one
//! host, run_campaign (merge.hpp) measures any plan once through one engine.
//! An adaptive plan always runs that way: its stop decisions watch the
//! clustering of all algorithms, so no shard can decide them alone.

#include "campaign/merge.hpp"
#include "campaign/runner.hpp"
#include "campaign/shard_io.hpp"
#include "campaign/sharder.hpp"
#include "campaign/spec.hpp"
