// Core identifier and time types shared by every module.
//
// Time is modelled as a signed 64-bit count of microseconds. The simulator
// advances a virtual clock in these units; the real-time runtime maps them
// onto std::chrono::steady_clock. Algorithms never interpret absolute time,
// they only measure intervals, matching the paper's model of unsynchronized
// interval-accurate local clocks.
#pragma once

#include <cstdint>
#include <limits>

namespace lls {

/// Dense process identifier in [0, n). The paper's total order on processes
/// is the natural order on ids.
using ProcessId = std::uint32_t;

/// Sentinel for "no process" (the Omega output before any election, and the
/// bottom value used by monitors for crashed processes).
inline constexpr ProcessId kNoProcess = std::numeric_limits<ProcessId>::max();

/// Microseconds since an arbitrary epoch (virtual or steady-clock based).
using TimePoint = std::int64_t;

/// Microseconds.
using Duration = std::int64_t;

inline constexpr Duration kMicrosecond = 1;
inline constexpr Duration kMillisecond = 1000 * kMicrosecond;
inline constexpr Duration kSecond = 1000 * kMillisecond;

inline constexpr TimePoint kTimeNever = std::numeric_limits<TimePoint>::max();

/// One-shot timer handle returned by Runtime::set_timer.
using TimerId = std::uint64_t;

inline constexpr TimerId kInvalidTimer = 0;

/// Message type tag. Each protocol reserves a disjoint range (see the
/// per-protocol headers); the network treats the tag as opaque except for
/// per-type fair-lossy accounting, mirroring the paper's notion of
/// "typed" fair-lossy links.
using MessageType = std::uint16_t;

/// Consensus-group index within a replica (see rsm/replica.h). Keys are
/// partitioned over [0, M) groups by the ShardMap; kNoShard marks messages
/// and hints that carry no shard affinity (the M = 1 deployments).
using ShardId = std::uint16_t;

inline constexpr ShardId kNoShard = std::numeric_limits<ShardId>::max();

}  // namespace lls
