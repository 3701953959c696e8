// ShardRouter: deterministic rendezvous-hash front for a sharded proxy
// fleet (ISSUE 8, tentpole; ROADMAP item 1).
//
// The deployment story behind PARCEL is an ISP-operated proxy tier, and a
// tier is N proxies behind a routing front, not one box. The router maps
// a client/origin key to one of N shards with highest-random-weight
// (rendezvous) hashing: every (key, shard) pair gets a 64-bit score from
// a seeded integer mix, and the key routes to the live shard with the
// maximum score. Two properties make this the right front for a
// deterministic fleet simulation:
//
//  * Minimal disruption — when a shard dies, only the keys whose maximum
//    score sat on the victim move (to their second-best shard); every
//    surviving shard keeps exactly the keys it had. Crash-driven session
//    handoff therefore remaps ~K/N sessions and nothing else, which the
//    property tests pin exactly.
//
//  * Pure determinism — scores are a pure function of (salt, key, shard
//    index): no wall clock, no global state, no dependence on the order
//    routing questions are asked. Routing is bitwise identical across
//    --jobs values, reruns, and hosts.
//
// Liveness is explicit state (`set_alive`), flipped only by seeded fault
// events on the fleet timeline, so the full routing history of a run is a
// pure function of (salt, FaultPlan).
#pragma once

#include <cstdint>
#include <vector>

namespace parcel::fleet {

class ShardRouter {
 public:
  /// The fleet's routing salt (part of a sharded run's identity).
  static constexpr std::uint64_t kRouteSalt = 0x5ca1ab1e2014ULL;

  /// `shards` >= 1; throws std::invalid_argument otherwise. All shards
  /// start alive. `salt` seeds the score stream (same salt + same key =>
  /// same score on every host).
  explicit ShardRouter(int shards, std::uint64_t salt = kRouteSalt);

  [[nodiscard]] int shards() const { return static_cast<int>(alive_.size()); }
  [[nodiscard]] int alive_count() const;
  [[nodiscard]] bool alive(int shard) const;

  /// Flip a shard's liveness. Dead shards never win route(); reviving a
  /// shard restores exactly its original key set (rendezvous property).
  void set_alive(int shard, bool alive);

  /// Highest-scoring live shard for `key`. Throws std::logic_error when
  /// every shard is dead (the fleet cannot route anything).
  [[nodiscard]] int route(std::uint64_t key) const;

  /// Routing key for a fleet client id (the per-session identity the
  /// front hashes; distinct from any RNG stream).
  [[nodiscard]] static std::uint64_t client_key(int client);

  /// SplitMix64 finalizer: the score mix. Public so victim selection and
  /// tests can share the exact same stream.
  [[nodiscard]] static std::uint64_t mix(std::uint64_t x);

 private:
  std::uint64_t salt_ = 0;
  std::vector<std::uint8_t> alive_;
};

}  // namespace parcel::fleet
