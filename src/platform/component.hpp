// The DECOS component (Fig. 2) — the paper's FCR/FRU for hardware faults.
//
// A component couples one TTA communication controller (the node) with an
// application layer hosting jobs of several DASs in separate partitions.
// The component implements the encapsulation glue: at its TDMA send
// instant it dispatches the jobs scheduled this round, drains their port
// queues through the multiplexer under the vnets' bandwidth budgets, packs
// the result into the frame, and loops drained messages back to local
// subscribers; on frame arrival it routes records to hosted receiver jobs.
//
// Because every hosted job shares this node's physical resources, a
// component-internal hardware fault disturbs *all* of them at once — the
// correlation signature Fig. 10's judgement relies on.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <vector>

#include "platform/job.hpp"
#include "platform/types.hpp"
#include "sim/simulator.hpp"
#include "tta/node.hpp"
#include "vnet/message.hpp"
#include "vnet/multiplexer.hpp"
#include "vnet/network_plan.hpp"

namespace decos::platform {

/// The vnet decode of the last payload a component of one cluster judged
/// correct, shared by all of them. Every receiver of an unmodified
/// broadcast sees the same payload stamp (tta::FrameHandle::stamp), so
/// the first component to close that slot decodes the bytes and the
/// others reuse the messages: one decode per distinct content instead of
/// one per receiver. The messages are read-only; route_local copies one
/// before a delivery_mutator touches it.
class DecodeCache {
 public:
  /// Calls `fn` on each message of `payload`, whose content identity is
  /// `stamp`, decoding only when `stamp` is not the last one decoded. A
  /// malformed payload yields no message. `fn` must not deliver another
  /// payload through this cache.
  template <typename Fn>
  void for_each(std::uint64_t stamp, std::span<const std::uint8_t> payload,
                Fn&& fn) {
    assert(!iterating_ && "a delivery re-entered the decode cache");
    if (stamp != stamp_) {
      vnet::unpack_into(payload, messages_);  // empty when malformed
      stamp_ = stamp;
    }
    iterating_ = true;
    for (const vnet::Message& m : messages_) fn(m);
    iterating_ = false;
  }

 private:
  std::uint64_t stamp_ = 0;  // none decoded yet: pool stamps start at 1
  std::vector<vnet::Message> messages_;
  bool iterating_ = false;
};

class Component {
 public:
  /// `decode_cache` is shared by every component of the cluster.
  Component(sim::Simulator& sim, tta::TtaNode& node,
            const vnet::NetworkPlan& plan, DecodeCache& decode_cache);

  /// Registers a job as hosted here (its partition). Jobs dispatch in
  /// ascending JobId order within a round.
  void host(Job& job);

  /// Declares an output port whose owner job runs here.
  void host_port(PortId port);

  /// Installs the node callbacks. Call once after all hosting is done.
  void bind();

  [[nodiscard]] ComponentId id() const { return node_.node_id(); }
  [[nodiscard]] tta::TtaNode& node() { return node_; }
  [[nodiscard]] vnet::Multiplexer& mux() { return mux_; }
  [[nodiscard]] const std::map<JobId, Job*>& hosted_jobs() const {
    return jobs_;
  }

  /// Sender-side LIF observation hook: every message this component put
  /// on the (virtual) wire this round. The local diagnostic agent
  /// subscribes here.
  std::function<void(const vnet::Message&, tta::RoundId)> on_message_sent;

  /// Model-based application assertions raised by hosted jobs
  /// (JobContext::report_transducer_anomaly). The local diagnostic agent
  /// subscribes here.
  std::function<void(JobId, double, tta::RoundId)> on_transducer_anomaly;

  /// Last-hop delivery gate: when set, a message reaches a hosted
  /// receiver job only if the filter returns true. Null (the default)
  /// delivers everything. Scenario-level fault instrumentation installs
  /// per-receiver drops here; the platform layer itself stays fault-model
  /// agnostic.
  std::function<bool(const vnet::Message&, JobId receiver)> delivery_filter;

  /// Value-domain corruption of the record as stored in this component's
  /// memory (SEU in a port buffer): when set, every locally delivered
  /// message passes through the mutator before reaching the hosted
  /// receiver jobs — all of them read the same corrupted store. Null (the
  /// default) costs one branch.
  std::function<void(vnet::Message&)> delivery_mutator;

 private:
  void build_payload(tta::RoundId round, std::vector<std::uint8_t>& out);
  void route_local(const vnet::Message& msg);

  sim::Simulator& sim_;
  tta::TtaNode& node_;
  const vnet::NetworkPlan& plan_;
  DecodeCache& decode_cache_;
  vnet::Multiplexer mux_;
  std::map<JobId, Job*> jobs_;  // ordered: deterministic dispatch order
  /// Per-port list of *hosted* receiver jobs, precomputed in bind(): the
  /// delivery hot path walks exactly the jobs it will deliver to, instead
  /// of probing the job map once per configured receiver per message.
  std::vector<std::vector<Job*>> local_receivers_;
  /// Round-scratch buffer: cleared every use, capacity kept, so the
  /// steady-state TDMA round allocates nothing on this component.
  std::vector<vnet::Message> drain_scratch_;
};

}  // namespace decos::platform
