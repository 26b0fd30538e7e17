#include "sim/events.hpp"

namespace rechord::sim {

const char* event_name(const Event& e) {
  struct Namer {
    const char* operator()(const JoinBurst&) const { return "join-burst"; }
    const char* operator()(const LeaveBurst&) const { return "leave-burst"; }
    const char* operator()(const CrashBurst&) const { return "crash-burst"; }
    const char* operator()(const MixedChurn&) const { return "mixed-churn"; }
    const char* operator()(const PoissonChurn&) const {
      return "poisson-churn";
    }
    const char* operator()(const Scramble&) const { return "scramble"; }
    const char* operator()(const CrashRestart&) const {
      return "crash-restart";
    }
    const char* operator()(const AssignDatacenters&) const {
      return "assign-datacenters";
    }
    const char* operator()(const SetLatencyModel&) const {
      return "set-latency-model";
    }
    const char* operator()(const SetMessageLoss&) const {
      return "set-message-loss";
    }
    const char* operator()(const SetSleep&) const { return "set-sleep"; }
    const char* operator()(const PartitionBegin&) const {
      return "partition-begin";
    }
    const char* operator()(const PartitionEnd&) const {
      return "partition-end";
    }
    const char* operator()(const RunRounds&) const { return "run-rounds"; }
    const char* operator()(const Checkpoint&) const { return "checkpoint"; }
    const char* operator()(const AwaitAlmost&) const { return "await-almost"; }
    const char* operator()(const KvRebalance&) const { return "kv-rebalance"; }
    const char* operator()(const LookupLoad&) const { return "lookup-load"; }
    const char* operator()(const PoissonLookupLoad&) const {
      return "open-loop-load";
    }
    const char* operator()(const AwaitRequestsDrained&) const {
      return "await-requests";
    }
  };
  return std::visit(Namer{}, e);
}

}  // namespace rechord::sim
