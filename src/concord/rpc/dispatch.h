// Control-plane verb table: RPC method name -> facade call.
//
// Every handler is a thin adapter over the same thread-safe facade surface a
// C++ controller already uses — Concord::Global(), AutotuneController,
// ContainmentRegistry, FaultRegistry. That is the hot-path isolation
// contract: a handler takes exactly the control-plane mutexes those facades
// take (the same ones AutotuneStatusJson takes) and never touches a lock's
// queue, waiter or policy dispatch state directly, so no RPC failure mode
// can block an acquirer beyond normal control-plane activity.
//
// policy.attach loads its source with LoadPolicy (src/concord/policy_source.h),
// the loader concord_check, the fleet agent and autotune use: the same
// directives, the same map table and the same gate (verify under the hook's
// capability mask, lint the lock invariants, certify) before
// Concord::Attach, which runs that gate again. A spec that fails any stage
// never reaches a lock; there is no raw attach verb.
//
// Verbs are registered in the constructor and immutable afterwards;
// Dispatch() is safe to call from any number of server workers concurrently.

#ifndef SRC_CONCORD_RPC_DISPATCH_H_
#define SRC_CONCORD_RPC_DISPATCH_H_

#include <functional>
#include <string>
#include <vector>

#include "src/base/json.h"
#include "src/base/status.h"

namespace concord {

class RpcDispatcher {
 public:
  // Registers the builtin verb table:
  //   read-only: status, autotune.status, containment.status, faults.list,
  //              trace.dump
  //   mutating:  autotune.enable, autotune.disable, trace.enable,
  //              trace.disable, faults.arm, policy.attach, policy.detach
  RpcDispatcher();

  bool Has(const std::string& method) const;

  // Read-only verbs are idempotent: safe to retry on a lost response. The
  // concordctl retry policy keys off the same classification.
  bool IsReadOnly(const std::string& method) const;

  std::vector<std::string> Methods() const;

  // Runs the verb; returns one complete JSON value on success. The
  // "rpc.handler" fault point aborts any verb with an internal error before
  // the handler body runs. Must only be called with a method Has() accepts.
  StatusOr<std::string> Dispatch(const std::string& method,
                                 const JsonValue& params) const;

  // Extra fields appended to the `status` result object (the server injects
  // its own accept/shed/served counters). Set before serving starts.
  void SetExtraStatus(std::function<void(JsonWriter&)> extra);

 private:
  struct Verb {
    std::string name;
    bool read_only = false;
    std::function<StatusOr<std::string>(const JsonValue&)> handler;
  };

  const Verb* Find(const std::string& method) const;

  std::vector<Verb> verbs_;
  std::function<void(JsonWriter&)> extra_status_;
};

}  // namespace concord

#endif  // SRC_CONCORD_RPC_DISPATCH_H_
