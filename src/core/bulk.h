// Shared bulk-operation plumbing for both container cores (Table I's bulk
// rows).
//
// Every *_batch API follows the same shape. Each element takes the one
// client route (core::route in core/failover.h), which makes the per-element
// choice for both cores: an element co-located with its primary runs its
// server body inline on the hybrid shared-memory path; any other element is
// enqueued into a per-destination rpc::Batcher at the target batch_route
// chose (the standby's twin while the primary is marked down). Then
// settle_batch() flushes the bundles and fans the per-op outcomes back into
// the caller's result slots. One bundle = one remote invocation (F paid once
// per bundle, not once per element).
//
// Failure semantics: with `statuses == nullptr` the first failed op throws
// HclError (scalar semantics). With a `statuses` vector, every op's own
// Status is recorded — a fault mid-bundle fails only the ops it touched —
// and nothing throws.
//
// `post(i, future, ok)` runs after each constituent resolves (ok == the op
// neither threw nor failed); the read-cache layer uses it to harvest the
// piggybacked partition epoch (Future::response_epoch, DESIGN.md §5d) and
// refresh or finalize entries.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/op_stats.h"
#include "rpc/batch.h"
#include "rpc/engine.h"
#include "rpc/future.h"
#include "sim/actor.h"

namespace hcl::core {

/// `rescue(i)` runs when a constituent fails kUnavailable (the only failure
/// a failover can rescue), BEFORE the status is recorded or re-thrown. It
/// may re-issue the op out-of-band — core::rescue does when a node dies
/// mid-bundle — and return the new future: when that settles, it fills
/// results[i] and `post` sees it instead, and the failure is swallowed. An
/// invalid future, or one that fails too, leaves the original failure
/// standing.
template <typename R, typename Results, typename Post, typename Rescue>
void settle_batch(OpStats& stats, rpc::Batcher& batcher, sim::Actor& self,
                  std::vector<std::pair<std::size_t, rpc::Future<R>>>& remote,
                  Results& results, std::vector<Status>* statuses, Post&& post,
                  Rescue&& rescue) {
  batcher.flush_all(self);
  stats.remote_invocations.fetch_add(batcher.flushes(),
                                     std::memory_order_relaxed);
  for (auto& [i, future] : remote) {
    bool ok = true;
    try {
      results[i] = future.get(self);
    } catch (const HclError& e) {
      Status failure = e.status();
      if (failure.code() == StatusCode::kUnavailable) {
        try {
          rpc::Future<R> again = rescue(i);
          if (again.valid()) {
            results[i] = again.get(self);
            post(i, again, true);
            continue;
          }
        } catch (const HclError&) {
          // Not rescued: the original failure stands.
        }
      }
      ok = false;
      if (statuses == nullptr) {
        post(i, future, ok);
        throw;
      }
      (*statuses)[i] = std::move(failure);
    }
    post(i, future, ok);
  }
}

}  // namespace hcl::core
