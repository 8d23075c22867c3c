// Umbrella header: "The users can include the HCL library header and
// utilize the data structures by calling the constructor" (§III).
//
//   #include "core/hcl.h"
//
//   hcl::Context ctx({.num_nodes = 8, .procs_per_node = 40});
//   hcl::unordered_map<K, V>  — distributed hash map   (§III.D.1)
//   hcl::unordered_set<K>     — distributed hash set   (§III.D.1)
//   hcl::map<K, V>            — distributed ordered map (§III.D.2)
//   hcl::set<K>               — distributed ordered set (§III.D.2)
//   hcl::queue<T>             — distributed FIFO queue  (§III.D.3A)
//   hcl::priority_queue<T>    — distributed priority queue (§III.D.3B)
//
// Each name is an alias template over one of two generic cores:
// core::PartitionedMap<Store> (partitioned_map.h; the maps, and the sets
// through core::PartitionedSet in sets.h) and core::HostedQueue<Store>
// (hosted_queue.h; the queues), each over a store adapter (stores.h).
#pragma once

#include "core/context.h"
#include "core/hosted_queue.h"
#include "core/partitioned_map.h"
#include "core/sets.h"
