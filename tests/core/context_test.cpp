// hcl::Context owns timing state only: the NICs are simulated resources,
// and the rank runners in src/sim/ start threads per run() and join them.
#include "core/context.h"

#include <gtest/gtest.h>

#include <fstream>
#include <string>

namespace hcl {
namespace {

/// This process's thread count from /proc/self/status; -1 without /proc.
int process_threads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return -1;
}

TEST(Context, ConstructionStartsNoThreads) {
  const int before = process_threads();
  if (before < 0) GTEST_SKIP() << "/proc/self/status is not available";
  Context ctx({.num_nodes = 8, .procs_per_node = 4});
  EXPECT_EQ(process_threads(), before);
}

}  // namespace
}  // namespace hcl
