#include "fabric/nic.h"

#include <gtest/gtest.h>

namespace hcl::fabric {
namespace {

sim::CostModel test_model() {
  auto m = sim::CostModel::ares();
  m.nic_cores = 4;
  return m;
}

TEST(Nic, ResourcesHaveConfiguredLanes) {
  auto m = test_model();
  m.nic_dma_lanes = 2;
  m.nic_atomic_lanes = 1;
  m.nic_cores = 8;
  Nic nic(0, m, sim::kSecond, 10);
  EXPECT_EQ(nic.ingress().lanes(), 2);
  EXPECT_EQ(nic.atomic_unit().lanes(), 1);
  EXPECT_EQ(nic.cores().lanes(), 8);
}

TEST(Nic, ResetMetricsClearsCountersAndResources) {
  Nic nic(0, test_model(), sim::kSecond, 10);
  nic.counters().record_packets(0, 5, 100);
  nic.ingress().reserve(0, 100);
  nic.reset_metrics();
  EXPECT_EQ(nic.counters().total_packets.load(), 0);
  EXPECT_EQ(nic.ingress().busy_total(), 0);
}

}  // namespace
}  // namespace hcl::fabric
