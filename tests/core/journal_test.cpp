// The record bytes both cores write (core/failover.h) and the journal replay
// that reads them back:
//   * the journal records and txn intent blobs of a short op sequence per
//     core, pinned as hex — a refactor of the codec must not move a byte;
//   * a journal record with an unknown op code fails container construction
//     with kInvalidArgument, like a truncated one;
//   * reopening over every prefix of a real journal, and over seeded bit
//     flips of it, ends in an opened container or kInvalidArgument, and
//     replays only records equal to the ones written;
//   * a torn append (a record cut short) is not replayed.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/hcl.h"
#include "core/persist_log.h"
#include "memory/node_memory.h"

namespace hcl {
namespace {

using sim::Actor;
using sim::CostModel;

Context::Config zero_config(int nodes) {
  Context::Config cfg;
  cfg.num_nodes = nodes;
  cfg.procs_per_node = 1;
  cfg.model = CostModel::zero();
  return cfg;
}

core::ContainerOptions persisted(const std::string& path) {
  core::ContainerOptions options;
  options.num_partitions = 1;
  options.persist_path = path;
  return options;
}

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string hex(std::span<const std::byte> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const std::byte b : bytes) {
    out += kDigits[std::to_integer<unsigned>(b) >> 4];
    out += kDigits[std::to_integer<unsigned>(b) & 15];
  }
  return out;
}

/// Every record in the journal file at `file`, as hex; `end` (when set)
/// receives where the next append would go.
std::vector<std::string> journal_records(const std::string& file,
                                         std::size_t* end = nullptr) {
  mem::NodeMemory node(0, std::int64_t{64} << 20);
  auto log = core::PersistLog::open(node, file, mem::SyncMode::kRelaxed);
  EXPECT_TRUE(log.ok()) << log.status().to_string();
  std::vector<std::string> recs;
  if (log.ok()) {
    (*log)->replay([&](std::span<const std::byte> rec) { recs.push_back(hex(rec)); });
    if (end != nullptr) *end = (*log)->bytes_logged();
  }
  return recs;
}

using Map = unordered_map<int, std::string>;

/// insert, upsert, a mutator apply, erase: one journal record each.
void map_ops(Map& map) {
  const auto append = map.register_mutator<std::string>(
      [](std::string& v, const std::string& tail) { v += tail; });
  map.insert(7, "seven");
  map.upsert(7, "SEVEN");
  map.apply(7, append, std::string("!"));
  map.erase(7);
}

TEST(JournalBytes, MapRecordsArePinned) {
  const std::string path = temp_path("hcl_journal_bytes_map");
  std::filesystem::remove(path + ".p0");
  {
    Context ctx(zero_config(1));
    Map map(ctx, persisted(path));
    ctx.run_one(0, [&](Actor&) { map_ops(map); });
  }
  // An int key is zigzag-coded (7 -> 0x0e); a string is its length, then
  // its bytes; the apply journals the mutated value as an upsert.
  const std::vector<std::string> expected = {
      "01000000000000000e000000000000000500000000000000736576656e",
      "02000000000000000e000000000000000500000000000000534556454e",
      "02000000000000000e000000000000000600000000000000534556454e21",
      "03000000000000000e00000000000000"};
  EXPECT_EQ(journal_records(path + ".p0"), expected);
  std::filesystem::remove(path + ".p0");
}

TEST(JournalBytes, QueueRecordsArePinned) {
  const std::string path = temp_path("hcl_journal_bytes_queue");
  std::filesystem::remove(path + ".q0");
  {
    Context ctx(zero_config(1));
    queue<int> q(ctx, persisted(path));
    ctx.run_one(0, [&](Actor&) {
      q.push(41);
      q.push(42);
      int v = 0;
      ASSERT_TRUE(q.pop(&v));
    });
  }
  const std::vector<std::string> expected = {
      "01000000000000005200000000000000", "01000000000000005400000000000000",
      "0200000000000000"};
  EXPECT_EQ(journal_records(path + ".q0"), expected);
  std::filesystem::remove(path + ".q0");
}

/// The request bytes of the one prepare `t` enqueues, caught by a spy
/// engine whose every handler records what it is handed (the spy binds a
/// handler at each id the container could have bound its prepare stub to).
std::vector<std::byte> prepare_request(Context& ctx, Actor& self, txn::Txn& t) {
  fabric::Fabric fabric(ctx.topology(), CostModel::zero());
  rpc::Engine spy(fabric);
  std::vector<std::vector<std::byte>> seen;
  for (int i = 0; i < 64; ++i) {
    spy.bind_raw([&seen](rpc::ServerCtx&, std::span<const std::byte> request,
                         serial::OutArchive& out) {
      seen.emplace_back(request.begin(), request.end());
      out.u64(0);
    });
  }
  {
    rpc::Batcher batch(spy);
    t.for_each([&](txn::ParticipantBase& p) {
      p.enqueue_prepare(self, batch, t.id());
    });
    batch.flush_all(self);
  }
  t.for_each([&](txn::ParticipantBase& p) {
    EXPECT_TRUE(p.settle_prepare(self).ok());
  });
  EXPECT_EQ(seen.size(), 1u);
  return seen.empty() ? std::vector<std::byte>{} : seen.front();
}

TEST(JournalBytes, MapIntentBlobIsPinned) {
  Context ctx(zero_config(1));
  core::ContainerOptions options;
  options.num_partitions = 1;
  Map map(ctx, options);
  ctx.run_one(0, [&](Actor& self) {
    txn::Txn t(1);
    map.txn_put(t, 3, "three");
    map.txn_erase(t, 4);
    const auto request = prepare_request(ctx, self, t);
    // The prepare stub's arguments: (p, txn id, reads, blob).
    serial::InArchive in(request);
    int p = -1;
    std::uint64_t txn_id = 0;
    std::vector<std::uint64_t> reads;
    std::vector<std::byte> blob;
    serial::load(in, p);
    serial::load(in, txn_id);
    serial::load(in, reads);
    serial::load(in, blob);
    EXPECT_EQ(p, 0);
    EXPECT_EQ(txn_id, 1u);
    // A count of 2, then upsert 3 "three" and erase 4.
    EXPECT_EQ(hex(blob),
              "0200000000000000"
              "0200000000000000" "0600000000000000" "0500000000000000"
              "7468726565"
              "0300000000000000" "0800000000000000");
  });
}

TEST(JournalBytes, QueueIntentBlobIsPinned) {
  Context ctx(zero_config(1));
  queue<int> q(ctx);
  ctx.run_one(0, [&](Actor& self) {
    q.push(5);
    txn::Txn t(2);
    int v = 0;
    ASSERT_TRUE(q.txn_pop(self, t, &v));
    q.txn_push(t, 9);
    const auto request = prepare_request(ctx, self, t);
    // The prepare stub's arguments: (txn id, expected epoch, blob).
    serial::InArchive in(request);
    std::uint64_t txn_id = 0;
    std::uint64_t expected = 0;
    std::vector<std::byte> blob;
    serial::load(in, txn_id);
    serial::load(in, expected);
    serial::load(in, blob);
    EXPECT_EQ(txn_id, 2u);
    // A count of 2, then in staging order: pop, and push 9.
    EXPECT_EQ(hex(blob),
              "0200000000000000"
              "0200000000000000"
              "0100000000000000" "1200000000000000");
  });
}

/// What reopening a container over a journal did.
enum class Reopen { kOpened, kRefused };

/// Build the container `make` over whatever journal is on disk: kOpened, or
/// kRefused on HclError(kInvalidArgument). Any other outcome fails.
Reopen reopen(const std::function<void()>& make) {
  try {
    make();
    return Reopen::kOpened;
  } catch (const HclError& e) {
    EXPECT_EQ(e.code(), StatusCode::kInvalidArgument) << e.what();
    return Reopen::kRefused;
  }
}

/// One core's journal under test: its file and how to build the core over
/// it in `ctx`. Each test names its own files (`tag`): ctest runs the cases
/// in parallel processes, and a file truncated under another's mapping
/// would fault it.
struct Core {
  std::string name;
  std::string file;
  std::function<void(Context&)> make;
};

std::vector<Core> cores(const std::string& tag) {
  const std::string map_path = temp_path("hcl_journal_" + tag + "_map");
  const std::string queue_path = temp_path("hcl_journal_" + tag + "_queue");
  const std::string pq_path = temp_path("hcl_journal_" + tag + "_pq");
  return {
      {"map", map_path + ".p0",
       [map_path](Context& ctx) { Map map(ctx, persisted(map_path)); }},
      {"queue", queue_path + ".q0",
       [queue_path](Context& ctx) { queue<int> q(ctx, persisted(queue_path)); }},
      {"priority_queue", pq_path + ".pq0", [pq_path](Context& ctx) {
         priority_queue<int> pq(ctx, persisted(pq_path));
       }}};
}

/// Write one record, op code `op` then a well-formed body, after a valid
/// record of the same body.
void write_record(const std::string& file, std::uint64_t op,
                  const std::function<void(serial::OutArchive&)>& body) {
  mem::NodeMemory node(0, std::int64_t{64} << 20);
  auto log = core::PersistLog::open(node, file, mem::SyncMode::kRelaxed);
  ASSERT_TRUE(log.ok()) << log.status().to_string();
  for (const std::uint64_t code : {std::uint64_t{1}, op}) {
    serial::OutArchive rec;
    rec.u64(code);
    body(rec);
    ASSERT_TRUE((*log)->append(std::span<const std::byte>(rec.buffer())).ok());
  }
}

TEST(JournalReplay, UnknownOpCodeFailsConstruction) {
  const auto map_body = [](serial::OutArchive& rec) {
    serial::save(rec, 5);
    serial::save(rec, std::string("five"));
  };
  const auto queue_body = [](serial::OutArchive& rec) { serial::save(rec, 5); };
  for (const Core& core : cores("bad_op")) {
    const std::uint64_t last = core.name == "map" ? 3 : 2;
    for (const std::uint64_t op : {std::uint64_t{0}, last + 1}) {
      std::filesystem::remove(core.file);
      write_record(core.file, op, core.name == "map" ? map_body : queue_body);
      Context ctx(zero_config(1));
      EXPECT_EQ(reopen([&] { core.make(ctx); }), Reopen::kRefused)
          << core.name << " op " << op;
      std::filesystem::remove(core.file);
    }
  }
}

/// The journal bytes `ops` leave on disk, up to the end of the last record.
std::vector<std::byte> real_journal(const Core& core,
                                    const std::function<void(Context&)>& ops) {
  std::filesystem::remove(core.file);
  {
    Context ctx(zero_config(1));
    ops(ctx);
  }
  std::ifstream in(core.file, std::ios::binary);
  std::vector<char> raw((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  std::vector<std::byte> bytes(raw.size());
  std::memcpy(bytes.data(), raw.data(), raw.size());
  std::size_t end = 0;
  (void)journal_records(core.file, &end);
  bytes.resize(end);
  return bytes;
}

void write_file(const std::string& file, std::span<const std::byte> bytes) {
  std::filesystem::remove(file);
  std::ofstream out(file, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

std::vector<std::byte> journal_of(const Core& core) {
  return real_journal(core, [&](Context& ctx) {
    const std::string path = core.file.substr(0, core.file.rfind('.'));
    if (core.name == "map") {
      Map map(ctx, persisted(path));
      ctx.run_one(0, [&](Actor&) {
        map_ops(map);
        for (int i = 0; i < 4; ++i) map.insert(i, std::string(i + 1, 'k'));
        map.erase(2);
      });
    } else if (core.name == "queue") {
      queue<int> q(ctx, persisted(path));
      ctx.run_one(0, [&](Actor&) {
        int v = 0;
        for (int i = 0; i < 6; ++i) q.push(i);
        q.pop(&v);
        q.pop(&v);
      });
    } else {
      priority_queue<int> pq(ctx, persisted(path));
      ctx.run_one(0, [&](Actor&) {
        int v = 0;
        for (int i = 6; i > 0; --i) pq.push(i);
        pq.pop(&v);
      });
    }
  });
}

/// The records in `file` are the first ones of `written`, each unchanged.
void expect_replays_a_prefix(const std::string& file,
                             const std::vector<std::string>& written,
                             const std::string& what) {
  const auto replayed = journal_records(file);
  ASSERT_LE(replayed.size(), written.size()) << what;
  for (std::size_t i = 0; i < replayed.size(); ++i) {
    EXPECT_EQ(replayed[i], written[i]) << what << " record " << i;
  }
}

TEST(JournalReplay, EveryPrefixOpensOrIsRefused) {
  for (const Core& core : cores("prefix")) {
    const auto good = journal_of(core);
    ASSERT_GT(good.size(), 40u) << core.name;
    write_file(core.file, good);
    const auto written = journal_records(core.file);
    Context ctx(zero_config(1));
    for (std::size_t n = 0; n <= good.size(); ++n) {
      write_file(core.file, std::span<const std::byte>(good.data(), n));
      // A record cut short fails its checksum, so replay ends at the last
      // whole record and every prefix opens.
      expect_replays_a_prefix(core.file, written, core.name);
      EXPECT_EQ(reopen([&] { core.make(ctx); }), Reopen::kOpened)
          << core.name << " prefix " << n;
    }
    write_file(core.file, good);
    EXPECT_EQ(journal_records(core.file), written) << core.name;
    std::filesystem::remove(core.file);
  }
}

TEST(JournalReplay, SeededBitFlipsOpenOrAreRefused) {
  Rng rng(23);
  for (const Core& core : cores("flips")) {
    const auto good = journal_of(core);
    write_file(core.file, good);
    const auto written = journal_records(core.file);
    Context ctx(zero_config(1));
    for (int round = 0; round < 200; ++round) {
      auto bad = good;
      const auto flips = 1 + rng.next_below(4);
      for (std::uint64_t i = 0; i < flips; ++i) {
        const auto bit = rng.next_below(bad.size() * 8);
        bad[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
      }
      write_file(core.file, bad);
      expect_replays_a_prefix(core.file, written, core.name);
      (void)reopen([&] { core.make(ctx); });
    }
    std::filesystem::remove(core.file);
  }
}

TEST(JournalReplay, TornAppendIsNotReplayed) {
  const std::string path = temp_path("hcl_journal_torn_map");
  const std::string file = path + ".p0";
  std::filesystem::remove(file);
  {
    Context ctx(zero_config(1));
    Map map(ctx, persisted(path));
    ctx.run_one(0, [&](Actor&) { map.insert(7, "seven"); });
  }
  // The record's length word reached the file, its last two bytes did not.
  std::size_t end = 0;
  ASSERT_EQ(journal_records(file, &end).size(), 1u);
  std::filesystem::resize_file(file, end - 2);
  {
    Context ctx(zero_config(1));
    Map map(ctx, persisted(path));
    ctx.run_one(0, [&](Actor&) {
      std::string v;
      EXPECT_FALSE(map.find(7, &v)) << "replayed the torn value " << v;
      map.insert(8, "eight");  // overwrites the torn record
    });
  }
  {
    Context ctx(zero_config(1));
    Map map(ctx, persisted(path));
    ctx.run_one(0, [&](Actor&) {
      std::string v;
      EXPECT_FALSE(map.find(7, &v));
      ASSERT_TRUE(map.find(8, &v));
      EXPECT_EQ(v, "eight");
    });
  }
  std::filesystem::remove(file);
}

}  // namespace
}  // namespace hcl
