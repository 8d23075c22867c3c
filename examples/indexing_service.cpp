// Indexing service: a distributed inverted index with persistence — the
// "indexing services" use case from the paper's introduction (§I), plus the
// DataBox persistency feature (§III.C.6).
//
// Every rank ingests documents; the index maps each term to its posting
// list. Updates go through a registered mutator (one invocation per
// posting, no client-side read-modify-write), and every partition journals
// through a real memory-mapped file, so the index survives a restart. Exits
// non-zero unless the recovered index equals the one built, term for term
// and posting for posting.
//
//   ./indexing_service [docs_per_rank]
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/hcl.h"

namespace {

/// A posting list: document ids that contain the term.
using Postings = std::vector<std::uint64_t>;
using Index = hcl::unordered_map<std::string, Postings>;

/// Every term of `index` and its posting list, ordered by term.
std::map<std::string, Postings> contents(Index& index) {
  std::map<std::string, Postings> out;
  index.for_each([&](const std::string& term, const Postings& postings) {
    out[term] = postings;
  });
  return out;
}

std::vector<std::string> tokenize(const std::string& text) {
  std::vector<std::string> words;
  std::istringstream stream(text);
  std::string w;
  while (stream >> w) words.push_back(w);
  return words;
}

/// Tiny deterministic document generator over a fixed vocabulary.
std::string make_document(hcl::Rng& rng) {
  static const char* kVocabulary[] = {
      "fabric", "rdma",  "rpc",   "queue", "hashmap", "cluster",
      "node",   "nic",   "core",  "pgas",  "memory",  "latency",
      "verbs",  "kernel", "genome", "sort",
  };
  std::string doc;
  const int words = 6 + static_cast<int>(rng.next_below(10));
  for (int w = 0; w < words; ++w) {
    doc += kVocabulary[rng.next_below(std::size(kVocabulary))];
    doc += ' ';
  }
  return doc;
}

}  // namespace

int main(int argc, char** argv) {
  const int docs_per_rank = argc > 1 ? std::atoi(argv[1]) : 64;
  const std::string store =
      (std::filesystem::temp_directory_path() / "hcl_index").string();
  for (int p = 0; p < 8; ++p) {
    std::filesystem::remove(store + ".p" + std::to_string(p));
  }

  std::map<std::string, Postings> indexed;

  // ---- Phase 1: build the index, then "crash" ---------------------------
  {
    hcl::Context ctx({.num_nodes = 4, .procs_per_node = 4});
    hcl::core::ContainerOptions options;
    options.persist_path = store;  // journal through mmap'd files
    Index index(ctx, options);

    // One invocation appends a document id to a term's posting list —
    // the procedural-paradigm primitive (registered mutator).
    const auto append = index.register_mutator<std::uint64_t>(
        [](Postings& postings, const std::uint64_t& doc) {
          postings.push_back(doc);
        });

    ctx.run([&](hcl::sim::Actor& self) {
      hcl::Rng rng(static_cast<std::uint64_t>(self.rank()) + 99);
      for (int d = 0; d < docs_per_rank; ++d) {
        const auto doc_id =
            static_cast<std::uint64_t>(self.rank()) * docs_per_rank + d;
        for (const auto& term : tokenize(make_document(rng))) {
          index.apply(term, append, doc_id, Postings{});
        }
      }
    });
    indexed = contents(index);
    std::printf("indexed %d docs/rank across 16 ranks -> %zu terms, %.3f ms simulated\n",
                docs_per_rank, indexed.size(), ctx.elapsed_seconds() * 1e3);
  }  // index and context destroyed here — simulated crash

  // ---- Phase 2: recover from the journals and query ----------------------
  bool recovered_equal = false;
  {
    hcl::Context ctx({.num_nodes = 4, .procs_per_node = 4});
    hcl::core::ContainerOptions options;
    options.persist_path = store;
    Index index(ctx, options);
    const auto recovered = contents(index);
    recovered_equal = recovered == indexed;
    std::printf("recovered %zu terms from the memory-mapped journals (expected %zu)\n",
                recovered.size(), indexed.size());

    ctx.run_one(0, [&](hcl::sim::Actor&) {
      for (const char* term : {"rdma", "genome", "latency"}) {
        Postings postings;
        if (index.find(term, &postings)) {
          std::printf("  \"%s\" -> %zu postings (first doc %" PRIu64 ")\n", term,
                      postings.size(), postings.empty() ? 0 : postings.front());
        }
      }
    });
  }

  for (int p = 0; p < 8; ++p) {
    std::filesystem::remove(store + ".p" + std::to_string(p));
  }
  if (!recovered_equal) {
    std::printf("FAILED: the recovered terms or posting lists differ\n");
    return 1;
  }
  std::printf("ok\n");
  return 0;
}
