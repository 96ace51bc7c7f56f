// Columnar KG store microbenchmarks: full-scan and neighbors-scan against
// a row-store layout (the pre-columnar KnowledgeGraph's row vectors and
// adjacency lists, rebuilt here as a bench-local fixture), snapshot pin
// cost, reader tail latency while a writer commits concurrently, and
// memory per triple for both representations. Emits BENCH_kg.json; CI
// archives it next to the other BENCH_*.json artifacts.
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_meta.h"
#include "kg/columnar.h"
#include "kg/knowledge_graph.h"
#include "obs/histogram.h"

namespace {

using namespace sdea;

constexpr int64_t kEntities = 20000;
constexpr int64_t kRelationCount = 32;
constexpr int64_t kAttributeCount = 8;

// Formula-generated triples (same idiom as the MVCC torture test): every
// row is a pure function of its index, so graphs of any size are cheap to
// build and identical across runs.
kg::EntityId HeadAt(int64_t row) {
  return static_cast<kg::EntityId>((row * 7 + 3) % kEntities);
}
kg::RelationId RelAt(int64_t row) {
  return static_cast<kg::RelationId>((row * 5 + 1) % kRelationCount);
}
kg::EntityId TailAt(int64_t row) {
  return static_cast<kg::EntityId>((row * 11 + 5) % kEntities);
}
kg::AttributeId AttrAt(int64_t row) {
  return static_cast<kg::AttributeId>(row % kAttributeCount);
}
std::string ValueAt(int64_t row) {
  // 23 distinct values: sealed attribute chunks dictionary-encode, which
  // is the representative shape for real attribute columns.
  return "value_" + std::to_string(row % 23);
}

kg::KnowledgeGraph BuildGraph(int64_t rel_rows, int64_t attr_rows) {
  kg::KnowledgeGraph g;
  g.BeginBulkLoad();
  for (int64_t i = 0; i < kEntities; ++i) {
    g.AddEntity("entity_" + std::to_string(i));
  }
  for (int64_t i = 0; i < kRelationCount; ++i) {
    g.AddRelation("rel_" + std::to_string(i));
  }
  for (int64_t i = 0; i < kAttributeCount; ++i) {
    g.AddAttribute("attr_" + std::to_string(i));
  }
  for (int64_t row = 0; row < rel_rows; ++row) {
    g.AddRelationalTriple(HeadAt(row), RelAt(row), TailAt(row));
  }
  for (int64_t row = 0; row < attr_rows; ++row) {
    g.AddAttributeTriple(HeadAt(row), AttrAt(row), ValueAt(row));
  }
  g.EndBulkLoad();
  return g;
}

// The row-store layout the columnar rows are compared against: one
// contiguous vector per triple kind, copied once from a snapshot scan in
// setup.
struct AttrRow {
  kg::EntityId entity;
  kg::AttributeId attribute;
  std::string value;
};

struct RowStore {
  std::vector<kg::RelationalTriple> rels;
  std::vector<AttrRow> attrs;

  explicit RowStore(const kg::KgSnapshot& snap) {
    rels.reserve(static_cast<size_t>(snap.num_relational_triples()));
    snap.ForEachRelational(
        [&](int64_t, kg::EntityId h, kg::RelationId r, kg::EntityId t) {
          rels.push_back(kg::RelationalTriple{h, r, t});
        });
    attrs.reserve(static_cast<size_t>(snap.num_attribute_triples()));
    snap.ForEachAttribute([&](int64_t, kg::EntityId e, kg::AttributeId a,
                              const std::string& value) {
      attrs.push_back(AttrRow{e, a, value});
    });
  }

  // Heap footprint: the row vectors plus the per-value string heap.
  int64_t HeapBytes() const {
    int64_t bytes = static_cast<int64_t>(
        rels.capacity() * sizeof(kg::RelationalTriple) +
        attrs.capacity() * sizeof(AttrRow));
    for (const AttrRow& t : attrs) {
      if (t.value.size() > sizeof(std::string)) {
        bytes += static_cast<int64_t>(t.value.capacity());
      }
    }
    return bytes;
  }
};

// Per-entity edge lists in insertion order (the head's outgoing edge
// before the tail's incoming one), filled once from a snapshot scan.
std::vector<std::vector<kg::NeighborEdge>> BuildAdjacency(
    const kg::KgSnapshot& snap) {
  std::vector<std::vector<kg::NeighborEdge>> adjacency(
      static_cast<size_t>(snap.num_entities()));
  snap.ForEachRelational(
      [&](int64_t, kg::EntityId h, kg::RelationId r, kg::EntityId t) {
        adjacency[static_cast<size_t>(h)].push_back(
            kg::NeighborEdge{r, t, /*outgoing=*/true});
        adjacency[static_cast<size_t>(t)].push_back(
            kg::NeighborEdge{r, h, /*outgoing=*/false});
      });
  return adjacency;
}

void BM_FullScanRows(benchmark::State& state) {
  const int64_t n = state.range(0);
  const RowStore rows(BuildGraph(n, n).Snapshot());
  for (auto _ : state) {
    int64_t acc = 0;
    for (const kg::RelationalTriple& t : rows.rels) {
      acc += t.head + t.relation + t.tail;
    }
    for (const AttrRow& t : rows.attrs) {
      acc += t.entity + static_cast<int64_t>(t.value.size());
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * 2 * n);
  state.counters["rows_bytes_per_triple"] = benchmark::Counter(
      static_cast<double>(rows.HeapBytes()) / static_cast<double>(2 * n));
}
BENCHMARK(BM_FullScanRows)->Arg(100000)->Arg(500000);

void BM_FullScanColumnar(benchmark::State& state) {
  const int64_t n = state.range(0);
  const kg::KnowledgeGraph g = BuildGraph(n, n);
  const kg::KgSnapshot snap = g.Snapshot();
  for (auto _ : state) {
    int64_t acc = 0;
    snap.ForEachRelational(
        [&](int64_t, kg::EntityId h, kg::RelationId r, kg::EntityId t) {
          acc += h + r + t;
        });
    snap.ForEachAttribute([&](int64_t, kg::EntityId e, kg::AttributeId,
                              const std::string& value) {
      acc += e + static_cast<int64_t>(value.size());
    });
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * 2 * n);
  state.counters["columnar_bytes_per_triple"] = benchmark::Counter(
      static_cast<double>(g.columnar().ApproxHeapBytes()) /
      static_cast<double>(2 * n));
}
BENCHMARK(BM_FullScanColumnar)->Arg(100000)->Arg(500000);

void BM_NeighborsRows(benchmark::State& state) {
  const int64_t n = state.range(0);
  const std::vector<std::vector<kg::NeighborEdge>> adjacency =
      BuildAdjacency(BuildGraph(n, 0).Snapshot());
  for (auto _ : state) {
    int64_t acc = 0;
    for (const std::vector<kg::NeighborEdge>& edges : adjacency) {
      for (const kg::NeighborEdge& edge : edges) {
        acc += edge.neighbor;
      }
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * kEntities);
}
BENCHMARK(BM_NeighborsRows)->Arg(100000)->Unit(benchmark::kMillisecond);

void BM_NeighborsColumnar(benchmark::State& state) {
  const int64_t n = state.range(0);
  const kg::KnowledgeGraph g = BuildGraph(n, 0);
  const kg::KgSnapshot snap = g.Snapshot();
  for (auto _ : state) {
    int64_t acc = 0;
    for (kg::EntityId e = 0; e < kEntities; ++e) {
      for (const kg::NeighborEdge& edge : snap.NeighborsOf(e)) {
        acc += edge.neighbor;
      }
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * kEntities);
}
BENCHMARK(BM_NeighborsColumnar)->Arg(100000)->Unit(benchmark::kMillisecond);

void BM_SnapshotPin(benchmark::State& state) {
  const kg::KnowledgeGraph g = BuildGraph(100000, 100000);
  for (auto _ : state) {
    const kg::KgSnapshot snap = g.Snapshot();
    benchmark::DoNotOptimize(snap.epoch());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SnapshotPin);

void BM_ReaderUnderWriter(benchmark::State& state) {
  // Tail latency of pin + neighbors lookup while a single writer keeps
  // appending and committing. p50/p99 land in the JSON as counters.
  const int64_t n = state.range(0);
  kg::KnowledgeGraph g = BuildGraph(n, 0);
  std::atomic<bool> stop{false};
  std::thread writer([&g, &stop, n] {
    // Batched ingest cadence: 64 rows per published commit, like a loader
    // streaming triples in. A zero-think-time commit-per-Add loop would
    // measure mutex starvation of this synthetic writer, not reader cost.
    int64_t row = n;
    while (!stop.load(std::memory_order_acquire)) {
      g.BeginBulkLoad();
      for (int i = 0; i < 64; ++i, ++row) {
        g.AddRelationalTriple(HeadAt(row), RelAt(row), TailAt(row));
      }
      g.EndBulkLoad();
      std::this_thread::yield();
    }
  });

  obs::Histogram latency_ns = obs::Histogram::Exponential(64.0, 2.0, 24);
  kg::EntityId e = 0;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    const kg::KgSnapshot snap = g.Snapshot();
    const auto edges = snap.NeighborsOf(e);
    const auto end = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(edges.size());
    latency_ns.Record(static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
            .count()));
    e = (e + 1) % kEntities;
  }
  stop.store(true, std::memory_order_release);
  writer.join();

  state.SetItemsProcessed(state.iterations());
  state.counters["reader_p50_ns"] =
      benchmark::Counter(latency_ns.Quantile(0.5));
  state.counters["reader_p99_ns"] =
      benchmark::Counter(latency_ns.Quantile(0.99));
  state.counters["reader_max_ns"] = benchmark::Counter(latency_ns.max());
}
BENCHMARK(BM_ReaderUnderWriter)->Arg(100000)->Unit(benchmark::kMicrosecond);

}  // namespace

// Like BENCHMARK_MAIN(), but defaults to machine-readable JSON output
// (BENCH_kg.json) with the kernel configuration stamped into the context
// block, matching the other BENCH_*.json artifacts CI archives.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--benchmark_out", 0) == 0) {
      has_out = true;
    }
  }
  std::string out_flag = "--benchmark_out=BENCH_kg.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  sdea::bench::AddKernelContext();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
