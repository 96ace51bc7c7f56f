// Fault-injection tests for the serving path: a snapshot reload that fails
// (corrupt artifact on disk, or an injected filesystem read error) must
// keep the old snapshot pinned and serving, and a Submit racing batcher
// shutdown must resolve with FailedPrecondition instead of aborting.
#include <gtest/gtest.h>

#include <cstdlib>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "base/fault_injection.h"
#include "base/fileio.h"
#include "core/embedding_store.h"
#include "serve/batcher.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "testing/faults.h"

namespace sdea::serve {
namespace {

std::string TempPath(const std::string& name) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr ? dir : "/tmp") + "/" + name;
}

core::EmbeddingStore MakeStore() {
  Tensor emb({3, 2}, {1, 0, 0, 1, 1, 1});
  auto store = core::EmbeddingStore::Create({"alpha", "beta", "gamma"},
                                            std::move(emb));
  SDEA_CHECK(store.ok());
  return std::move(store).value();
}

TEST(ServeFaultsTest, CorruptArtifactKeepsOldSnapshot) {
  const std::string path = TempPath("sdea_serve_corrupt.emb");
  ASSERT_TRUE(MakeStore().Save(path).ok());

  SnapshotManager mgr;
  auto v1 = mgr.LoadAndSwap(path);
  ASSERT_TRUE(v1.ok()) << v1.status().ToString();
  const auto pinned = mgr.Current();
  ASSERT_NE(pinned, nullptr);

  // Corrupt the artifact in place; the reload fails, the published
  // snapshot stays the exact object v1 pinned.
  ASSERT_TRUE(WriteStringToFile(path, "not an embedding store").ok());
  auto v2 = mgr.LoadAndSwap(path);
  ASSERT_FALSE(v2.ok());
  EXPECT_EQ(v2.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(mgr.Current().get(), pinned.get());
  EXPECT_EQ(mgr.version(), *v1);
}

TEST(ServeFaultsTest, InjectedReadFaultKeepsOldSnapshot) {
  const std::string path = TempPath("sdea_serve_readfault.emb");
  ASSERT_TRUE(MakeStore().Save(path).ok());

  SnapshotManager mgr;
  ASSERT_TRUE(mgr.LoadAndSwap(path).ok());
  const uint64_t version = mgr.version();
  const auto pinned = mgr.Current();

  sdea::testing::CountdownFaultInjector injector{
      sdea::testing::FaultPlan{.op = FaultInjector::FileOp::kRead,
                               .repeat = true,
                               .path_substring = ".emb"}};
  {
    ScopedFaultInjector scope(&injector);
    auto reload = mgr.LoadAndSwap(path);
    ASSERT_FALSE(reload.ok());
    EXPECT_EQ(reload.status().code(), StatusCode::kIoError);
  }
  EXPECT_EQ(injector.faults_injected(), 1);
  EXPECT_EQ(mgr.Current().get(), pinned.get());
  EXPECT_EQ(mgr.version(), version);
}

TEST(ServeFaultsTest, ServerKeepsAnsweringAfterFailedReload) {
  const std::string path = TempPath("sdea_serve_server.emb");
  ASSERT_TRUE(MakeStore().Save(path).ok());

  AlignmentServer server;
  ASSERT_TRUE(server.LoadSnapshot(path).ok());

  ASSERT_TRUE(WriteStringToFile(path, "garbage").ok());
  EXPECT_FALSE(server.LoadSnapshot(path).ok());

  // Queries still answer from the v1 snapshot.
  auto result = server.AlignEmbedding(Tensor::FromVector({1.0f, 0.1f}), 1);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ((*result)[0].name, "alpha");
}

TEST(ServeFaultsTest, SubmitAfterShutdownRejectsGracefully) {
  RequestBatcher batcher(BatcherOptions{},
                         [](std::vector<ServeRequest>* batch) {
                           for (ServeRequest& r : *batch) {
                             r.promise.set_value(
                                 AlignResult(std::vector<Neighbor>{}));
                           }
                         });
  batcher.Shutdown();
  batcher.Shutdown();  // Idempotent.

  ServeRequest request;
  request.embedding = Tensor::FromVector({1.0f, 0.0f});
  auto future = batcher.Submit(std::move(request));
  const AlignResult result = future.get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ServeFaultsTest, SubmitsRacingShutdownAllResolve) {
  // Many client threads hammer Submit while another thread shuts the
  // batcher down: every returned future must resolve — either with the
  // empty answer or with FailedPrecondition — and nothing may abort.
  RequestBatcher batcher(BatcherOptions{},
                         [](std::vector<ServeRequest>* batch) {
                           for (ServeRequest& r : *batch) {
                             r.promise.set_value(
                                 AlignResult(std::vector<Neighbor>{}));
                           }
                         });
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  std::vector<std::thread> clients;
  std::vector<std::vector<std::future<AlignResult>>> futures(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&batcher, &futures, t] {
      for (int i = 0; i < kPerThread; ++i) {
        ServeRequest request;
        request.embedding = Tensor::FromVector({1.0f, 0.0f});
        futures[t].push_back(batcher.Submit(std::move(request)));
      }
    });
  }
  batcher.Shutdown();
  for (std::thread& c : clients) c.join();

  int accepted = 0, rejected = 0;
  for (auto& per_thread : futures) {
    for (auto& f : per_thread) {
      const AlignResult result = f.get();
      if (result.ok()) {
        ++accepted;
      } else {
        ASSERT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
        ++rejected;
      }
    }
  }
  EXPECT_EQ(accepted + rejected, kThreads * kPerThread);
}

}  // namespace
}  // namespace sdea::serve
