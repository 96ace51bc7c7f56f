// incr::UpdateLog: the SDEAINC1 codec round-trips arbitrary value bytes,
// Append is persist-then-accept (a failed write leaves both views on the
// old batch count), and a reopened log replays the exact stream — the
// crash-recovery path.
#include "incr/update_log.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "base/fileio.h"
#include "kg/knowledge_graph.h"

namespace sdea::incr {
namespace {

std::string TestPath(const std::string& name) {
  const char* dir = std::getenv("TEST_TMPDIR");
  return std::string(dir != nullptr ? dir : "/tmp") + "/" + name;
}

UpdateBatch SampleBatch() {
  UpdateBatch b;
  b.kg1.new_entities = {"alice", ""};
  b.kg1.relational = {{"alice", "knows", "bob"}, {"bob", "knows", "alice"}};
  b.kg1.attributes = {{"alice", "bio", "line1\nline2\ttabbed"},
                      {"bob", "raw", std::string("nul\0byte", 8)}};
  b.kg2.new_entities = {"alicia"};
  b.kg2.relational = {{"alicia", "conoce", "roberto"}};
  return b;
}

TEST(UpdateLogCodecTest, RoundTripsArbitraryBytes) {
  const std::vector<UpdateBatch> batches = {SampleBatch(), UpdateBatch{},
                                            SampleBatch()};
  const std::string blob = EncodeUpdateLog(batches);
  auto decoded = DecodeUpdateLog(blob);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->size(), 3u);
  EXPECT_EQ((*decoded)[0].kg1.new_entities, batches[0].kg1.new_entities);
  EXPECT_EQ((*decoded)[0].kg1.attributes[1].value,
            batches[0].kg1.attributes[1].value);
  EXPECT_EQ((*decoded)[0].kg2.relational[0].relation, "conoce");
  EXPECT_TRUE((*decoded)[1].empty());
}

TEST(UpdateLogCodecTest, RejectsBadMagicAndTrailingBytes) {
  std::string blob = EncodeUpdateLog({SampleBatch()});
  std::string bad_magic = blob;
  bad_magic[0] = 'X';
  EXPECT_FALSE(DecodeUpdateLog(bad_magic).ok());
  EXPECT_FALSE(DecodeUpdateLog("").ok());
  blob.push_back('\0');
  auto trailing = DecodeUpdateLog(blob);
  ASSERT_FALSE(trailing.ok());
  EXPECT_EQ(trailing.status().code(), StatusCode::kInvalidArgument);
}

TEST(UpdateLogTest, OpenMissingFileIsEmptyAndAppendPersists) {
  const std::string path = TestPath("sdea_incr_log_persist.bin");
  std::remove(path.c_str());

  auto log = UpdateLog::Open(path);
  ASSERT_TRUE(log.ok());
  EXPECT_EQ(log->size(), 0);

  ASSERT_TRUE(log->Append(SampleBatch()).ok());
  ASSERT_TRUE(log->Append(UpdateBatch{}).ok());
  EXPECT_EQ(log->size(), 2);

  // Crash recovery: a fresh Open sees exactly the accepted batches.
  auto reopened = UpdateLog::Open(path);
  ASSERT_TRUE(reopened.ok());
  ASSERT_EQ(reopened->size(), 2);
  EXPECT_EQ(reopened->batches()[0].kg1.relational[0].head, "alice");
  EXPECT_TRUE(reopened->batches()[1].empty());
  std::remove(path.c_str());
}

TEST(UpdateLogTest, FailedAppendLeavesLogUnchanged) {
  // Persist-then-accept: the atomic write into a nonexistent directory
  // fails, so the in-memory batch list must not grow either.
  auto log = UpdateLog::Open(TestPath("no_such_dir_xyz/log.bin"));
  ASSERT_TRUE(log.ok());
  const Status s = log->Append(SampleBatch());
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(log->size(), 0);
}

TEST(UpdateLogTest, ReplayAppliesFromCursorAndInterns) {
  UpdateBatch first;
  first.kg1.relational = {{"a", "r", "b"}};
  first.kg2.relational = {{"x", "s", "y"}};
  UpdateBatch second;
  second.kg1.new_entities = {"lonely"};
  second.kg1.relational = {{"b", "r", "c"}};
  second.kg1.attributes = {{"a", "label", "v1"}, {"a", "label", "v2"}};

  const std::string path = TestPath("sdea_incr_log_replay.bin");
  std::remove(path.c_str());
  auto log = UpdateLog::Open(path);
  ASSERT_TRUE(log.ok());
  ASSERT_TRUE(log->Append(first).ok());
  ASSERT_TRUE(log->Append(second).ok());

  // kg1 already saw batch 0 (the increment was processed before a crash);
  // replay resumes from the cursor, interning duplicate names to the
  // existing ids.
  kg::KnowledgeGraph kg1;
  kg::KnowledgeGraph kg2;
  ApplyUpdate(first.kg1, &kg1);
  ApplyUpdate(first.kg2, &kg2);
  ASSERT_TRUE(log->Replay(1, &kg1, &kg2).ok());

  EXPECT_EQ(kg1.num_entities(), 4);  // a b c lonely
  EXPECT_EQ(kg1.num_relations(), 1);
  EXPECT_EQ(kg1.Snapshot().num_relational_triples(), 2);
  EXPECT_EQ(kg1.Snapshot().num_attribute_triples(), 2);
  EXPECT_EQ(kg2.num_entities(), 2);

  EXPECT_FALSE(log->Replay(-1, &kg1, &kg2).ok());
  EXPECT_FALSE(log->Replay(3, &kg1, &kg2).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sdea::incr
