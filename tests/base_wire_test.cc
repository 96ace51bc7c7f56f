// base/wire: the one codec behind every binary format. Each primitive
// round-trips, fails with InvalidArgument on truncation at every offset
// without reading past the end (the blobs live in exactly-sized heap
// buffers, so ASan sees any over-read), and the budget rules hold: counts
// in O(1), shapes without overflow, trailing bytes rejected.
#include "base/wire.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

namespace sdea::wire {
namespace {

/// One of every primitive, in a fixed order.
std::string SampleBlob() {
  std::string out;
  Writer w(&out);
  w.Bytes("SDEASTOR1");
  w.U8(0xa5);
  w.U32(0xdeadbeefu);
  w.U64(0xdeadbeefcafef00dULL);
  w.F64(-0.0625);
  w.U64(static_cast<uint64_t>(std::numeric_limits<int64_t>::max()));
  const uint32_t column[3] = {7, 0, 0xffffffffu};
  w.U32s(column, 3);
  w.Str32("kg-name");
  w.Str64(std::string("pay\0load", 8));
  w.U64(2);  // Count of two 4-byte entries.
  w.U32(1);
  w.U32(2);
  w.U64(2);  // Shape: rank 2, [2, 3] floats.
  w.U64(2);
  w.U64(3);
  for (int i = 0; i < 6; ++i) {
    const float f = 0.5f * static_cast<float>(i);
    w.Bytes(&f, sizeof(f));
  }
  return out;
}

/// Reads SampleBlob() back, checking every value; stops at the first
/// failed read and returns its status.
Status ReadSample(Reader* r) {
  SDEA_RETURN_IF_ERROR(r->Magic("SDEASTOR1"));
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  double f64 = 0.0;
  int64_t i64 = 0;
  SDEA_RETURN_IF_ERROR(r->U8(&u8));
  EXPECT_EQ(u8, 0xa5);
  SDEA_RETURN_IF_ERROR(r->U32(&u32));
  EXPECT_EQ(u32, 0xdeadbeefu);
  SDEA_RETURN_IF_ERROR(r->U64(&u64));
  EXPECT_EQ(u64, 0xdeadbeefcafef00dULL);
  SDEA_RETURN_IF_ERROR(r->F64(&f64));
  EXPECT_EQ(f64, -0.0625);
  SDEA_RETURN_IF_ERROR(r->NonNegI64(&i64));
  EXPECT_EQ(i64, std::numeric_limits<int64_t>::max());
  uint32_t column[3] = {0, 0, 0};
  SDEA_RETURN_IF_ERROR(r->U32s(3, column));
  EXPECT_EQ(column[0], 7u);
  EXPECT_EQ(column[2], 0xffffffffu);
  std::string s;
  SDEA_RETURN_IF_ERROR(r->Str32(&s));
  EXPECT_EQ(s, "kg-name");
  std::string_view view;
  SDEA_RETURN_IF_ERROR(r->Str64(&view));
  EXPECT_EQ(view, std::string_view("pay\0load", 8));
  uint64_t n = 0;
  SDEA_RETURN_IF_ERROR(r->Count(4, &n));
  EXPECT_EQ(n, 2u);
  SDEA_RETURN_IF_ERROR(r->U32(&u32));
  SDEA_RETURN_IF_ERROR(r->U32(&u32));
  std::vector<int64_t> dims;
  uint64_t elements = 0;
  SDEA_RETURN_IF_ERROR(r->Shape(sizeof(float), &dims, &elements));
  EXPECT_EQ(dims, (std::vector<int64_t>{2, 3}));
  EXPECT_EQ(elements, 6u);
  std::string_view payload;
  SDEA_RETURN_IF_ERROR(r->Bytes(elements * sizeof(float), &payload));
  float last = 0.0f;
  std::memcpy(&last, payload.data() + 5 * sizeof(float), sizeof(float));
  EXPECT_EQ(last, 2.5f);
  return r->Finish();
}

TEST(WireTest, WireHelpersRoundTrip) {
  const std::string blob = SampleBlob();
  Reader r(blob, "sample");
  const Status s = ReadSample(&r);
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(WireTest, TruncationAtEveryOffsetFailsInBounds) {
  const std::string blob = SampleBlob();
  for (size_t len = 0; len < blob.size(); ++len) {
    // Exactly `len` heap bytes: a read past the end is an ASan error.
    std::vector<char> prefix(blob.begin(), blob.begin() + len);
    Reader r(std::string_view(prefix.data(), len), "sample");
    const Status s = ReadSample(&r);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << "prefix " << len;
  }
}

TEST(WireTest, CountRejectsAllOnesInConstantTime) {
  std::string blob;
  Writer w(&blob);
  w.U64(~uint64_t{0});
  w.U64(0);
  uint64_t n = 0;
  Reader r64(blob, "count");
  EXPECT_EQ(r64.Count(1, &n).code(), StatusCode::kInvalidArgument);

  std::string blob32;
  Writer w32(&blob32);
  w32.U32(0xffffffffu);
  uint32_t n32 = 0;
  Reader r32(blob32, "count");
  EXPECT_EQ(r32.Count(1, &n32).code(), StatusCode::kInvalidArgument);

  // The budget is exact: n == remaining / min passes, one more fails.
  for (const uint64_t count : {uint64_t{3}, uint64_t{4}}) {
    std::string b;
    Writer bw(&b);
    bw.U64(count);
    bw.Bytes(std::string(12 + 3, '\0'));  // 3 entries of 4 bytes, + 3.
    Reader br(b, "count");
    EXPECT_EQ(br.Count(4, &n).ok(), count == 3) << count;
  }
}

TEST(WireTest, EvilTensorDimRejectsNotAborts) {
  // A shape whose single dim is 2^63: the u64 -> int64 cast used to
  // produce a negative dimension and trip the Tensor constructor's check.
  std::vector<int64_t> dims;
  uint64_t elements = 0;
  std::string rec;
  Writer w(&rec);
  w.U64(1);
  w.U64(uint64_t{1} << 63);
  Reader r(rec, "tensor");
  EXPECT_EQ(r.Shape(4, &dims, &elements).code(),
            StatusCode::kInvalidArgument);

  // Dims whose product wraps: 2^32 x 2^32 is 0 mod 2^64.
  std::string rec2;
  Writer w2(&rec2);
  w2.U64(2);
  w2.U64(uint64_t{1} << 32);
  w2.U64(uint64_t{1} << 32);
  Reader r2(rec2, "tensor");
  EXPECT_EQ(r2.Shape(4, &dims, &elements).code(),
            StatusCode::kInvalidArgument);

  // A rank past kMaxRank, and a shape of more floats than the bytes left
  // after the rank (dim bytes included) could hold.
  std::string rec3;
  Writer w3(&rec3);
  w3.U64(Reader::kMaxRank + 1);
  for (uint64_t d = 0; d <= Reader::kMaxRank; ++d) w3.U64(1);
  Reader r3(rec3, "tensor");
  EXPECT_EQ(r3.Shape(4, &dims, &elements).code(),
            StatusCode::kInvalidArgument);
  std::string rec4;
  Writer w4(&rec4);
  w4.U64(1);
  w4.U64(5);
  w4.Bytes(std::string(8, '\0'));
  Reader r4(rec4, "tensor");
  EXPECT_EQ(r4.Shape(4, &dims, &elements).code(),
            StatusCode::kInvalidArgument);

  // A zero dim is a valid empty tensor, whatever the other dims say.
  std::string rec5;
  Writer w5(&rec5);
  w5.U64(2);
  w5.U64(0);
  w5.U64(uint64_t{1} << 40);
  Reader r5(rec5, "tensor");
  ASSERT_TRUE(r5.Shape(4, &dims, &elements).ok());
  EXPECT_EQ(elements, 0u);
  EXPECT_TRUE(r5.Finish().ok());
}

TEST(WireTest, NonNegI64RejectsSignBoundary) {
  for (const uint64_t v : {uint64_t{1} << 63, ~uint64_t{0}}) {
    std::string blob;
    Writer(&blob).U64(v);
    Reader r(blob, "counter");
    int64_t out = 7;
    EXPECT_EQ(r.NonNegI64(&out).code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(out, 7);
  }
}

TEST(WireTest, MagicMismatchAndShortBlobRejected) {
  Reader wrong("SDEASTOR2", "manifest");
  EXPECT_EQ(wrong.Magic("SDEASTOR1").code(), StatusCode::kInvalidArgument);
  Reader short_blob("SDEA", "manifest");
  EXPECT_EQ(short_blob.Magic("SDEASTOR1").code(),
            StatusCode::kInvalidArgument);
}

TEST(WireTest, FinishRejectsLeftoverBytes) {
  std::string blob;
  Writer w(&blob);
  w.U64(5);
  w.U8(0);
  Reader r(blob, "blob");
  uint64_t v = 0;
  ASSERT_TRUE(r.U64(&v).ok());
  EXPECT_EQ(r.Finish().code(), StatusCode::kInvalidArgument);
  uint8_t b = 0;
  ASSERT_TRUE(r.U8(&b).ok());
  EXPECT_TRUE(r.Finish().ok());
}

TEST(WireTest, LoadU64ReadsUnalignedLittleEndian) {
  std::string blob = "x";
  Writer(&blob).U64(0x0102030405060708ULL);
  EXPECT_EQ(LoadU64(reinterpret_cast<const uint8_t*>(blob.data()) + 1),
            0x0102030405060708ULL);
  EXPECT_EQ(static_cast<uint8_t>(blob[1]), 0x08);
}

}  // namespace
}  // namespace sdea::wire
