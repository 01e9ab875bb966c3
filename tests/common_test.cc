#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "common/bitset.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"

namespace mvrob {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = Status::InvalidArgument("bad input");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "bad input");
  EXPECT_EQ(status.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, FactoryFunctionsSetCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
}

TEST(StatusCodeTest, ToStringCoversAllCodes) {
  EXPECT_STREQ(StatusCodeToString(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kInvalidArgument),
               "InvalidArgument");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kNotFound), "NotFound");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kResourceExhausted),
               "ResourceExhausted");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kFailedPrecondition),
               "FailedPrecondition");
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> result = 42;
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 42);
  EXPECT_EQ(*result, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> result = Status::NotFound("missing");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(StatusOrTest, MoveOutValue) {
  StatusOr<std::string> result = std::string("hello");
  std::string moved = std::move(result).value();
  EXPECT_EQ(moved, "hello");
}

TEST(StringUtilTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  a b  "), "a b");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace(" \t\n "), "");
  EXPECT_EQ(StripWhitespace("x"), "x");
}

TEST(StringUtilTest, SplitAndTrimDropsEmptyPieces) {
  std::vector<std::string> pieces = SplitAndTrim("a  b   c ", ' ');
  EXPECT_EQ(pieces, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(StringUtilTest, SplitAndTrimOnNewlines) {
  std::vector<std::string> pieces = SplitAndTrim("x\n\n y \n", '\n');
  EXPECT_EQ(pieces, (std::vector<std::string>{"x", "y"}));
}

TEST(StringUtilTest, SplitAndTrimEmptyInput) {
  EXPECT_TRUE(SplitAndTrim("", ',').empty());
  EXPECT_TRUE(SplitAndTrim("  ", ',').empty());
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join(std::vector<std::string>{"a", "b"}, ", "), "a, b");
  EXPECT_EQ(Join(std::vector<int>{1, 2, 3}, "-"), "1-2-3");
  EXPECT_EQ(Join(std::vector<int>{}, "-"), "");
}

TEST(StringUtilTest, StrCat) {
  EXPECT_EQ(StrCat("x=", 3, ", y=", 2.5), "x=3, y=2.5");
  EXPECT_EQ(StrCat(), "");
}

TEST(ParseIntTest, AcceptsPlainIntegers) {
  EXPECT_EQ(ParseInt64("0").value(), 0);
  EXPECT_EQ(ParseInt64("42").value(), 42);
  EXPECT_EQ(ParseInt64("-7").value(), -7);
  EXPECT_EQ(ParseUint64("18446744073709551615").value(),
            std::numeric_limits<uint64_t>::max());
  EXPECT_EQ(ParseInt("123").value(), 123);
}

TEST(ParseIntTest, RejectsEmptyAndJunk) {
  // A leading '+' is rejected too: parsing is std::from_chars-strict.
  for (const char* bad : {"", "abc", "12x", "x12", " 5", "5 ", "1.5", "--3",
                          "-", "+", "+5", "0x10", "1e3"}) {
    EXPECT_FALSE(ParseInt64(bad).ok()) << "'" << bad << "'";
    EXPECT_FALSE(ParseUint64(bad).ok()) << "'" << bad << "'";
    EXPECT_FALSE(ParseInt(bad).ok()) << "'" << bad << "'";
  }
}

TEST(ParseIntTest, RejectsNegativeForUnsigned) {
  EXPECT_FALSE(ParseUint64("-1").ok());
  EXPECT_FALSE(ParseUint64("-0").ok());
}

TEST(ParseIntTest, EnforcesRange) {
  EXPECT_EQ(ParseInt64("5", 1, 10).value(), 5);
  EXPECT_FALSE(ParseInt64("0", 1, 10).ok());
  EXPECT_FALSE(ParseInt64("11", 1, 10).ok());
  EXPECT_FALSE(ParseUint64("11", 10).ok());
  EXPECT_FALSE(ParseInt("0", 1).ok());
  // Values past the representable range are rejected, not wrapped.
  EXPECT_FALSE(ParseInt64("9223372036854775808").ok());
  EXPECT_FALSE(ParseUint64("18446744073709551616").ok());
  EXPECT_FALSE(ParseInt("2147483648").ok());
}

TEST(ParseIntTest, ErrorMessagesNameTheInput) {
  Status status = ParseInt64("12x").status();
  EXPECT_NE(status.message().find("12x"), std::string::npos);
  status = ParseInt64("99", 1, 10).status();
  EXPECT_NE(status.message().find("99"), std::string::npos);
}

TEST(RngTest, DeterministicForFixedSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Uniform(0, 1000), b.Uniform(0, 1000));
  }
}

TEST(RngTest, UniformStaysInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    uint64_t value = rng.Uniform(5, 9);
    EXPECT_GE(value, 5u);
    EXPECT_LE(value, 9u);
  }
}

TEST(RngTest, IndexStaysInRange) {
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Index(17), 17u);
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(JsonWriterTest, ObjectsArraysAndScalars) {
  JsonWriter json;
  json.BeginObject();
  json.Key("name");
  json.String("T1");
  json.Key("robust");
  json.Bool(false);
  json.Key("count");
  json.Int(-3);
  json.Key("big");
  json.Uint(7);
  json.Key("items");
  json.BeginArray();
  json.String("a");
  json.Int(1);
  json.Null();
  json.EndArray();
  json.Key("nested");
  json.BeginObject();
  json.EndObject();
  json.EndObject();
  EXPECT_EQ(json.str(),
            R"({"name":"T1","robust":false,"count":-3,"big":7,)"
            R"("items":["a",1,null],"nested":{}})");
}

TEST(JsonWriterTest, EscapesSpecialCharacters) {
  JsonWriter json;
  json.String("a\"b\\c\nd\te\x01");
  EXPECT_EQ(json.str(), "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
}

TEST(JsonWriterTest, TopLevelArray) {
  JsonWriter json;
  json.BeginArray();
  json.Int(1);
  json.Int(2);
  json.EndArray();
  EXPECT_EQ(json.str(), "[1,2]");
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(DenseBitsetTest, SetTestResetAcrossWordBoundaries) {
  DenseBitset bits(130);
  EXPECT_EQ(bits.size(), 130u);
  EXPECT_TRUE(bits.None());
  for (size_t i : {0u, 1u, 63u, 64u, 127u, 128u, 129u}) {
    bits.Set(i);
    EXPECT_TRUE(bits.Test(i));
  }
  EXPECT_EQ(bits.Count(), 7u);
  bits.Reset(64);
  EXPECT_FALSE(bits.Test(64));
  EXPECT_EQ(bits.Count(), 6u);
  bits.Assign(64, true);
  EXPECT_TRUE(bits.Test(64));
}

TEST(DenseBitsetTest, SetAllKeepsTailClear) {
  DenseBitset bits(70);
  bits.SetAll();
  EXPECT_EQ(bits.Count(), 70u);  // Would be 128 if tail bits leaked.
  bits.ResetAll();
  EXPECT_TRUE(bits.None());
  DenseBitset filled(70, true);
  EXPECT_EQ(filled.Count(), 70u);
}

TEST(DenseBitsetTest, WordKernels) {
  DenseBitset a(100);
  DenseBitset b(100);
  a.Set(3);
  a.Set(70);
  a.Set(99);
  b.Set(70);
  b.Set(80);

  DenseBitset and_result(100);
  and_result.CopyFrom(a);
  and_result.AndWith(b);
  EXPECT_EQ(and_result.Count(), 1u);
  EXPECT_TRUE(and_result.Test(70));

  DenseBitset or_result(100);
  or_result.CopyFrom(a);
  or_result.OrWith(b);
  EXPECT_EQ(or_result.Count(), 4u);

  DenseBitset andnot_result(100);
  andnot_result.CopyFrom(a);
  andnot_result.AndNotWith(b);
  EXPECT_EQ(andnot_result.Count(), 2u);
  EXPECT_FALSE(andnot_result.Test(70));

  EXPECT_TRUE(a.Intersects(b));
  EXPECT_FALSE(andnot_result.Intersects(b));
}

TEST(DenseBitsetTest, FindAndIteration) {
  DenseBitset bits(200);
  EXPECT_EQ(bits.FindFirst(), 200u);
  const std::vector<size_t> expected = {5, 63, 64, 150, 199};
  for (size_t i : expected) bits.Set(i);
  EXPECT_EQ(bits.FindFirst(), 5u);
  EXPECT_EQ(bits.FindNext(6), 63u);
  EXPECT_EQ(bits.FindNext(151), 199u);

  std::vector<size_t> via_find;
  for (size_t i = bits.FindFirst(); i < bits.size(); i = bits.FindNext(i + 1)) {
    via_find.push_back(i);
  }
  EXPECT_EQ(via_find, expected);

  std::vector<size_t> via_foreach;
  bits.ForEachSetBit([&](size_t i) { via_foreach.push_back(i); });
  EXPECT_EQ(via_foreach, expected);
}

TEST(BitMatrixTest, RowsAreIndependentSpans) {
  BitMatrix matrix(3, 70);
  matrix.Set(0, 69);
  matrix.Set(1, 0);
  matrix.Set(2, 35);
  EXPECT_TRUE(matrix.Test(0, 69));
  EXPECT_FALSE(matrix.Test(1, 69));
  EXPECT_EQ(matrix.row(0).Count(), 1u);
  EXPECT_EQ(matrix.row(1).Count(), 1u);
  matrix.row(1).OrWith(matrix.row(2));
  EXPECT_TRUE(matrix.Test(1, 35));
  EXPECT_FALSE(matrix.Test(2, 0));
  matrix.Reset(0, 69);
  EXPECT_TRUE(matrix.row(0).None());
}

}  // namespace
}  // namespace mvrob
