#include <gtest/gtest.h>

#include <climits>

#include "kv/object.hpp"

namespace skv::kv {
namespace {

TEST(ObjectString, IntEncodingForNumbers) {
    auto o = Object::make_string("12345");
    EXPECT_EQ(o->encoding(), ObjEncoding::kInt);
    EXPECT_EQ(o->string_value(), "12345");
    EXPECT_EQ(*o->int_value(), 12345);
}

TEST(ObjectString, RawEncodingForText) {
    auto o = Object::make_string("hello");
    EXPECT_EQ(o->encoding(), ObjEncoding::kRaw);
    EXPECT_FALSE(o->int_value().has_value());
    EXPECT_EQ(o->string_len(), 5u);
}

TEST(ObjectString, LeadingZeroNotIntEncoded) {
    auto o = Object::make_string("007");
    EXPECT_EQ(o->encoding(), ObjEncoding::kRaw);
    EXPECT_EQ(o->string_value(), "007");
}

TEST(ObjectString, AppendForcesRaw) {
    auto o = Object::make_string("12");
    EXPECT_EQ(o->encoding(), ObjEncoding::kInt);
    EXPECT_EQ(o->string_append("ab"), 4u);
    EXPECT_EQ(o->encoding(), ObjEncoding::kRaw);
    EXPECT_EQ(o->string_value(), "12ab");
}

TEST(ObjectString, SetSwitchesEncoding) {
    auto o = Object::make_string("abc");
    o->string_set("42");
    EXPECT_EQ(o->encoding(), ObjEncoding::kInt);
    o->string_set("xyz");
    EXPECT_EQ(o->encoding(), ObjEncoding::kRaw);
}

TEST(ObjectEquals, Strings) {
    EXPECT_TRUE(Object::make_string("42")->equals(*Object::make_string("42")));
    EXPECT_FALSE(Object::make_string("a")->equals(*Object::make_string("b")));
    EXPECT_FALSE(Object::make_string("1")->equals(*Object::make_string("01")));
}

TEST(ObjectEquals, IntVsRawSameValue) {
    // "42" int-encoded equals "42" appended into raw form.
    auto raw = Object::make_string("4");
    raw->string_append("2");
    EXPECT_TRUE(Object::make_string("42")->equals(*raw));
}

TEST(ObjectEquals, SameEncodingComparesDirectly) {
    // int vs int: compared as integers, never rendered.
    EXPECT_TRUE(Object::make_string_ll(-7)->equals(*Object::make_string("-7")));
    EXPECT_FALSE(Object::make_string_ll(7)->equals(*Object::make_string_ll(8)));
    EXPECT_TRUE(Object::make_string_ll(LLONG_MIN)
                    ->equals(*Object::make_string("-9223372036854775808")));
    // raw vs raw: byte comparison, whatever each payload's capacity.
    auto grown = Object::make_string("ab");
    grown->string_append("c"); // int-less raw grown by append: spare capacity
    EXPECT_TRUE(Object::make_string("abc")->equals(*grown));
    EXPECT_TRUE(grown->equals(*Object::make_string("abc")));
    EXPECT_FALSE(Object::make_string("abc")->equals(*Object::make_string("abd")));
    EXPECT_FALSE(Object::make_string("abc")->equals(*Object::make_string("abcd")));
    EXPECT_FALSE(Object::make_string(std::string("a\0b", 3))
                     ->equals(*Object::make_string(std::string("a\0c", 3))));
}

TEST(ObjectEquals, IntVsRawBuiltByAppend) {
    auto raw = Object::make_string("12");
    raw->string_append("3");
    ASSERT_EQ(raw->encoding(), ObjEncoding::kRaw);
    auto num = Object::make_string("123");
    ASSERT_EQ(num->encoding(), ObjEncoding::kInt);
    EXPECT_TRUE(num->equals(*raw));
    EXPECT_TRUE(raw->equals(*num));
    auto other = Object::make_string("12");
    other->string_append("4");
    EXPECT_FALSE(num->equals(*other));
    EXPECT_FALSE(other->equals(*num));
    auto padded = Object::make_string("0");
    padded->string_append("123"); // "0123" is not the integer's rendering
    EXPECT_FALSE(num->equals(*padded));
}

TEST(ObjectString, ValueViewRendersIntoCallerBuffer) {
    char buf[kLongStrSize];
    auto num = Object::make_string_ll(LLONG_MIN);
    const std::string_view v = num->value_view(buf);
    EXPECT_EQ(v, "-9223372036854775808");
    EXPECT_GE(v.data(), buf); // the digits live in the caller's buffer
    auto raw = Object::make_string("hello");
    EXPECT_EQ(raw->value_view(buf), "hello");
    EXPECT_EQ(raw->string_len(), 5u);
    EXPECT_EQ(num->string_len(), 20u);
}

TEST(ObjectMemory, RawPayloadIsExactFit) {
    // Made from bytes: no slack (sdsnewlen), so a record costs its size.
    const auto v = Object::make_string(std::string(128, 'v'));
    EXPECT_EQ(v->memory_bytes(), sizeof(Object) + 128);
}

TEST(ObjectMemory, GrowsWithContent) {
    auto small = Object::make_string("a");
    auto big = Object::make_string(std::string(10'000, 'b'));
    EXPECT_GT(big->memory_bytes(), small->memory_bytes());
    const auto before = small->memory_bytes();
    for (int i = 0; i < 100; ++i) small->string_append("element");
    EXPECT_GT(small->memory_bytes(), before);
}

} // namespace
} // namespace skv::kv
