#include <gtest/gtest.h>

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
