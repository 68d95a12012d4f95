#include "shadow/reducer_shadow.hpp"

#include <gtest/gtest.h>

namespace rader::shadow {
namespace {

TEST(ReducerShadow, DefaultEntriesAreAbsent) {
  ReducerShadow rs;
  EXPECT_FALSE(rs.has(0));
  EXPECT_FALSE(rs.has(100));
}

TEST(ReducerShadow, StoresReaderAndSpawnCount) {
  ReducerShadow rs;
  rs[3].reader = 17;
  rs[3].spawn_count = 5;
  rs[3].label = "somewhere";
  EXPECT_TRUE(rs.has(3));
  EXPECT_FALSE(rs.has(2));
  EXPECT_EQ(rs[3].reader, 17u);
  EXPECT_EQ(rs[3].spawn_count, 5u);
}

TEST(ReducerShadow, ClearResets) {
  ReducerShadow rs;
  rs[1].reader = 2;
  rs.clear();
  EXPECT_FALSE(rs.has(1));
}

}  // namespace
}  // namespace rader::shadow
