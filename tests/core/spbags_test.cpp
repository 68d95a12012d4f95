#include "core/spbags.hpp"

#include <gtest/gtest.h>

#include "core/driver.hpp"
#include "runtime/api.hpp"

namespace rader {
namespace {

TEST(SpBags, CleanSpawnSyncProgram) {
  int x = 0;
  const RaceLog log = Rader::check_spbags([&] {
    shadow_write(&x, 4);
    spawn([] {});
    sync();
    shadow_read(&x, 4);
  });
  EXPECT_FALSE(log.any());
}

TEST(SpBags, DetectsWriteReadRace) {
  int x = 0;
  const RaceLog log = Rader::check_spbags([&] {
    spawn([&] { shadow_write(&x, 4, SrcTag{"child write"}); });
    shadow_read(&x, 4, SrcTag{"parent read"});
    sync();
  });
  EXPECT_EQ(log.determinacy_count(), 4u);  // one per byte
  ASSERT_FALSE(log.determinacy_races().empty());
  EXPECT_EQ(log.determinacy_races()[0].current_label, "parent read");
  EXPECT_TRUE(log.determinacy_races()[0].prior_was_write);
}

TEST(SpBags, DetectsWriteWriteRace) {
  int x = 0;
  const RaceLog log = Rader::check_spbags([&] {
    spawn([&] { shadow_write(&x, 4); });
    shadow_write(&x, 4);
    sync();
  });
  EXPECT_TRUE(log.any());
}

TEST(SpBags, DetectsReadThenWriteRace) {
  int x = 0;
  const RaceLog log = Rader::check_spbags([&] {
    spawn([&] { shadow_read(&x, 4); });
    shadow_write(&x, 4);
    sync();
  });
  EXPECT_TRUE(log.any());
}

TEST(SpBags, ParallelReadsAreFine) {
  int x = 0;
  const RaceLog log = Rader::check_spbags([&] {
    spawn([&] { shadow_read(&x, 4); });
    spawn([&] { shadow_read(&x, 4); });
    shadow_read(&x, 4);
    sync();
  });
  EXPECT_FALSE(log.any());
}

TEST(SpBags, SyncRestoresSeries) {
  int x = 0;
  const RaceLog log = Rader::check_spbags([&] {
    spawn([&] { shadow_write(&x, 4); });
    sync();
    spawn([&] { shadow_write(&x, 4); });
    sync();
    shadow_write(&x, 4);
  });
  EXPECT_FALSE(log.any());
}

TEST(SpBags, SiblingSpawnsRace) {
  int x = 0;
  const RaceLog log = Rader::check_spbags([&] {
    spawn([&] { shadow_write(&x, 4); });
    spawn([&] { shadow_write(&x, 4); });
    sync();
  });
  EXPECT_TRUE(log.any());
}

TEST(SpBags, CalledChildrenAreSerial) {
  int x = 0;
  const RaceLog log = Rader::check_spbags([&] {
    call([&] { shadow_write(&x, 4); });
    call([&] { shadow_write(&x, 4); });
  });
  EXPECT_FALSE(log.any());
}

TEST(SpBags, SpawnInsideCalledChildStillRaces) {
  int x = 0;
  const RaceLog log = Rader::check_spbags([&] {
    call([&] {
      spawn([&] { shadow_write(&x, 4); });
      shadow_read(&x, 4);
      sync();
    });
  });
  EXPECT_TRUE(log.any());
}

TEST(SpBags, RaceAcrossDeepNesting) {
  int x = 0;
  const RaceLog log = Rader::check_spbags([&] {
    spawn([&] {
      spawn([&] {
        spawn([&] { shadow_write(&x, 4); });
        sync();
      });
      sync();
    });
    shadow_read(&x, 4);
    sync();
  });
  EXPECT_TRUE(log.any());
}

TEST(SpBags, DisjointAddressesNoRace) {
  int x = 0, y = 0;
  const RaceLog log = Rader::check_spbags([&] {
    spawn([&] { shadow_write(&x, 4); });
    shadow_write(&y, 4);
    sync();
  });
  EXPECT_FALSE(log.any());
}

TEST(SpBags, GrandchildJoinedByInnerSyncStillParallelToUncle) {
  // The inner sync joins the grandchild to ITS parent, not to the root:
  // the continuation in root is still parallel to the grandchild's write.
  int x = 0;
  const RaceLog log = Rader::check_spbags([&] {
    spawn([&] {
      spawn([&] { shadow_write(&x, 4); });
      sync();  // joins grandchild to child only
    });
    shadow_read(&x, 4);
    sync();
  });
  EXPECT_TRUE(log.any());
}

TEST(SpBags, SameStrandRepeatedAccessesAreFine) {
  int x = 0;
  const RaceLog log = Rader::check_spbags([&] {
    shadow_write(&x, 4);
    shadow_write(&x, 4);
    shadow_read(&x, 4);
    spawn([] {});
    sync();
    shadow_write(&x, 4);
    shadow_write(&x, 4);
  });
  EXPECT_FALSE(log.any());
}

TEST(SpBags, SeparatedSiblingSubtreesDeepRace) {
  // Each access sits below a called child of a different spawned sibling.
  int x = 0;
  const RaceLog log = Rader::check_spbags([&] {
    spawn([&] {
      call([&] {
        spawn([&] { shadow_write(&x, 4); });
        sync();
      });
    });
    spawn([&] {
      call([&] { shadow_read(&x, 4); });
    });
    sync();
  });
  EXPECT_TRUE(log.any());
}

}  // namespace
}  // namespace rader
