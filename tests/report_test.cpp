// Tests for sm::report — section selection, content sanity of the
// consolidated text report, and identical text at every pool size.
#include <gtest/gtest.h>

#include "report/report.h"
#include "simworld/world.h"
#include "util/thread_pool.h"

namespace sm::report {
namespace {

class ReportWorld : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    simworld::WorldConfig config = simworld::WorldConfig::tiny();
    config.device_count = 150;
    config.website_count = 60;
    world_ = new simworld::WorldResult(simworld::World(config).run());
    index_ = new analysis::DatasetIndex(world_->archive, world_->routing);
  }
  static void TearDownTestSuite() {
    delete index_;
    delete world_;
    index_ = nullptr;
    world_ = nullptr;
  }

  static simworld::WorldResult* world_;
  static analysis::DatasetIndex* index_;
};

simworld::WorldResult* ReportWorld::world_ = nullptr;
analysis::DatasetIndex* ReportWorld::index_ = nullptr;

TEST_F(ReportWorld, DefaultSectionsPresent) {
  const std::string report = render_report(*index_, world_->as_db);
  EXPECT_NE(report.find("-- validity (paper 4.2) --"), std::string::npos);
  EXPECT_NE(report.find("-- longevity (figures 3-4) --"), std::string::npos);
  EXPECT_NE(report.find("-- top invalid issuers (table 1) --"),
            std::string::npos);
  EXPECT_NE(report.find("-- top invalid ASes (table 3) --"),
            std::string::npos);
  // Linking/tracking are opt-in.
  EXPECT_EQ(report.find("-- linking"), std::string::npos);
  EXPECT_EQ(report.find("-- tracking"), std::string::npos);
  // The dominant invalid issuers of the simulated world show up.
  EXPECT_NE(report.find("www.lancom-systems.de"), std::string::npos);
}

TEST_F(ReportWorld, SectionToggles) {
  ReportOptions options;
  options.validity = false;
  options.longevity = false;
  options.diversity = false;
  options.linking = true;
  options.tracking = true;
  const std::string report = render_report(*index_, world_->as_db, options);
  EXPECT_EQ(report.find("-- validity"), std::string::npos);
  EXPECT_NE(report.find("-- linking (6.4.3 / 6.4.4) --"), std::string::npos);
  EXPECT_NE(report.find("-- tracking (7.2 / 7.3) --"), std::string::npos);
  EXPECT_NE(report.find("single-scan"), std::string::npos);
  EXPECT_NE(report.find("trackable"), std::string::npos);
}

TEST_F(ReportWorld, TopNControlsTableSize) {
  ReportOptions options;
  options.top_n = 2;
  const std::string report = render_report(*index_, world_->as_db, options);
  // Count issuer rows between the table-1 header and the next header.
  const std::size_t start = report.find("-- top invalid issuers");
  const std::size_t end = report.find("-- top invalid ASes");
  ASSERT_NE(start, std::string::npos);
  ASSERT_NE(end, std::string::npos);
  std::size_t rows = 0;
  for (std::size_t pos = start; pos < end; ++pos) {
    if (report.compare(pos, 3, "\n  ") == 0) ++rows;
  }
  EXPECT_EQ(rows, 2u);
}

TEST_F(ReportWorld, TextIsIdenticalAtOneAndFourThreads) {
  // The analyses run concurrently into slots; every section, the
  // revocation table and the linking/tracking summaries included, must
  // come out byte for byte the same whatever the pool size.
  ReportOptions options;
  options.linking = true;
  options.tracking = true;
  options.revocation_statuses = &world_->revocation.statuses;
  util::ThreadPool::set_global_threads(1);
  const std::string reference = render_report(*index_, world_->as_db, options);
  EXPECT_NE(reference.find("-- revocation"), std::string::npos);
  util::ThreadPool::set_global_threads(4);
  for (int run = 0; run < 3; ++run) {
    EXPECT_EQ(render_report(*index_, world_->as_db, options), reference)
        << "run " << run;
  }
  util::ThreadPool::set_global_threads(0);
}

}  // namespace
}  // namespace sm::report
