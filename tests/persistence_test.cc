#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "data/generators.h"
#include "storage/crc32.h"
#include "storage/engine_store.h"
#include "storage/file_io.h"

namespace wnrs {
namespace {

/// Engine bundle round-trip: an engine reopened from disk must answer
/// every query bit-identically to the engine it was saved from — MWP,
/// MQP, MWQ, reverse skylines, and safe regions, through both the mmap
/// and the buffered slab path. This is the contract the persistence CI
/// job re-proves across processes.
class PersistenceTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const std::string& d : dirs_) {
      for (const char* f :
           {storage::kBundleDataFile, storage::kBundleTreeFile,
            storage::kBundleCustomerTreeFile, storage::kBundlePackedFile,
            storage::kBundlePackedCustomerFile}) {
        std::remove((d + "/" + f).c_str());
      }
      std::remove(d.c_str());
    }
  }
  std::string Dir(const std::string& name) {
    dirs_.push_back(::testing::TempDir() + "/" + name);
    return dirs_.back();
  }
  std::vector<std::string> dirs_;
};

void ExpectCandidatesIdentical(const std::vector<Candidate>& a,
                               const std::vector<Candidate>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].point, b[i].point);
    EXPECT_EQ(a[i].cost, b[i].cost);  // Bit-identical, not approximate.
  }
}

/// Drives the same query set against both engines and requires
/// bit-identical answers (the acceptance bar of the storage backend).
void ExpectEnginesAnswerIdentically(const WhyNotEngine& original,
                                    const WhyNotEngine& reopened,
                                    const std::vector<Point>& queries,
                                    const std::vector<size_t>& whos) {
  ASSERT_EQ(original.products().size(), reopened.products().size());
  ASSERT_EQ(original.customers().size(), reopened.customers().size());
  ASSERT_EQ(original.shared_relation(), reopened.shared_relation());
  ASSERT_EQ(original.universe(), reopened.universe());
  for (const Point& q : queries) {
    SCOPED_TRACE(q.ToString());
    EXPECT_EQ(original.ReverseSkyline(q), reopened.ReverseSkyline(q));

    const SafeRegionResult& sr_a = original.SafeRegion(q);
    const SafeRegionResult& sr_b = reopened.SafeRegion(q);
    ASSERT_EQ(sr_a.region.rects().size(), sr_b.region.rects().size());
    for (size_t i = 0; i < sr_a.region.rects().size(); ++i) {
      EXPECT_EQ(sr_a.region.rects()[i], sr_b.region.rects()[i]);
    }
    EXPECT_EQ(sr_a.truncated, sr_b.truncated);

    for (size_t c : whos) {
      SCOPED_TRACE(c);
      const MwpResult mwp_a = original.ModifyWhyNot(c, q);
      const MwpResult mwp_b = reopened.ModifyWhyNot(c, q);
      EXPECT_EQ(mwp_a.already_member, mwp_b.already_member);
      EXPECT_EQ(mwp_a.culprits, mwp_b.culprits);
      ExpectCandidatesIdentical(mwp_a.candidates, mwp_b.candidates);

      const MqpResult mqp_a = original.ModifyQuery(c, q);
      const MqpResult mqp_b = reopened.ModifyQuery(c, q);
      EXPECT_EQ(mqp_a.already_member, mqp_b.already_member);
      EXPECT_EQ(mqp_a.culprits, mqp_b.culprits);
      ExpectCandidatesIdentical(mqp_a.candidates, mqp_b.candidates);

      const MwqResult mwq_a = original.ModifyBoth(c, q);
      const MwqResult mwq_b = reopened.ModifyBoth(c, q);
      EXPECT_EQ(mwq_a.already_member, mwq_b.already_member);
      EXPECT_EQ(mwq_a.overlap, mwq_b.overlap);
      EXPECT_EQ(mwq_a.best_cost, mwq_b.best_cost);
      ExpectCandidatesIdentical(mwq_a.query_candidates,
                                mwq_b.query_candidates);
      ExpectCandidatesIdentical(mwq_a.why_not_candidates,
                                mwq_b.why_not_candidates);
    }
  }
}

std::vector<Point> CarDbQueries() {
  return {Point({14000, 70000}), Point({30000, 30000}),
          Point({8000, 150000}), Point({45000, 10000})};
}

TEST_F(PersistenceTest, SharedRelationRoundTripsAt10k) {
  // The acceptance-bar dataset size: >= 10k products.
  const Dataset ds = GenerateCarDb(10000, 301);
  WhyNotEngineOptions options;
  const WhyNotEngine original(ds, options);
  const std::string dir = Dir("bundle10k");
  ASSERT_TRUE(original.Save(dir).ok());

  // Both slab paths must agree with the in-memory engine.
  for (bool mmap_packed : {true, false}) {
    SCOPED_TRACE(mmap_packed ? "mmap" : "buffered");
    WhyNotEngineOptions open_options;
    open_options.storage.mmap_packed = mmap_packed;
    Result<std::unique_ptr<WhyNotEngine>> reopened =
        WhyNotEngine::Open(dir, open_options);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    ExpectEnginesAnswerIdentically(original, **reopened, CarDbQueries(),
                                   {3, 77, 4321, 9999});
  }
}

TEST_F(PersistenceTest, BichromaticRoundTrips) {
  const Dataset products = GenerateUniform(3000, 2, 302);
  Dataset customers = GenerateUniform(800, 2, 303);
  const WhyNotEngine original(products, customers, {});
  const std::string dir = Dir("bichromatic");
  ASSERT_TRUE(original.Save(dir).ok());

  Result<std::unique_ptr<WhyNotEngine>> reopened = WhyNotEngine::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const std::vector<Point> queries = {Point({0.3, 0.4}), Point({0.8, 0.1})};
  ExpectEnginesAnswerIdentically(original, **reopened, queries,
                                 {0, 200, 799});
}

TEST_F(PersistenceTest, MutatedEngineRoundTripsTombstonesAndUniverse) {
  const Dataset ds = GenerateCarDb(2000, 304);
  WhyNotEngine original(ds, WhyNotEngineOptions{});
  // Mutate: remove a few products, add one OUTSIDE the original bounds so
  // the persisted universe (and with it the cost model) must come from
  // the bundle, not from a recomputation over the points.
  ASSERT_TRUE(original.RemoveProduct(10));
  ASSERT_TRUE(original.RemoveProduct(1234));
  const size_t added = original.AddProduct(Point({99000.0, 500000.0}));
  EXPECT_EQ(added, 2000u);

  const std::string dir = Dir("mutated");
  ASSERT_TRUE(original.Save(dir).ok());
  Result<std::unique_ptr<WhyNotEngine>> reopened = WhyNotEngine::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();

  EXPECT_FALSE((*reopened)->IsLiveProduct(10));
  EXPECT_FALSE((*reopened)->IsLiveProduct(1234));
  EXPECT_TRUE((*reopened)->IsLiveProduct(2000));
  EXPECT_EQ(original.universe(), (*reopened)->universe());
  ExpectEnginesAnswerIdentically(original, **reopened, CarDbQueries(),
                                 {3, 500, 2000});

  // The reopened engine keeps mutating correctly.
  ASSERT_TRUE((*reopened)->TryRemoveProduct(2000).ok());
  EXPECT_FALSE((*reopened)->IsLiveProduct(2000));
}

TEST_F(PersistenceTest, OpenWithoutPackedPathRefreezesOnDemand) {
  const Dataset ds = GenerateCarDb(1500, 305);
  const WhyNotEngine original(ds, WhyNotEngineOptions{});
  const std::string dir = Dir("nopacked");
  ASSERT_TRUE(original.Save(dir).ok());
  // Strip the slab, as in a bundle written by a build that did not save
  // one: clear the flag in the data file and delete the slab file.
  const std::string data_path = dir + "/" + storage::kBundleDataFile;
  Result<storage::EngineBundleData> data = storage::LoadBundleData(data_path);
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  ASSERT_TRUE(data->has_packed);
  data->has_packed = false;
  ASSERT_TRUE(storage::SaveBundleData(*data, data_path).ok());
  const std::string slab_path = dir + "/" + storage::kBundlePackedFile;
  ASSERT_EQ(std::remove(slab_path.c_str()), 0);
  ASSERT_FALSE(storage::FileExists(slab_path));

  // Open re-freezes the slab from the loaded dynamic tree.
  MetricsRegistry& registry = MetricsRegistry::Default();
  const QueryStats before = registry.CaptureQueryStats();
  Result<std::unique_ptr<WhyNotEngine>> reopened = WhyNotEngine::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((registry.CaptureQueryStats() - before).packed_freezes, 1u);
  ExpectEnginesAnswerIdentically(original, **reopened, CarDbQueries(),
                                 {42, 999});
}

TEST_F(PersistenceTest, ParanoidChecksPassOnReopenedEngine) {
  const Dataset ds = GenerateCarDb(1200, 306);
  WhyNotEngineOptions options;
  options.paranoid_checks = true;
  const WhyNotEngine original(ds, options);
  const std::string dir = Dir("paranoid");
  ASSERT_TRUE(original.Save(dir).ok());
  Result<std::unique_ptr<WhyNotEngine>> reopened =
      WhyNotEngine::Open(dir, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const Point q({14000, 70000});
  EXPECT_EQ(original.ReverseSkyline(q), (*reopened)->ReverseSkyline(q));
}

TEST_F(PersistenceTest, RejectsCorruptBundles) {
  const Dataset ds = GenerateUniform(400, 2, 307);
  const WhyNotEngine original(ds, WhyNotEngineOptions{});
  const std::string dir = Dir("corrupt");
  ASSERT_TRUE(original.Save(dir).ok());

  // Missing directory / missing files.
  EXPECT_FALSE(WhyNotEngine::Open("/nonexistent/bundle").ok());

  const std::string data_path =
      dir + "/" + std::string(storage::kBundleDataFile);
  std::string bytes;
  ASSERT_TRUE(storage::ReadFileToString(data_path, &bytes).ok());

  // Flipped byte in the payload: [data-crc].
  std::string bad = bytes;
  bad[bytes.size() / 2] = static_cast<char>(bad[bytes.size() / 2] ^ 0x11);
  ASSERT_TRUE(storage::WriteStringToFile(data_path, bad).ok());
  Result<std::unique_ptr<WhyNotEngine>> r = WhyNotEngine::Open(dir);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("[data-crc]"), std::string::npos)
      << r.status().ToString();

  // Trailing garbage after the payload: [trailing-bytes] (the CRC is
  // position-checked, so appending also breaks it — seed the specific
  // case through LoadBundleData's own reader instead).
  ASSERT_TRUE(storage::WriteStringToFile(data_path, bytes).ok());

  // Slab/tree mismatch: replace the packed slab with one frozen from a
  // different engine — rejected by the parity validator, never served.
  const Dataset other = GenerateUniform(400, 2, 308);
  const WhyNotEngine decoy(other, WhyNotEngineOptions{});
  const std::string decoy_dir = Dir("decoy");
  ASSERT_TRUE(decoy.Save(decoy_dir).ok());
  std::string decoy_slab;
  ASSERT_TRUE(storage::ReadFileToString(
                  decoy_dir + "/" + storage::kBundlePackedFile, &decoy_slab)
                  .ok());
  ASSERT_TRUE(storage::WriteStringToFile(
                  dir + "/" + storage::kBundlePackedFile, decoy_slab)
                  .ok());
  r = WhyNotEngine::Open(dir);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("[packed-parity]"), std::string::npos)
      << r.status().ToString();
}

TEST_F(PersistenceTest, BundleDataFormatRejectsTrailingBytes) {
  storage::EngineBundleData data;
  data.shared_relation = true;
  data.products.dims = 2;
  data.products.points = {Point({1.0, 2.0}), Point({3.0, 4.0})};
  data.universe = Rectangle(Point({1.0, 2.0}), Point({3.0, 4.0}));
  const std::string dir = Dir("format");
  ASSERT_TRUE(storage::EnsureDirectory(dir).ok());
  const std::string path = dir + "/" + std::string(storage::kBundleDataFile);
  ASSERT_TRUE(storage::SaveBundleData(data, path).ok());
  Result<storage::EngineBundleData> ok = storage::LoadBundleData(path);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->products.points.size(), 2u);
  EXPECT_TRUE(ok->shared_relation);

  // Append bytes and re-stamp a valid CRC over the longer payload: the
  // reader must still refuse with [trailing-bytes], not silently accept.
  std::string bytes;
  ASSERT_TRUE(storage::ReadFileToString(path, &bytes).ok());
  std::string longer = bytes.substr(0, bytes.size() - 4);
  longer += std::string(6, '\x5A');
  const uint32_t crc = storage::Crc32(longer.data(), longer.size());
  longer.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  ASSERT_TRUE(storage::WriteStringToFile(path, longer).ok());
  Result<storage::EngineBundleData> r = storage::LoadBundleData(path);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("[trailing-bytes]"), std::string::npos)
      << r.status().ToString();
}

}  // namespace
}  // namespace wnrs
