// Unit tests for the dance::registry layer: MANIFEST parsing (full
// validation before activation, partial/corrupt files rejected), monotonic
// generation numbering across publish/promote/reload, the pin/unpin
// lifetime contract (a pinned generation keeps answering, bit-identically,
// across later publishes), generation-scoped cache keys, and the
// registry-aware wire front-end. Suite names carry a lowercase "registry_"
// prefix so `ctest -R registry` selects the whole stack.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include "arch/backbone.h"
#include "evalnet/evaluator.h"
#include "hwgen/search_space.h"
#include "registry/manifest.h"
#include "registry/registry.h"
#include "registry/serving.h"
#include "serve/backend.h"
#include "serve/service.h"
#include "serve/types.h"
#include "serve/wire.h"
#include "util/fs.h"
#include "util/rng.h"

namespace {

using namespace dance;

/// Fresh scratch directory per call; tests never share registry state.
std::string test_dir(const char* tag) {
  static int counter = 0;
  std::string path = "/tmp/dance_registry_test_" + std::to_string(getpid()) +
                     "_" + tag + "_" + std::to_string(counter++);
  mkdir(path.c_str(), 0755);
  return path;
}

hwgen::HwSearchSpace small_space() {
  return hwgen::HwSearchSpace(
      {.pe_min = 8, .pe_max = 10, .rf_min = 8, .rf_max = 16, .rf_step = 8});
}

/// Small evaluator geometry: the tests exercise registry mechanics, not
/// predictive quality, so tiny nets keep the suite fast.
evalnet::Evaluator::Options small_opts() {
  evalnet::Evaluator::Options opts;
  opts.hwgen.hidden_dim = 16;
  opts.hwgen.num_layers = 2;
  opts.cost.hidden_dim = 16;
  opts.cost.num_layers = 2;
  return opts;
}

evalnet::Evaluator make_evaluator(const hwgen::HwSearchSpace& space,
                                  std::uint64_t seed) {
  arch::ArchSpace arch_space(arch::cifar10_backbone());
  util::Rng rng(seed);
  return evalnet::Evaluator(arch_space.encoding_width(), space, rng,
                            small_opts());
}

std::vector<float> some_encoding(std::uint64_t seed) {
  arch::ArchSpace space(arch::cifar10_backbone());
  util::Rng rng(seed);
  return space.encode(space.random(rng));
}

bool bit_equal_double(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool bit_equal_response(const serve::Response& a, const serve::Response& b) {
  return bit_equal_double(a.metrics.latency_ms, b.metrics.latency_ms) &&
         bit_equal_double(a.metrics.energy_mj, b.metrics.energy_mj) &&
         bit_equal_double(a.metrics.area_mm2, b.metrics.area_mm2) &&
         a.config == b.config;
}

// --- MANIFEST ---------------------------------------------------------------

TEST(registry_manifest, SerializeParseRoundTrip) {
  registry::Manifest m;
  registry::ManifestModel& model = m.models["default"];
  model.name = "default";
  model.arch_width = 63;
  model.opts = small_opts();
  model.generations[1] = "default-gen1";
  model.generations[2] = "default-gen2";
  model.live = 2;
  model.candidate = 1;

  const registry::Manifest back = registry::Manifest::parse(m.serialize());
  ASSERT_EQ(back.models.size(), 1U);
  const registry::ManifestModel& b = back.models.at("default");
  EXPECT_EQ(b.arch_width, 63);
  EXPECT_EQ(b.live, 2U);
  EXPECT_EQ(b.candidate, 1U);
  ASSERT_EQ(b.generations.size(), 2U);
  EXPECT_EQ(b.generations.at(1), "default-gen1");
  EXPECT_EQ(b.generations.at(2), "default-gen2");
  EXPECT_EQ(b.opts.hwgen.hidden_dim, 16);
  EXPECT_EQ(b.opts.cost.num_layers, 2);
}

TEST(registry_manifest, EmptyRegistryRoundTrips) {
  const registry::Manifest m =
      registry::Manifest::parse(registry::Manifest{}.serialize());
  EXPECT_TRUE(m.models.empty());
}

TEST(registry_manifest, RejectsMissingHeader) {
  EXPECT_THROW((void)registry::Manifest::parse("end\n"),
               registry::ManifestError);
  EXPECT_THROW((void)registry::Manifest::parse(""), registry::ManifestError);
}

TEST(registry_manifest, RejectsTruncatedFile) {
  // A manifest without the trailing `end` marker is a torn write even if
  // every record line is well-formed; it must never activate.
  std::string text = registry::Manifest{}.serialize();
  ASSERT_NE(text.find("end"), std::string::npos);
  text = text.substr(0, text.find("end"));
  EXPECT_THROW((void)registry::Manifest::parse(text),
               registry::ManifestError);
}

TEST(registry_manifest, RejectsUnknownRecordsAndKeys) {
  EXPECT_THROW(
      (void)registry::Manifest::parse("DANCE-REGISTRY v1\nbogus record\nend\n"),
      registry::ManifestError);
}

TEST(registry_manifest, RejectsDanglingReferences) {
  // `gen` for a model never declared.
  EXPECT_THROW((void)registry::Manifest::parse(
                   "DANCE-REGISTRY v1\ngen ghost 1 ghost-gen1\nend\n"),
               registry::ManifestError);
  // live pointing at a generation with no `gen` record.
  registry::Manifest m;
  registry::ManifestModel& model = m.models["m"];
  model.name = "m";
  model.arch_width = 4;
  model.generations[1] = "m-gen1";
  model.live = 7;
  EXPECT_THROW((void)registry::Manifest::parse(m.serialize()),
               registry::ManifestError);
}

TEST(registry_manifest, RejectsGenerationZero) {
  registry::Manifest m;
  registry::ManifestModel& model = m.models["m"];
  model.name = "m";
  model.arch_width = 4;
  model.generations[0] = "m-gen0";  // 0 is the "none" sentinel, reserved
  EXPECT_THROW((void)registry::Manifest::parse(m.serialize()),
               registry::ManifestError);
}

TEST(registry_manifest, RegistryOpensFullyOrNotAtAll) {
  const std::string dir = test_dir("torn");
  registry::ModelRegistry::init(dir);
  // Tear the manifest on disk: opening must throw, not half-load.
  util::atomic_write_file(registry::Manifest::path_in(dir),
                          "DANCE-REGISTRY v1\n");
  const hwgen::HwSearchSpace space = small_space();
  EXPECT_THROW((void)registry::ModelRegistry(dir, space),
               registry::ManifestError);
}

// --- generations ------------------------------------------------------------

TEST(registry_generations, PublishAssignsMonotonicGenerations) {
  const std::string dir = test_dir("mono");
  registry::ModelRegistry::init(dir);
  const hwgen::HwSearchSpace space = small_space();
  registry::ModelRegistry reg(dir, space);

  evalnet::Evaluator e1 = make_evaluator(space, 1);
  evalnet::Evaluator e2 = make_evaluator(space, 2);
  evalnet::Evaluator e3 = make_evaluator(space, 3);
  EXPECT_EQ(reg.publish("default", e1), 1U);
  EXPECT_EQ(reg.publish("default", e2), 2U);
  EXPECT_EQ(reg.publish("default", e3), 3U);
  EXPECT_EQ(reg.live_generation("default"), 3U);
  ASSERT_EQ(reg.models().size(), 1U);
  EXPECT_EQ(reg.models()[0], "default");

  // A second model numbers independently.
  evalnet::Evaluator other = make_evaluator(space, 4);
  EXPECT_EQ(reg.publish("other", other), 1U);
  EXPECT_EQ(reg.live_generation("default"), 3U);
}

TEST(registry_generations, CandidateStagingAndPromotion) {
  const std::string dir = test_dir("cand");
  registry::ModelRegistry::init(dir);
  const hwgen::HwSearchSpace space = small_space();
  registry::ModelRegistry reg(dir, space);

  evalnet::Evaluator e1 = make_evaluator(space, 5);
  evalnet::Evaluator e2 = make_evaluator(space, 6);
  ASSERT_EQ(reg.publish("m", e1), 1U);
  EXPECT_EQ(reg.promote("m"), 0U);  // nothing staged yet

  ASSERT_EQ(reg.publish("m", e2, /*as_candidate=*/true), 2U);
  EXPECT_EQ(reg.live_generation("m"), 1U);  // staging leaves live untouched
  ASSERT_NE(reg.pin_candidate("m"), nullptr);
  EXPECT_EQ(reg.pin_candidate("m")->generation(), 2U);

  EXPECT_EQ(reg.promote("m"), 2U);
  EXPECT_EQ(reg.live_generation("m"), 2U);
  EXPECT_EQ(reg.pin_candidate("m"), nullptr);
  EXPECT_EQ(reg.pin("m")->generation(), 2U);
}

TEST(registry_generations, ReloadPicksUpExternalPublish) {
  const std::string dir = test_dir("reload");
  registry::ModelRegistry::init(dir);
  const hwgen::HwSearchSpace space = small_space();
  registry::ModelRegistry writer(dir, space);
  registry::ModelRegistry reader(dir, space);  // a second "process"

  evalnet::Evaluator e1 = make_evaluator(space, 7);
  ASSERT_EQ(writer.publish("m", e1), 1U);
  EXPECT_EQ(reader.live_generation("m"), 0U);  // not visible until reload

  EXPECT_GE(reader.reload(), 1U);
  EXPECT_EQ(reader.live_generation("m"), 1U);
  EXPECT_EQ(reader.pin("m")->generation(), 1U);
  EXPECT_EQ(reader.reload(), 0U);  // idempotent: nothing new to swap
}

// --- pin / unpin lifecycle --------------------------------------------------

TEST(registry_pins, PinnedGenerationSurvivesPublish) {
  const std::string dir = test_dir("pin");
  registry::ModelRegistry::init(dir);
  const hwgen::HwSearchSpace space = small_space();
  registry::ModelRegistry reg(dir, space);

  evalnet::Evaluator e1 = make_evaluator(space, 11);
  ASSERT_EQ(reg.publish("m", e1), 1U);

  const registry::VersionPtr old = reg.pin("m");
  const std::vector<float> enc = some_encoding(42);
  const std::vector<serve::Request> reqs = {
      registry::ModelRegistry::make_request(old, enc)};
  const serve::Response before = old->answer(reqs)[0];
  EXPECT_EQ(before.generation, 1U);

  evalnet::Evaluator e2 = make_evaluator(space, 12);
  ASSERT_EQ(reg.publish("m", e2), 2U);

  // The retired generation, still pinned, answers bit-identically.
  const serve::Response after = old->answer(reqs)[0];
  EXPECT_EQ(after.generation, 1U);
  EXPECT_TRUE(bit_equal_response(before, after));

  // A fresh pin sees the new generation — and (different weights) answers
  // differently scoped requests.
  const registry::VersionPtr fresh = reg.pin("m");
  EXPECT_EQ(fresh->generation(), 2U);
  const std::vector<serve::Request> reqs2 = {
      registry::ModelRegistry::make_request(fresh, enc)};
  EXPECT_EQ(fresh->answer(reqs2)[0].generation, 2U);
}

TEST(registry_pins, ResidencyTracksPinsNotPublishes) {
  const std::string dir = test_dir("resident");
  registry::ModelRegistry::init(dir);
  const hwgen::HwSearchSpace space = small_space();
  const std::uint64_t base = registry::ModelVersion::resident_count();
  {
    registry::ModelRegistry reg(dir, space);
    evalnet::Evaluator e1 = make_evaluator(space, 13);
    evalnet::Evaluator e2 = make_evaluator(space, 14);
    ASSERT_EQ(reg.publish("m", e1), 1U);
    registry::VersionPtr pinned = reg.pin("m");
    ASSERT_EQ(reg.publish("m", e2), 2U);
    // Gen 1 is retired but pinned; gen 2 is live: both resident.
    EXPECT_EQ(registry::ModelVersion::resident_count(), base + 2);
    pinned.reset();
    // The RCU drop: the last pin frees the retired generation.
    EXPECT_EQ(registry::ModelVersion::resident_count(), base + 1);
  }
  EXPECT_EQ(registry::ModelVersion::resident_count(), base);
}

TEST(registry_pins, UnknownOrUnpublishedModelsThrow) {
  const std::string dir = test_dir("missing");
  registry::ModelRegistry::init(dir);
  const hwgen::HwSearchSpace space = small_space();
  registry::ModelRegistry reg(dir, space);
  EXPECT_THROW((void)reg.pin("ghost"), std::runtime_error);
  EXPECT_EQ(reg.pin_candidate("ghost"), nullptr);

  // Candidate-only model: staged for shadow, not yet live -> pin() throws.
  evalnet::Evaluator e = make_evaluator(space, 15);
  ASSERT_EQ(reg.publish("staged", e, /*as_candidate=*/true), 1U);
  EXPECT_THROW((void)reg.pin("staged"), std::runtime_error);
  ASSERT_NE(reg.pin_candidate("staged"), nullptr);
}

// --- cache-key namespacing --------------------------------------------------

TEST(registry_keys, ScopeFoldsIntoCanonicalKey) {
  const std::string dir = test_dir("keys");
  registry::ModelRegistry::init(dir);
  const hwgen::HwSearchSpace space = small_space();
  registry::ModelRegistry reg(dir, space);
  evalnet::Evaluator e1 = make_evaluator(space, 16);
  evalnet::Evaluator e2 = make_evaluator(space, 17);
  ASSERT_EQ(reg.publish("m", e1), 1U);
  const registry::VersionPtr v1 = reg.pin("m");
  ASSERT_EQ(reg.publish("m", e2), 2U);
  const registry::VersionPtr v2 = reg.pin("m");

  const std::vector<float> enc = some_encoding(77);
  const auto k1 =
      serve::canonical_key(registry::ModelRegistry::make_request(v1, enc));
  const auto k2 =
      serve::canonical_key(registry::ModelRegistry::make_request(v2, enc));
  // Same encoding, different generation: a cross-generation cache hit is
  // impossible because the keys differ in their scope prefix.
  EXPECT_FALSE(serve::KeyEq{}(k1, k2));
  EXPECT_EQ(k1.size(), enc.size() + 4);

  // Unscoped requests produce exactly the legacy key (snapshot compat).
  const serve::Request plain{enc};
  EXPECT_TRUE(serve::KeyEq{}(serve::canonical_key(plain),
                             serve::canonical_key(enc)));
}

TEST(registry_keys, BackendRejectsUnpinnedRequests) {
  registry::RegistryBackend backend;
  const std::vector<serve::Request> reqs = {serve::Request{{1.0F, 2.0F}}};
  EXPECT_THROW((void)backend.query_batch(reqs), std::runtime_error);
}

// --- wire front-end ---------------------------------------------------------

TEST(registry_wire, FrontendServesReloadsAndRoutes) {
  const std::string dir = test_dir("wire");
  registry::ModelRegistry::init(dir);
  const hwgen::HwSearchSpace space = small_space();
  {
    registry::ModelRegistry writer(dir, space);
    evalnet::Evaluator e = make_evaluator(space, 18);
    ASSERT_EQ(writer.publish("default", e), 1U);
  }
  registry::ModelRegistry reg(dir, space);
  registry::RegistryBackend backend;
  serve::Service service(backend);
  registry::Frontend frontend(reg, service, "default");
  arch::ArchSpace arch_space(arch::cifar10_backbone());

  const std::string line = R"({"id": 1, "arch": [0, 1, 2, 3, 4, 5, 6, 0, 1]})";
  const std::string answer = frontend.answer_line(line, arch_space);
  EXPECT_NE(answer.find("\"generation\": 1"), std::string::npos) << answer;
  EXPECT_EQ(answer.find("error"), std::string::npos) << answer;

  // Unknown model -> error line, not an exception.
  const std::string routed = frontend.answer_line(
      R"({"id": 2, "model": "ghost", "arch": [0, 1, 2, 3, 4, 5, 6, 0, 1]})",
      arch_space);
  EXPECT_NE(routed.find("error"), std::string::npos) << routed;

  // Reload over the wire; nothing new on disk -> 0 swaps.
  const std::string reloaded =
      frontend.answer_line(R"({"cmd": "reload"})", arch_space);
  EXPECT_NE(reloaded.find("\"reloaded\": true"), std::string::npos);
  EXPECT_NE(reloaded.find("\"swaps\": 0"), std::string::npos);

  // Blank lines are skipped, like serve::wire::answer_line.
  EXPECT_TRUE(frontend.answer_line("   ", arch_space).empty());
}

TEST(registry_wire, FrontendIsThePlainPipelineOnThePinnedGeneration) {
  // Oracle for the registry front-end: its line for every request equals
  // serve::wire::answer_line over a fresh Service on a SurrogateBackend
  // built from the published generation's checkpoints, with
  // `, "generation": N` before the closing brace. Error lines and blank
  // lines are identical. The 40-query CI stream repeats every arch seven
  // queries later, so the `cached` flag is covered.
  const std::string dir = test_dir("oracle");
  registry::ModelRegistry::init(dir);
  const hwgen::HwSearchSpace space = small_space();
  {
    registry::ModelRegistry writer(dir, space);
    evalnet::Evaluator e = make_evaluator(space, 18);
    ASSERT_EQ(writer.publish("default", e), 1U);
    evalnet::Evaluator e2 = make_evaluator(space, 19);
    ASSERT_EQ(writer.publish("default", e2), 2U);
  }
  registry::ModelRegistry reg(dir, space);
  registry::RegistryBackend backend;
  serve::Service service(backend);
  registry::Frontend frontend(reg, service, "default");

  const auto evaluator = reg.load_evaluator("default", 2);
  serve::SurrogateBackend plain_backend(*evaluator);
  serve::Service plain(plain_backend);
  arch::ArchSpace arch_space(arch::cifar10_backbone());

  std::vector<std::string> lines;
  for (int i = 0; i < 40; ++i) {
    std::string line = "{\"id\": " + std::to_string(i) + ", \"arch\": [";
    for (int j = 0; j < arch_space.num_searchable(); ++j) {
      line += (j == 0 ? "" : ", ") + std::to_string((i + j) % 7);
    }
    lines.push_back(line + "]}");
  }
  for (const char* bad :
       {R"({"id": 40, "arch": [1, 2]})", R"({"id": 41})", "not json", "",
        "   ", R"({"id": 42, "arch": [0, 1, 2, 3, 9, 5, 6, 0, 1]})",
        R"({"id": 43, "encoding": [nan, 1]})",
        R"({"id": 44, "model": "default", "arch": [0,1,2,3,4,5,6,0,1]})"}) {
    lines.emplace_back(bad);
  }

  int cached = 0;
  int errors = 0;
  for (const std::string& line : lines) {
    std::string expected = serve::wire::answer_line(line, arch_space, plain);
    if (expected.find("\"error\"") != std::string::npos) {
      ++errors;
    } else if (!expected.empty()) {
      expected.insert(expected.size() - 1, ", \"generation\": 2");
    }
    if (expected.find("\"cached\": true") != std::string::npos) ++cached;
    EXPECT_EQ(frontend.answer_line(line, arch_space), expected) << line;
  }
  EXPECT_EQ(cached, 34);
  EXPECT_EQ(errors, 5);
}

TEST(registry_wire, UnknownCmdEchoIsAValidJsonLine) {
  // {"cmd": "a\"b"}: the string scanner stops at the escaped quote, so the
  // echoed command is `a\` — its backslash must be escaped in the error line
  // or it would swallow the closing quote.
  const std::string dir = test_dir("wire_escape");
  registry::ModelRegistry::init(dir);
  registry::ModelRegistry reg(dir, small_space());
  registry::RegistryBackend backend;
  serve::Service service(backend);
  registry::Frontend frontend(reg, service, "default");
  arch::ArchSpace arch_space(arch::cifar10_backbone());

  EXPECT_EQ(frontend.answer_line(R"({"cmd": "a\"b"})", arch_space),
            R"({"id": -1, "error": "unknown cmd: a\\"})");
}

}  // namespace
