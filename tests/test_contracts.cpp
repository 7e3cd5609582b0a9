// Cross-module contracts that several components silently rely on.
#include <gtest/gtest.h>

#include "arch/cost_table.h"
#include "evalnet/hwgen_net.h"
#include "nas/supernet.h"

namespace {

using namespace dance;

TEST(Contracts, HwEncodingAlignsWithHwGenHeadRanges) {
  // HwSearchSpace::encode and HwGenNet::head_ranges must agree on the
  // PEX | PEY | RF | dataflow layout — the cross-entropy training slices
  // and the one-hot feature forwarding depend on it.
  hwgen::HwSearchSpace space;
  util::Rng rng(1);
  evalnet::HwGenNet net(10, space, rng);
  const auto ranges = net.head_ranges();
  const accel::AcceleratorConfig c{11, 23, 44, accel::Dataflow::kRowStationary};
  const auto enc = space.encode(c);
  // Exactly one hot bit inside each head range.
  for (int h = 0; h < 4; ++h) {
    const auto [begin, end] = ranges[static_cast<std::size_t>(h)];
    int ones = 0;
    for (int i = begin; i < end; ++i) {
      ones += enc[static_cast<std::size_t>(i)] == 1.0F ? 1 : 0;
    }
    EXPECT_EQ(ones, 1) << "head " << h;
  }
  // And the hot positions decode back to the right values.
  EXPECT_FLOAT_EQ(enc[static_cast<std::size_t>(ranges[0].first +
                                               space.pe_index(11))], 1.0F);
  EXPECT_FLOAT_EQ(enc[static_cast<std::size_t>(ranges[1].first +
                                               space.pe_index(23))], 1.0F);
  EXPECT_FLOAT_EQ(enc[static_cast<std::size_t>(ranges[2].first +
                                               space.rf_index(44))], 1.0F);
  EXPECT_FLOAT_EQ(
      enc[static_cast<std::size_t>(
          ranges[3].first +
          space.dataflow_index(accel::Dataflow::kRowStationary))],
      1.0F);
}

TEST(Contracts, SupernetEncodingMatchesArchSpaceEncoding) {
  // SuperNet::encode_gates over one-hot gates must equal ArchSpace::encode
  // for the same architecture — the evaluator is trained on the latter and
  // consumed with the former.
  arch::ArchSpace space(arch::cifar10_backbone());
  util::Rng rng(2);
  nas::SuperNetConfig cfg;
  cfg.num_blocks = space.num_searchable();
  nas::SuperNet net(cfg, rng);
  const arch::Architecture a = space.random(rng);
  const auto enc_space = space.encode(a);
  const auto enc_gates = nas::SuperNet::encode_gates(net.onehot_gates(a));
  ASSERT_EQ(static_cast<int>(enc_space.size()), enc_gates.value().cols());
  for (std::size_t i = 0; i < enc_space.size(); ++i) {
    EXPECT_FLOAT_EQ(enc_space[i], enc_gates.value()[i]);
  }
}

TEST(Contracts, SuperNetBlockCountMustMatchBackbone) {
  // The DANCE loop feeds supernet gate encodings into an evaluator trained
  // on ArchSpace encodings; widths only line up when block counts match.
  arch::ArchSpace space(arch::cifar10_backbone());
  nas::SuperNetConfig cfg;
  cfg.num_blocks = space.num_searchable();
  EXPECT_EQ(cfg.num_blocks * arch::kNumCandidateOps, space.encoding_width());
}

}  // namespace
