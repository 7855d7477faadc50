// Tests for the federated message layer, serialization, and the baseline
// searchers (FedNAS, DARTS, ENAS, EvoFedNAS, ResNet-style).
#include "gtest/gtest.h"
#include "src/baselines/enas.h"
#include "src/baselines/evofednas.h"
#include "src/baselines/gradient_nas.h"
#include "src/baselines/resnet_style.h"
#include "src/core/retrain.h"
#include "src/data/synth.h"
#include "src/fed/participant.h"

namespace fms {
namespace {

SupernetConfig tiny_supernet() {
  SupernetConfig cfg;
  cfg.num_cells = 3;
  cfg.num_nodes = 2;
  cfg.stem_channels = 4;
  cfg.image_size = 8;
  return cfg;
}

TrainTest tiny_data(Rng& rng, int train = 120, int test = 40) {
  SynthSpec spec;
  spec.train_size = train;
  spec.test_size = test;
  spec.image_size = 8;
  return make_synth_c10(spec, rng);
}

TEST(Serialize, ByteWriterReaderRoundTrip) {
  ByteWriter w;
  w.write(42);
  w.write(3.5F);
  w.write_vector(std::vector<float>{1.0F, 2.0F});
  w.write_string("hello");
  ByteReader r(w.bytes());
  EXPECT_EQ(r.read<int>(), 42);
  EXPECT_FLOAT_EQ(r.read<float>(), 3.5F);
  auto v = r.read_vector<float>();
  EXPECT_EQ(v.size(), 2u);
  EXPECT_EQ(r.read_string(), "hello");
  EXPECT_TRUE(r.exhausted());
}

TEST(Serialize, UnderflowThrows) {
  ByteWriter w;
  w.write(1);
  ByteReader r(w.bytes());
  r.read<int>();
  EXPECT_THROW(r.read<double>(), CheckError);
}

// An empty vector serializes as its 8-byte zero length alone and reads
// back empty without touching its (possibly null) data pointer.
TEST(Serialize, EmptyVectorRoundTrips) {
  ByteWriter w;
  w.write_vector(std::vector<float>{});
  w.write(7);
  ASSERT_EQ(w.bytes().size(), sizeof(std::uint64_t) + sizeof(int));
  for (std::size_t i = 0; i < sizeof(std::uint64_t); ++i) {
    EXPECT_EQ(w.bytes()[i], 0u);
  }
  ByteReader r(w.bytes());
  EXPECT_TRUE(r.read_vector<float>().empty());
  EXPECT_EQ(r.read<int>(), 7);
  EXPECT_TRUE(r.exhausted());
}

TEST(Messages, SubmodelMsgRoundTrip) {
  SubmodelMsg msg;
  msg.round = 7;
  msg.mask.normal = {1, 2, 3};
  msg.mask.reduce = {4, 5, 6};
  msg.values = {0.5F, -1.0F, 2.0F};
  auto bytes = msg.serialize();
  SubmodelMsg back = SubmodelMsg::deserialize(bytes);
  EXPECT_EQ(back.round, 7);
  EXPECT_EQ(back.mask.normal, msg.mask.normal);
  EXPECT_EQ(back.mask.reduce, msg.mask.reduce);
  EXPECT_EQ(back.values, msg.values);
  EXPECT_EQ(msg.byte_size(), bytes.size());
}

TEST(Messages, UpdateMsgRoundTrip) {
  UpdateMsg msg;
  msg.round = 3;
  msg.participant = 9;
  msg.reward = 0.75F;
  msg.loss = 1.25F;
  msg.mask.normal = {0, 7};
  msg.mask.reduce = {3, 3};
  msg.grads = {1.0F, 2.0F, 3.0F};
  UpdateMsg back = UpdateMsg::deserialize(msg.serialize());
  EXPECT_EQ(back.participant, 9);
  EXPECT_FLOAT_EQ(back.reward, 0.75F);
  EXPECT_EQ(back.grads, msg.grads);
}

TEST(Participant, TrainStepProducesGradsAndReward) {
  Rng rng(1);
  TrainTest tt = tiny_data(rng);
  SupernetConfig cfg = tiny_supernet();
  Rng srv_rng(2);
  Supernet server_net(cfg, srv_rng);
  Mask mask = random_mask(server_net.num_edges(), srv_rng);
  auto ids = server_net.masked_param_ids(mask);

  std::vector<int> idx;
  for (int i = 0; i < 40; ++i) idx.push_back(i);
  AugmentConfig aug;
  SearchParticipant part(0, Shard(&tt.train, idx), cfg, aug, 8, Rng(3));
  SubmodelMsg msg;
  msg.round = 0;
  msg.mask = mask;
  msg.values = server_net.gather_values(ids);
  UpdateMsg upd = part.train_step(msg);
  EXPECT_EQ(upd.participant, 0);
  EXPECT_EQ(upd.grads.size(), msg.values.size());
  EXPECT_GE(upd.reward, 0.0F);
  EXPECT_LE(upd.reward, 1.0F);
  float gnorm = 0.0F;
  for (float g : upd.grads) gnorm += g * g;
  EXPECT_GT(gnorm, 0.0F);
}

TEST(ResNetStyle, ForwardBackwardAndSize) {
  Rng rng(4);
  ResNetStyleConfig cfg;
  cfg.base_channels = 8;
  cfg.stage_blocks = {1, 1};
  ResNetStyle net(cfg, rng);
  EXPECT_GT(net.param_count(), 0u);
  Tensor x = Tensor::randn({2, 3, 8, 8}, rng);
  Tensor logits = net.forward(x, true);
  EXPECT_EQ(logits.dim(1), 10);
  CrossEntropyResult ce = cross_entropy(logits, {0, 1});
  net.backward(ce.grad_logits);
  float gnorm = 0.0F;
  for (Param* p : net.params()) gnorm += p->grad.l2_norm();
  EXPECT_GT(gnorm, 0.0F);
}

TEST(ResNetStyle, TrainsOnToyData) {
  Rng rng(5);
  TrainTest tt = tiny_data(rng);
  ResNetStyleConfig cfg;
  cfg.base_channels = 8;
  cfg.stage_blocks = {1, 1};
  Rng net_rng(6);
  ResNetStyle net(cfg, net_rng);
  Rng train_rng(7);
  RetrainResult res =
      centralized_train(net, tt.train, tt.test, 4, 16,
                        SGD::Options{0.05F, 0.9F, 3e-4F, 5.0F}, nullptr,
                        train_rng, 2);
  EXPECT_GT(res.final_test_accuracy, 0.15);
}

TEST(ResNetStyle, MuchBiggerThanSearchedModels) {
  // The fixed baseline must dominate searched models in parameters,
  // mirroring ResNet152 (58.2M) vs the searched 3.9M in Table IV.
  Rng rng(8);
  ResNetStyleConfig rcfg;  // defaults: 24 base channels, 3 stages
  ResNetStyle resnet(rcfg, rng);
  SupernetConfig scfg = tiny_supernet();
  AlphaTable a(static_cast<std::size_t>(Cell::num_edges(scfg.num_nodes)));
  for (auto& row : a) row.fill(0.0F);
  Genotype g = discretize(a, a, scfg.num_nodes);
  DiscreteNet searched(g, scfg, rng);
  EXPECT_GT(resnet.param_count(), 5 * searched.param_count());
}

TEST(AlphaGrad, SoftmaxJacobianMatchesFiniteDifference) {
  // d loss/d alpha from edge-weight grads must match numeric softmax.
  Rng rng(9);
  AlphaPair alpha = AlphaPair::zeros(1);
  for (auto& v : alpha.normal[0]) v = rng.normal();
  EdgeWeights gw(1);
  for (auto& v : gw[0]) v = rng.normal();
  EdgeWeights gzero(1);
  gzero[0].fill(0.0F);
  AlphaPair ga = alpha_grad_from_edge_grads(alpha, gw, gzero);
  // loss(alpha) = sum_o gw_o * softmax(alpha)_o.
  auto loss = [&](const std::array<float, kNumOps>& row) {
    auto p = alpha_softmax(row);
    double s = 0.0;
    for (int o = 0; o < kNumOps; ++o) {
      s += gw[0][static_cast<std::size_t>(o)] * p[static_cast<std::size_t>(o)];
    }
    return s;
  };
  const float eps = 1e-3F;
  for (int j = 0; j < kNumOps; ++j) {
    auto rp = alpha.normal[0], rm = alpha.normal[0];
    rp[static_cast<std::size_t>(j)] += eps;
    rm[static_cast<std::size_t>(j)] -= eps;
    const double fd = (loss(rp) - loss(rm)) / (2.0 * eps);
    EXPECT_NEAR(ga.normal[0][static_cast<std::size_t>(j)], fd, 1e-3);
  }
}

TEST(FedNas, RunsAndReportsSupernetPayload) {
  Rng rng(10);
  TrainTest tt = tiny_data(rng);
  SupernetConfig cfg = tiny_supernet();
  SearchConfig hyper;
  hyper.supernet = cfg;
  auto parts = iid_partition(tt.train.size(), 3, rng);
  FedNasSearch fednas(cfg, tt.train, parts, hyper);
  GradNasResult res = fednas.run(4, 8);
  EXPECT_EQ(res.round_train_acc.size(), 4u);
  EXPECT_EQ(res.genotype.normal.size(), 4u);
  // FedNAS payload per participant is the whole supernet: much larger
  // than any sub-model.
  Rng srng(11);
  Supernet probe(cfg, srng);
  Mask m = random_mask(probe.num_edges(), srng);
  EXPECT_GT(res.bytes_down_per_participant_round,
            2 * probe.submodel_bytes(m));
}

TEST(Darts, FirstOrderRunsAndDerives) {
  Rng rng(12);
  TrainTest tt = tiny_data(rng, 80, 40);
  SupernetConfig cfg = tiny_supernet();
  SearchConfig hyper;
  hyper.supernet = cfg;
  DartsSearch darts(cfg, tt.train, tt.test, hyper, DartsSearch::Options{});
  GradNasResult res = darts.run(4, 8);
  EXPECT_EQ(res.round_train_acc.size(), 4u);
  EXPECT_EQ(res.genotype.reduce.size(), 4u);
}

TEST(Darts, SecondOrderRuns) {
  Rng rng(13);
  TrainTest tt = tiny_data(rng, 60, 30);
  SupernetConfig cfg = tiny_supernet();
  SearchConfig hyper;
  hyper.supernet = cfg;
  DartsSearch::Options opts;
  opts.second_order = true;
  DartsSearch darts(cfg, tt.train, tt.test, hyper, opts);
  GradNasResult res = darts.run(2, 8);
  EXPECT_EQ(res.round_train_acc.size(), 2u);
}

TEST(Enas, RunsAndLearns) {
  Rng rng(14);
  TrainTest tt = tiny_data(rng);
  SupernetConfig cfg = tiny_supernet();
  SearchConfig hyper;
  hyper.supernet = cfg;
  EnasSearch enas(cfg, tt.train, hyper);
  auto res = enas.run(6, 8, 2);
  EXPECT_EQ(res.step_train_acc.size(), 6u);
  EXPECT_EQ(res.genotype.normal.size(), 4u);
}

TEST(EvoFedNas, GenotypeMutationStaysValid) {
  Rng rng(15);
  for (int trial = 0; trial < 50; ++trial) {
    Genotype g = random_genotype(3, rng);
    Genotype m = mutate_genotype(g, rng);
    ASSERT_EQ(m.normal.size(), 6u);
    for (int node = 0; node < 3; ++node) {
      for (int k = 0; k < 2; ++k) {
        const auto& e = m.normal[static_cast<std::size_t>(2 * node + k)];
        EXPECT_GE(e.input, 0);
        EXPECT_LT(e.input, 2 + node);
        EXPECT_NE(e.op, OpType::kZero);
      }
    }
  }
}

TEST(EvoFedNas, RunsAndEvolves) {
  Rng rng(16);
  TrainTest tt = tiny_data(rng);
  SupernetConfig cfg = tiny_supernet();
  SearchConfig hyper;
  hyper.supernet = cfg;
  auto parts = iid_partition(tt.train.size(), 3, rng);
  EvoFedNasSearch::Options opts;
  opts.population = 4;
  opts.evolve_every = 3;
  opts.nodes = 2;
  EvoFedNasSearch evo(cfg, tt.train, parts, hyper, opts);
  auto res = evo.run(7, 8);
  EXPECT_EQ(res.round_train_acc.size(), 7u);
  EXPECT_EQ(res.best.normal.size(), 4u);
  EXPECT_GT(res.avg_model_bytes, 0.0);
  EXPECT_GT(res.best_param_count, 0u);
}

}  // namespace
}  // namespace fms
