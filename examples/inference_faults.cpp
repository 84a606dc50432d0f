// Inference-time fault study: train a model on ideal hardware, then deploy
// it onto progressively faultier crossbars and measure inference accuracy.
//
// Context for the paper's related work ([7], [17]): inference only
// exercises the forward crossbars, so it inherits the forward phase's
// fault tolerance — accuracy degrades far more gently than training
// does (compare Fig. 5's backward collapse).
//
// Usage: inference_faults [model]

#include <cstdio>

#include "trainer/scenarios.hpp"

int main(int argc, char** argv) {
  using namespace remapd;
  const std::string model_name = argc > 1 ? argv[1] : "resnet12";

  // 1. Train to convergence on ideal hardware.
  const TrainerConfig cfg =
      make_bench_config({.model = model_name, .fault_model = "ideal"});
  FaultAwareTrainer trainer(cfg);
  const TrainResult r = trainer.run();
  std::printf("== inference-time faults on a trained %s ==\n\n",
              model_name.c_str());
  std::printf("trained accuracy on ideal hardware: %.3f\n\n",
              r.final_test_accuracy);

  // 2. Deploy onto faulty forward crossbars of increasing density and
  //    re-evaluate. Weights stay fixed: this is pure inference.
  SynthSpec spec = cfg.data;
  spec.seed = cfg.seed;
  const TrainTest data = make_synthetic(spec);
  Model& model = trainer.model();
  auto layers = model.faultable();

  std::printf("%12s %12s\n", "density", "accuracy");
  Rng rng(7);
  for (double density : {0.0, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05}) {
    // Fresh fault pattern per density level on a dedicated RCS sized for
    // the model's forward + backward blocks.
    std::vector<std::pair<std::size_t, std::size_t>> dims;
    std::size_t blocks = 0;
    for (FaultableLayer* l : layers) {
      dims.emplace_back(l->weight_rows(), l->weight_cols());
      blocks += 2 * ((l->weight_rows() + 31) / 32) *
                ((l->weight_cols() + 31) / 32);
    }
    Rcs rcs(RcsConfig::sized_for(blocks, 32, 32));
    WeightMapper mapper(rcs);
    mapper.map_layers(dims);
    for (XbarId x = 0; x < rcs.total_crossbars(); ++x)
      rcs.crossbar(x).inject_random_faults(
          static_cast<std::size_t>(density * 32 * 32), 0.9, rng);

    for (std::size_t l = 0; l < layers.size(); ++l) {
      const float w_max =
          std::max(0.05f, layers[l]->weight_param().value.abs_max());
      layers[l]->set_fault_views(
          mapper.build_fault_view(l, Phase::kForward, w_max), FaultView{});
    }
    const double acc = evaluate_accuracy(model, data.test);
    std::printf("%11.1f%% %12.3f\n", 100.0 * density, acc);
  }
  for (FaultableLayer* l : layers) l->clear_fault_views();

  std::printf("\nnote the contrast with training-time forward faults "
              "(Fig. 5): a model *trained on* faulty\nforward crossbars "
              "adapts around the stuck weights and stays near-ideal at 2%% "
              "density,\nbut a model trained elsewhere and *deployed onto* "
              "faults cannot adapt — the motivation\nfor inference-time "
              "mitigation in [7], [17].\n");
  return 0;
}
