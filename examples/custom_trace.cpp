/**
 * @file
 * Bring-your-own-trace: shows the library's public API for external
 * traces and model persistence.
 *
 *   1. Build a Trace programmatically (or load one saved with
 *      --trace_out back with Trace::load_binary_file; see
 *      src/trace/trace.hpp).
 *   2. Train Voyager on its LLC stream.
 *   3. Save the trained weights, reload them into a fresh model, and
 *      verify the reloaded model predicts identically.
 *
 * Usage: custom_trace [--save=model.bin] [--trace_out=trace.bin]
 */
#include <fstream>
#include <iostream>

#include "core/metrics.hpp"
#include "core/trainer.hpp"
#include "nn/serialize.hpp"
#include "sim/simulator.hpp"
#include "trace/gen/recorder.hpp"
#include "util/config.hpp"
#include "util/random.hpp"
#include "util/stats.hpp"
#include "util/string_util.hpp"

int
main(int argc, char **argv)
{
    using namespace voyager;
    const auto cfg = Config::from_args(argc, argv);

    // 1. A hand-built workload: a linked-list walk interleaved with a
    //    strided scan — the classic mix a real application produces.
    trace::Trace t("custom");
    trace::TraceRecorder rec(t);
    Rng rng(7);
    std::vector<Addr> list_nodes(256);
    for (auto &n : list_nodes)
        n = 0x10000000 + rng.next_below(1 << 20) * 64;
    std::size_t pos = 0;
    for (int i = 0; i < 20000; ++i) {
        rec.load(0x400100, list_nodes[pos]);        // pointer chase
        pos = (pos + 1) % list_nodes.size();
        rec.load(0x400200,
                 0x20000000 + static_cast<Addr>(i % 4096) * 64);
        rec.compute(3);                             // "work"
    }
    std::cout << "built trace: " << t.size() << " accesses\n";

    const auto trace_out = cfg.get_string("trace_out", "");
    if (!trace_out.empty()) {
        t.save_binary_file(trace_out);
        std::cout << "saved trace to " << trace_out << " (reload with "
                  << "Trace::load_binary_file)\n";
    }

    // 2. Train Voyager on the LLC stream.
    const auto sim_cfg = sim::tiny_sim_config();
    const auto stream = sim::extract_llc_stream(t, sim_cfg);
    core::VoyagerConfig vcfg;
    vcfg.learning_rate = 2e-2;
    core::VoyagerAdapter voyager(vcfg, stream);
    core::OnlineTrainConfig train;
    train.train_passes = 6;
    train.cumulative = true;
    train.max_train_samples_per_epoch = 5000;
    const auto res = core::train_online(voyager, stream.size(), train);
    const auto metric = core::unified_accuracy_coverage(
        stream, res.predictions, res.first_predicted_index, 32);
    std::cout << "unified accuracy/coverage: " << pct(metric.value())
              << "\n";

    // 3. Persist the weights and verify a round trip.
    const auto path = cfg.get_string("save", "voyager_model.bin");
    {
        std::ofstream os(path, std::ios::binary);
        std::vector<const nn::Matrix *> weights;
        for (auto *w : voyager.model().weights())
            weights.push_back(w);
        nn::save_params(os, weights);
    }
    core::VoyagerAdapter reloaded(vcfg, stream);
    {
        std::ifstream is(path, std::ios::binary);
        nn::load_params(is, reloaded.model().weights());
    }
    std::vector<std::size_t> probe;
    for (std::size_t i = stream.size() / 2;
         i < stream.size() / 2 + 64 && i < stream.size(); ++i)
        probe.push_back(i);
    const auto a = voyager.predict_on(probe, 1);
    const auto b = reloaded.predict_on(probe, 1);
    std::size_t same = 0;
    for (std::size_t i = 0; i < probe.size(); ++i)
        same += a[i] == b[i];
    std::cout << "model saved to " << path << "; reloaded predictions "
              << same << "/" << probe.size() << " identical\n";
    return same == probe.size() ? 0 : 1;
}
