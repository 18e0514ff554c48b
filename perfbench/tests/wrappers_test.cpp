/**
 * The benchmark's wrappers must not change any output: a wrapped
 * predictor, model or prefetcher returns exactly what the unwrapped
 * one does, while recording spans.
 */
#include <gtest/gtest.h>

#include <memory>

#include "prefetch/registry.hpp"
#include "serve/batcher.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "sim/simulator.hpp"
#include "harness.hpp"
#include "trace/gen/workloads.hpp"
#include "workloads.hpp"
#include "wrappers.hpp"

namespace perfbench {
namespace {

using namespace voyager;

/** The benchmark's scaled profile, shrunk further for a unit test. */
core::VoyagerConfig
tiny_config()
{
    core::VoyagerConfig c = harness::scaled_voyager_config();
    c.seq_len = 4;
    c.pc_embed_dim = 4;
    c.page_embed_dim = 8;
    c.num_experts = 2;
    c.lstm_units = 16;
    c.batch_size = 32;
    c.seed = 5;
    return c;
}

core::OnlineTrainConfig
tiny_schedule()
{
    core::OnlineTrainConfig tc;
    tc.epochs = 2;
    tc.degree = 2;
    tc.max_train_samples_per_epoch = 300;
    tc.cumulative = true;
    return tc;
}

class WrapperTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        trace_ = std::make_unique<trace::Trace>(
            trace::gen::make_workload("bfs", trace::gen::Scale::Tiny, 1));
        auto s = sim::extract_llc_stream(*trace_, sim::tiny_sim_config());
        s.resize(std::min<std::size_t>(s.size(), 1500));
        stream_ = new std::vector<core::LlcAccess>(std::move(s));
        adapter_ = new core::VoyagerAdapter(tiny_config(), *stream_);
        core::train_online(*adapter_, 600, tiny_schedule());
    }

    static void
    TearDownTestSuite()
    {
        delete adapter_;
        delete stream_;
        trace_.reset();
    }

    static std::unique_ptr<trace::Trace> trace_;
    static std::vector<core::LlcAccess> *stream_;
    static core::VoyagerAdapter *adapter_;
};

std::unique_ptr<trace::Trace> WrapperTest::trace_;
std::vector<core::LlcAccess> *WrapperTest::stream_ = nullptr;
core::VoyagerAdapter *WrapperTest::adapter_ = nullptr;

TEST_F(WrapperTest, PredictorForwardsUnchanged)
{
    serve::AdapterPredictor plain(*adapter_);
    SpanRecorder rec;
    TracedPredictor traced(plain, &rec, "core.predict_tokens", true);

    serve::SimulatedClient client(0, *stream_, adapter_->vocab(),
                                  plain.seq_len(), 2);
    std::vector<serve::PrefetchRequest> reqs;
    for (int i = 0; i < 12; ++i)
        reqs.push_back(client.next_request());
    core::VoyagerBatch batch;
    serve::MicroBatcher(plain.seq_len()).pack(reqs, batch);

    // The wrapper charges decode calls to the enclosing span.
    const auto phase = rec.open("phase");
    const auto want = plain.predict_tokens(batch, 4);
    const auto got = traced.predict_tokens_for(
        batch, 4, std::vector<std::uint32_t>(reqs.size(), 0));
    ASSERT_EQ(want.size(), got.size());
    for (std::size_t r = 0; r < want.size(); ++r) {
        ASSERT_EQ(want[r].size(), got[r].size());
        for (std::size_t j = 0; j < want[r].size(); ++j) {
            EXPECT_EQ(want[r][j].page, got[r][j].page);
            EXPECT_EQ(want[r][j].offset, got[r][j].offset);
            EXPECT_EQ(want[r][j].prob, got[r][j].prob);
            EXPECT_EQ(plain.decode(want[r][j].page, want[r][j].offset,
                                   reqs[r].prev_line),
                      traced.decode(got[r][j].page, got[r][j].offset,
                                    reqs[r].prev_line));
        }
    }
    rec.close(phase);
    EXPECT_EQ(traced.engine(), plain.engine());
    EXPECT_EQ(traced.totals().calls, 1u);
    EXPECT_EQ(traced.totals().items, reqs.size());
    const auto t = rec.totals();
    EXPECT_EQ(t.at("core.predict_tokens").calls, 1u);
    EXPECT_GT(t.at("serve.decode").calls, 0u);
}

TEST_F(WrapperTest, ServedLinesMatchThroughTheServer)
{
    const auto slices = tenant_slices(*stream_, 600, 2, 200);
    const auto serve_all = [&](serve::TokenPredictor &pred) {
        serve::PrefetchServer server(pred);
        std::vector<serve::SimulatedClient> clients;
        for (std::uint32_t t = 0; t < slices.size(); ++t)
            clients.emplace_back(t, slices[t], adapter_->vocab(),
                                 pred.seq_len(), 2);
        serve::run_interleaved(server, clients, 3);
        std::vector<std::vector<Addr>> lines;
        for (const auto &c : clients)
            for (const auto &r : c.responses())
                lines.push_back(r.lines);
        return lines;
    };
    serve::AdapterPredictor plain(*adapter_);
    SpanRecorder rec;
    TracedPredictor traced(plain, &rec, "core.predict_tokens", true);
    std::vector<std::vector<Addr>> got;
    {
        ScopedSpan phase(&rec, "phase");
        got = serve_all(traced);
    }
    EXPECT_EQ(serve_all(plain), got);
}

TEST_F(WrapperTest, ModelTrainsAndPredictsIdentically)
{
    core::VoyagerAdapter a(tiny_config(), *stream_);
    core::VoyagerAdapter b(tiny_config(), *stream_);
    SpanRecorder rec;
    TracedModel traced(b, &rec);
    const auto want = core::train_online(a, 600, tiny_schedule());
    const auto got = core::train_online(traced, 600, tiny_schedule());
    EXPECT_EQ(want.predictions, got.predictions);
    EXPECT_EQ(want.epoch_losses, got.epoch_losses);
    EXPECT_EQ(traced.train_totals().items, got.trained_samples);
    EXPECT_EQ(traced.predict_totals().items, got.predicted_samples);
    EXPECT_GT(rec.totals().at("core.train_on").calls, 0u);
}

TEST_F(WrapperTest, PrefetcherSimulatesIdentically)
{
    const auto cfg = sim::tiny_sim_config();
    auto plain = prefetch::make_prefetcher("isb+bo", 2);
    auto inner = prefetch::make_prefetcher("isb+bo", 2);
    SpanRecorder rec;
    TracedPrefetcher traced(*inner, rec, "isb_bo");
    const auto want = sim::simulate(*trace_, cfg, *plain);
    sim::SimResult got;
    {
        ScopedSpan s(&rec, "sim.simulate");
        got = sim::simulate(*trace_, cfg, traced);
    }
    EXPECT_EQ(want.cycles, got.cycles);
    EXPECT_EQ(want.instructions, got.instructions);
    EXPECT_EQ(want.prefetches_issued, got.prefetches_issued);
    EXPECT_EQ(want.prefetches_useful, got.prefetches_useful);
    EXPECT_EQ(want.llc_misses, got.llc_misses);
    EXPECT_EQ(traced.name(), plain->name());
    EXPECT_EQ(rec.totals().at("prefetch.isb_bo.on_access").calls,
              got.llc_accesses);
}

}  // namespace
}  // namespace perfbench
