/**
 * @file
 * Micro-benchmarks of the NN substrate (google-benchmark): GEMM,
 * LSTM step, a whole model predict and training step, Adam, MoE
 * attention, embedding gather, the ranking head, BCE loss — the kernels
 * whose costs drive §5.4's training/inference overhead numbers.
 */
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/model.hpp"
#include "core/qmodel.hpp"
#include "nn/adam.hpp"
#include "nn/attention.hpp"
#include "nn/hierarchical_softmax.hpp"
#include "nn/layers.hpp"
#include "nn/loss.hpp"
#include "nn/lstm.hpp"
#include "nn/ops.hpp"
#include "nn/qmatrix.hpp"
#include "nn/qops.hpp"
#include "util/random.hpp"
#include "util/stat_registry.hpp"

namespace {

using namespace voyager;
using nn::Matrix;

void
BM_GemmNn(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    Rng rng(1);
    Matrix a(n, n);
    Matrix b(n, n);
    Matrix c(n, n);
    nn::uniform_init(a, 1.0f, rng);
    nn::uniform_init(b, 1.0f, rng);
    for (auto _ : state) {
        c.zero();
        nn::gemm_nn(a, b, c);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_GemmNn)->Arg(32)->Arg(64)->Arg(128);

// ---------------------------------------------------------------------
// Microkernel vs seed-naive reference at Voyager shapes: (m, k, n) =
// (batch, input/hidden, 4*hidden or head width) with batch <= 32 and
// hidden 128-256 — the GEMMs every training step issues. items/s is
// FLOP/s; divide a *Voyager rate by its *RefVoyager twin for the
// speedup.
// ---------------------------------------------------------------------

void
GemmVoyagerShapes(benchmark::internal::Benchmark *b)
{
    b->Args({32, 128, 512})
        ->Args({32, 256, 1024})
        ->Args({16, 256, 1024})
        ->Args({8, 128, 512});
}

template <void (*Gemm)(const Matrix &, const Matrix &, Matrix &)>
void
BM_GemmNnShaped(benchmark::State &state)
{
    const auto m = static_cast<std::size_t>(state.range(0));
    const auto k = static_cast<std::size_t>(state.range(1));
    const auto n = static_cast<std::size_t>(state.range(2));
    Rng rng(11);
    Matrix a(m, k);
    Matrix b(k, n);
    Matrix c(m, n);
    nn::uniform_init(a, 1.0f, rng);
    nn::uniform_init(b, 1.0f, rng);
    for (auto _ : state) {
        c.zero();
        Gemm(a, b, c);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * 2 * m * k * n);
}
BENCHMARK(BM_GemmNnShaped<nn::gemm_nn>)
    ->Name("BM_GemmNnVoyager")
    ->Apply(GemmVoyagerShapes);
BENCHMARK(BM_GemmNnShaped<nn::gemm_nn_ref>)
    ->Name("BM_GemmNnRefVoyager")
    ->Apply(GemmVoyagerShapes);

template <void (*Gemm)(const Matrix &, const Matrix &, Matrix &)>
void
BM_GemmTnShaped(benchmark::State &state)
{
    const auto m = static_cast<std::size_t>(state.range(0));
    const auto k = static_cast<std::size_t>(state.range(1));
    const auto n = static_cast<std::size_t>(state.range(2));
    Rng rng(12);
    Matrix a(k, m);  // transposed operand, as in weight gradients
    Matrix b(k, n);
    Matrix c(m, n);
    nn::uniform_init(a, 1.0f, rng);
    nn::uniform_init(b, 1.0f, rng);
    for (auto _ : state) {
        c.zero();
        Gemm(a, b, c);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * 2 * m * k * n);
}
BENCHMARK(BM_GemmTnShaped<nn::gemm_tn>)
    ->Name("BM_GemmTnVoyager")
    ->Apply(GemmVoyagerShapes);
BENCHMARK(BM_GemmTnShaped<nn::gemm_tn_ref>)
    ->Name("BM_GemmTnRefVoyager")
    ->Apply(GemmVoyagerShapes);

template <void (*Gemm)(const Matrix &, const Matrix &, Matrix &)>
void
BM_GemmNtShaped(benchmark::State &state)
{
    const auto m = static_cast<std::size_t>(state.range(0));
    const auto k = static_cast<std::size_t>(state.range(1));
    const auto n = static_cast<std::size_t>(state.range(2));
    Rng rng(13);
    Matrix a(m, k);
    Matrix b(n, k);  // transposed operand, as in input gradients
    Matrix c(m, n);
    nn::uniform_init(a, 1.0f, rng);
    nn::uniform_init(b, 1.0f, rng);
    for (auto _ : state) {
        c.zero();
        Gemm(a, b, c);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * 2 * m * k * n);
}
BENCHMARK(BM_GemmNtShaped<nn::gemm_nt>)
    ->Name("BM_GemmNtVoyager")
    ->Apply(GemmVoyagerShapes);
BENCHMARK(BM_GemmNtShaped<nn::gemm_nt_ref>)
    ->Name("BM_GemmNtRefVoyager")
    ->Apply(GemmVoyagerShapes);

// The input-gradient GEMMs of Lstm::backward at the training shape
// (batch 64, 4 * 64 gate columns): dz Wx^T (n = in_dim 72) and dz Wh^T
// (n = 64). BM_GemmNnShaped reads the once-per-backward transposed
// weights in place; BM_GemmNtShaped is the per-step gemm_nt on the
// untransposed weights it replaced (same bits). items/s is FLOP/s.
void
GemmLstmBackwardShapes(benchmark::internal::Benchmark *b)
{
    b->Args({64, 256, 72})->Args({64, 256, 64});
}
BENCHMARK(BM_GemmNnShaped<nn::gemm_nn>)
    ->Name("BM_GemmNnShaped")
    ->Apply(GemmLstmBackwardShapes);
BENCHMARK(BM_GemmNtShaped<nn::gemm_nt>)
    ->Name("BM_GemmNtShaped")
    ->Apply(GemmLstmBackwardShapes);

// The recurrent h * Wh GEMM of an inference step at the serving shape
// (k = lstm_units 64, n = 4 * 64): rows 1 is the batch-1 predict on
// the one-row tile, 8 a full MR-row tile. items/s is FLOP/s.
void
BM_GemmNnRows(benchmark::State &state)
{
    const auto m = static_cast<std::size_t>(state.range(0));
    const std::size_t k = 64;
    const std::size_t n = 256;
    Rng rng(15);
    Matrix a(m, k);
    Matrix b(k, n);
    Matrix c(m, n);
    nn::uniform_init(a, 1.0f, rng);
    nn::uniform_init(b, 1.0f, rng);
    for (auto _ : state) {
        c.zero();
        nn::gemm_nn(a, b, c);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * 2 * m * k * n);
}
BENCHMARK(BM_GemmNnRows)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// ---------------------------------------------------------------------
// Int8 qgemm vs fp32 at inference shapes (DESIGN.md §5.13). The first
// two arg sets are the Voyager head (batch x lstm_units -> vocab),
// the acceptance shape for the >= 2x int8 speedup; the rest mirror
// the LSTM-gate shapes above. BM_QgemmNtVoyager measures the whole
// int8 call as deployed — dynamic activation quantization included —
// and BM_GemmNnHeadFp32 is the packed fp32 kernel at identical
// (m, k, n); divide the items/s for the speedup. BM_QgemmNtRefVoyager
// is the naive reference baseline.
// ---------------------------------------------------------------------

void
QgemmVoyagerShapes(benchmark::internal::Benchmark *b)
{
    b->Args({64, 64, 1024})
        ->Args({64, 64, 16384})
        ->Args({32, 128, 512})
        ->Args({32, 256, 1024});
}

template <void (*Qgemm)(const nn::QActivations &, const nn::QMatrix &,
                        Matrix &)>
void
BM_QgemmNtShaped(benchmark::State &state)
{
    const auto m = static_cast<std::size_t>(state.range(0));
    const auto k = static_cast<std::size_t>(state.range(1));
    const auto n = static_cast<std::size_t>(state.range(2));
    Rng rng(14);
    Matrix x(m, k);
    Matrix w(n, k);
    Matrix c(m, n);
    nn::uniform_init(x, 1.0f, rng);
    nn::uniform_init(w, 1.0f, rng);
    const nn::QMatrix qw = nn::QMatrix::quantize(w, /*transpose=*/false);
    qw.pack();
    nn::QActivations qa;
    for (auto _ : state) {
        nn::quantize_activations(x, qa);
        c.zero();
        Qgemm(qa, qw, c);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * 2 * m * k * n);
}
BENCHMARK(BM_QgemmNtShaped<nn::qgemm_nt>)
    ->Name("BM_QgemmNtVoyager")
    ->Apply(QgemmVoyagerShapes);
BENCHMARK(BM_QgemmNtShaped<nn::qgemm_nt_ref>)
    ->Name("BM_QgemmNtRefVoyager")
    ->Apply(QgemmVoyagerShapes);
BENCHMARK(BM_GemmNnShaped<nn::gemm_nn>)
    ->Name("BM_GemmNnHeadFp32")
    ->Apply(QgemmVoyagerShapes);

// The activation quantizer alone, at the int8 engine's shapes: one
// LSTM input row of the scaled model (1x64), a batch-8 input
// projection (8x72) and a 64-row batch (64x64). items/s is floats.
void
BM_QuantizeActivations(benchmark::State &state, std::size_t m,
                       std::size_t k)
{
    Rng rng(15);
    Matrix x(m, k);
    nn::uniform_init(x, 1.0f, rng);
    nn::QActivations qa;
    for (auto _ : state) {
        nn::quantize_activations(x, qa);
        benchmark::DoNotOptimize(qa.q.data());
    }
    state.SetItemsProcessed(state.iterations() * m * k);
}
BENCHMARK_CAPTURE(BM_QuantizeActivations, 1x64, 1, 64);
BENCHMARK_CAPTURE(BM_QuantizeActivations, 8x72, 8, 72);
BENCHMARK_CAPTURE(BM_QuantizeActivations, 64x64, 64, 64);

void
BM_LstmForward(benchmark::State &state)
{
    const auto hidden = static_cast<std::size_t>(state.range(0));
    const std::size_t batch = 64;
    const std::size_t T = 16;
    Rng rng(2);
    nn::Lstm lstm(hidden, hidden, rng);
    std::vector<Matrix> xs(T, Matrix(batch, hidden));
    for (auto &x : xs)
        nn::uniform_init(x, 1.0f, rng);
    Matrix h;
    for (auto _ : state) {
        lstm.forward(xs, h);
        benchmark::DoNotOptimize(h.data());
    }
    state.SetItemsProcessed(state.iterations() * batch * T);
}
BENCHMARK(BM_LstmForward)->Arg(32)->Arg(64)->Arg(256);

void
BM_LstmBackward(benchmark::State &state)
{
    const auto hidden = static_cast<std::size_t>(state.range(0));
    const std::size_t batch = 64;
    const std::size_t T = 16;
    Rng rng(3);
    nn::Lstm lstm(hidden, hidden, rng);
    std::vector<Matrix> xs(T, Matrix(batch, hidden));
    for (auto &x : xs)
        nn::uniform_init(x, 1.0f, rng);
    Matrix h;
    lstm.forward(xs, h);
    Matrix dh(batch, hidden, 0.01f);
    std::vector<Matrix> dxs;
    for (auto _ : state) {
        lstm.backward(dh, dxs);
        benchmark::DoNotOptimize(dxs.data());
    }
    state.SetItemsProcessed(state.iterations() * batch * T);
}
BENCHMARK(BM_LstmBackward)->Arg(32)->Arg(64);

// One fused gate pass over a (rows, 4*hidden) gate matrix at the
// serving shape (max_batch 8, hidden 64): the vectorised kernel vs
// its libm reference. Each iteration restores the pre-activations
// (the pass overwrites them), in both twins alike. items/s is gate
// elements (rows * hidden).
template <void (*Gate)(float *, const float *, const float *, float *,
                       float *, std::size_t)>
void
BM_LstmGateRowShaped(benchmark::State &state)
{
    const std::size_t rows = 8;
    const std::size_t hidden = 64;
    Rng rng(5);
    Matrix pre(rows, 4 * hidden);
    Matrix bias(1, 4 * hidden);
    Matrix c_prev(rows, hidden);
    nn::uniform_init(pre, 4.0f, rng);
    nn::uniform_init(bias, 1.0f, rng);
    nn::uniform_init(c_prev, 1.0f, rng);
    Matrix z = pre;
    Matrix c(rows, hidden);
    Matrix h(rows, hidden);
    for (auto _ : state) {
        std::copy(pre.data(), pre.data() + pre.size(), z.data());
        for (std::size_t r = 0; r < rows; ++r)
            Gate(z.row(r), bias.data(), c_prev.row(r), c.row(r),
                 h.row(r), hidden);
        benchmark::DoNotOptimize(h.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * rows * hidden);
}
BENCHMARK(BM_LstmGateRowShaped<nn::lstm_gate_row>)
    ->Name("BM_LstmGateRow");
BENCHMARK(BM_LstmGateRowShaped<nn::lstm_gate_row_ref>)
    ->Name("BM_LstmGateRowRef");

// The repository benchmark's scaled model (seq 8, pc 8, page 32, 4
// experts, 64 units) over xalancbmk's vocabulary (276 page tokens).
constexpr std::int32_t kScaledPcs = 64;
constexpr std::int32_t kScaledPages = 276;
constexpr std::int32_t kScaledOffsets = 64;

core::VoyagerConfig
scaled_voyager_config()
{
    core::VoyagerConfig cfg;
    cfg.seq_len = 8;
    cfg.pc_embed_dim = 8;
    cfg.page_embed_dim = 32;
    cfg.num_experts = 4;
    cfg.lstm_units = 64;
    return cfg;
}

std::int32_t
draw(Rng &rng, std::int32_t bound)
{
    return static_cast<std::int32_t>(
        rng.next_below(static_cast<std::uint64_t>(bound)));
}

/**
 * `batch` consecutive windows of one random tenant stream over the
 * scaled model's vocabulary: each shares seq - 1 timesteps with its
 * neighbour.
 */
core::VoyagerBatch
scaled_predict_batch(const core::VoyagerConfig &cfg, std::size_t batch)
{
    Rng rng(16);
    std::vector<std::int32_t> pc(batch + cfg.seq_len);
    std::vector<std::int32_t> page(pc.size());
    std::vector<std::int32_t> offset(pc.size());
    for (std::size_t i = 0; i < pc.size(); ++i) {
        pc[i] = draw(rng, kScaledPcs);
        page[i] = draw(rng, kScaledPages);
        offset[i] = draw(rng, kScaledOffsets);
    }
    core::VoyagerBatch b;
    b.batch = batch;
    b.seq = cfg.seq_len;
    for (std::size_t s = 0; s < batch; ++s) {
        for (std::size_t t = 0; t < cfg.seq_len; ++t) {
            b.pc.push_back(pc[s + t]);
            b.page.push_back(page[s + t]);
            b.offset.push_back(offset[s + t]);
        }
    }
    return b;
}

// A whole VoyagerModel::predict on the scaled model: embedding,
// attention, projection, recurrence, heads and ranking. Batch 1 is
// one prefetch decision; batch 8 holds one tenant's consecutive
// windows, which share 7 of 8 timesteps with their neighbours.
// items/s is predictions.
void
BM_LstmVoyagerPredict(benchmark::State &state)
{
    const auto batch = static_cast<std::size_t>(state.range(0));
    const core::VoyagerConfig cfg = scaled_voyager_config();
    core::VoyagerModel model(cfg, kScaledPcs, kScaledPages,
                             kScaledOffsets);
    const core::VoyagerBatch b = scaled_predict_batch(cfg, batch);
    for (auto _ : state) {
        const auto preds = model.predict(b, 3);
        benchmark::DoNotOptimize(preds.data());
    }
    state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_LstmVoyagerPredict)->Arg(1)->Arg(8);

// BM_LstmVoyagerPredict on the int8 engine: the same model and
// batches through QuantizedVoyagerModel::predict, the distilled
// rung's fallback.
void
BM_QuantizedPredict(benchmark::State &state)
{
    const auto batch = static_cast<std::size_t>(state.range(0));
    const core::VoyagerConfig cfg = scaled_voyager_config();
    const core::VoyagerModel model(cfg, kScaledPcs, kScaledPages,
                                   kScaledOffsets);
    core::QuantizedVoyagerModel qmodel(model);
    const core::VoyagerBatch b = scaled_predict_batch(cfg, batch);
    for (auto _ : state) {
        const auto preds = qmodel.predict(b, 3);
        benchmark::DoNotOptimize(preds.data());
    }
    state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_QuantizedPredict)->Arg(1)->Arg(8);

// One VoyagerModel::train_step on the scaled model at the repository
// benchmark's train_online settings (learning rate 3e-2, dropout
// keep 0.9): forward, loss, backward through the heads, both LSTMs
// and the attention, then Adam. Iterations cycle over 16 seeded
// batches of random windows, each sample labelled with one or two
// (page, offset) pairs drawn from the whole vocabulary. items/s is
// training samples.
void
BM_TrainStep(benchmark::State &state)
{
    const auto batch = static_cast<std::size_t>(state.range(0));
    core::VoyagerConfig cfg = scaled_voyager_config();
    cfg.batch_size = batch;
    cfg.learning_rate = 3e-2;
    cfg.dropout_keep = 0.9f;
    core::VoyagerModel model(cfg, kScaledPcs, kScaledPages,
                             kScaledOffsets);
    Rng rng(17);
    std::vector<core::VoyagerBatch> batches(16);
    for (core::VoyagerBatch &b : batches) {
        b.batch = batch;
        b.seq = cfg.seq_len;
        for (std::size_t i = 0; i < batch * cfg.seq_len; ++i) {
            b.pc.push_back(draw(rng, kScaledPcs));
            b.page.push_back(draw(rng, kScaledPages));
            b.offset.push_back(draw(rng, kScaledOffsets));
        }
        b.labels.resize(batch);
        for (auto &labels : b.labels) {
            const std::size_t n = 1 + rng.next_below(2);
            for (std::size_t l = 0; l < n; ++l)
                labels.push_back({draw(rng, kScaledPages),
                                  draw(rng, kScaledOffsets)});
        }
    }
    std::size_t next = 0;
    for (auto _ : state) {
        const double loss = model.train_step(batches[next]);
        benchmark::DoNotOptimize(loss);
        next = (next + 1) % batches.size();
    }
    state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_TrainStep)->Arg(64);

// One Adam::step over the scaled model's dense parameters (both
// LSTMs' wx, wh and bias and both heads; 92k floats) with the default
// clip on. Adam::step zeroes the gradients, so each iteration first
// copies fixed ones back in: a memcpy-speed pass beside the update's
// norm, sqrt and divide. items/s is parameters updated.
void
BM_AdamStep(benchmark::State &state)
{
    const std::size_t in = 72;
    const std::size_t units = 64;
    const std::size_t shapes[][2] = {
        {in, 4 * units},    {units, 4 * units}, {1, 4 * units},
        {in, 4 * units},    {units, 4 * units}, {1, 4 * units},
        {units, kScaledPages}, {1, kScaledPages},
        {units, kScaledOffsets}, {1, kScaledOffsets}};
    std::vector<nn::Param> params;
    std::vector<Matrix> grads;
    Rng rng(18);
    for (const auto &shape : shapes) {
        params.emplace_back(shape[0], shape[1]);
        grads.emplace_back(shape[0], shape[1]);
        nn::uniform_init(params.back().value, 0.1f, rng);
        nn::uniform_init(grads.back(), 0.1f, rng);
    }
    nn::Adam opt;
    std::size_t count = 0;
    for (nn::Param &p : params) {
        opt.add_param(&p);
        count += p.size();
    }
    for (auto _ : state) {
        for (std::size_t i = 0; i < params.size(); ++i)
            std::copy(grads[i].data(), grads[i].data() + grads[i].size(),
                      params[i].grad.data());
        opt.step();
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * count);
}
BENCHMARK(BM_AdamStep);

void
BM_MoeAttention(benchmark::State &state)
{
    const auto experts = static_cast<std::size_t>(state.range(0));
    const std::size_t batch = 64;
    const std::size_t d = 32;
    Rng rng(4);
    nn::MoeAttention attn(experts);
    Matrix page(batch, d);
    Matrix offset(batch, experts * d);
    nn::uniform_init(page, 1.0f, rng);
    nn::uniform_init(offset, 1.0f, rng);
    Matrix out;
    for (auto _ : state) {
        attn.forward(page, offset, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_MoeAttention)->Arg(4)->Arg(10)->Arg(100);

void
BM_EmbeddingGather(benchmark::State &state)
{
    const auto vocab = static_cast<std::size_t>(state.range(0));
    Rng rng(5);
    nn::Embedding emb(vocab, 64, rng);
    std::vector<std::int32_t> ids(256);
    for (auto &id : ids)
        id = static_cast<std::int32_t>(rng.next_below(vocab));
    Matrix out;
    for (auto _ : state) {
        emb.forward(ids, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * ids.size());
}
BENCHMARK(BM_EmbeddingGather)->Arg(1024)->Arg(65536);

// core::rank_token_predictions (the fused ranking head, DESIGN.md
// §5.26) on Gaussian logits, CE heads: rows x page vocabulary x offset
// vocabulary, top k. 64x276x64_k3 is the repository benchmark's
// train_online predict batch, 8x23x64_k4 a serve_fp32 batch, and
// 1x276x64_k3 one batch-1 prediction. items/s is rows ranked.
void
BM_RankTokenPredictions(benchmark::State &state, std::size_t rows,
                        std::size_t pages, std::size_t offsets,
                        std::size_t k)
{
    Rng rng(9);
    Matrix pl(rows, pages);
    Matrix ol(rows, offsets);
    for (std::size_t i = 0; i < pl.size(); ++i)
        pl.data()[i] = static_cast<float>(rng.next_gaussian());
    for (std::size_t i = 0; i < ol.size(); ++i)
        ol.data()[i] = static_cast<float>(rng.next_gaussian());
    for (auto _ : state) {
        const auto ranked = core::rank_token_predictions(pl, ol, false, k);
        benchmark::DoNotOptimize(ranked.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(rows));
}
BENCHMARK_CAPTURE(BM_RankTokenPredictions, 64x276x64_k3, 64, 276, 64, 3);
BENCHMARK_CAPTURE(BM_RankTokenPredictions, 8x23x64_k4, 8, 23, 64, 4);
BENCHMARK_CAPTURE(BM_RankTokenPredictions, 1x276x64_k3, 1, 276, 64, 3);

void
BM_BceLoss(benchmark::State &state)
{
    const auto classes = static_cast<std::size_t>(state.range(0));
    Rng rng(6);
    Matrix logits(64, classes);
    nn::uniform_init(logits, 1.0f, rng);
    std::vector<std::vector<std::int32_t>> labels(64);
    for (auto &l : labels)
        l = {static_cast<std::int32_t>(rng.next_below(classes))};
    Matrix dl;
    for (auto _ : state) {
        const double loss = nn::bce_multilabel_loss(logits, labels, dl);
        benchmark::DoNotOptimize(loss);
    }
    state.SetItemsProcessed(state.iterations() * 64 * classes);
}
BENCHMARK(BM_BceLoss)->Arg(191)->Arg(4096);

void
BM_FlatSoftmaxHead(benchmark::State &state)
{
    const auto classes = static_cast<std::size_t>(state.range(0));
    const std::size_t in = 64;
    Rng rng(7);
    nn::Linear head(in, classes, rng);
    Matrix x(64, in);
    nn::uniform_init(x, 1.0f, rng);
    std::vector<std::int32_t> targets(64);
    for (auto &t : targets)
        t = static_cast<std::int32_t>(rng.next_below(classes));
    Matrix y;
    Matrix dl;
    Matrix dx;
    for (auto _ : state) {
        head.forward(x, y);
        nn::softmax_ce_loss(y, targets, dl);
        head.backward(dl, dx);
        benchmark::DoNotOptimize(dx.data());
    }
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_FlatSoftmaxHead)->Arg(1024)->Arg(16384);

void
BM_HierarchicalSoftmaxHead(benchmark::State &state)
{
    // The paper's §5.5 estimate: hierarchical softmax cuts the output
    // head's train cost 3-4x. Compare against BM_FlatSoftmaxHead.
    const auto classes = static_cast<std::size_t>(state.range(0));
    const std::size_t in = 64;
    Rng rng(8);
    nn::HierarchicalSoftmax head(in, classes, rng);
    Matrix x(64, in);
    nn::uniform_init(x, 1.0f, rng);
    std::vector<std::int32_t> targets(64);
    for (auto &t : targets)
        t = static_cast<std::int32_t>(rng.next_below(classes));
    Matrix dx;
    for (auto _ : state) {
        const double loss = head.loss_and_grad(x, targets, dx);
        benchmark::DoNotOptimize(loss);
    }
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_HierarchicalSoftmaxHead)->Arg(1024)->Arg(16384);

/**
 * Dump the nn::op_stats() counters accumulated across every benchmark
 * that ran. "work" is FLOPs for GEMM and processed elements for the
 * pointwise classes; "rate" is work/seconds. This is the baseline
 * future perf PRs diff against (see README "Reading the op counters").
 */
void
report_op_stats()
{
    const auto &s = voyager::nn::op_stats();
    struct Row
    {
        const char *name;
        const voyager::nn::OpClassStats &c;
    };
    const Row rows[] = {
        {"gemm", s.gemm},
        {"qgemm", s.qgemm},
        {"lstm_gate", s.lstm_gate},
        {"attention", s.attention},
    };
    std::printf("\nop-class counters (whole run)\n");
    std::printf("%-10s %12s %16s %12s %14s\n", "class", "calls",
                "work", "seconds", "work/s");
    for (const Row &r : rows) {
        const double rate =
            r.c.seconds > 0.0
                ? static_cast<double>(r.c.work) / r.c.seconds
                : 0.0;
        std::printf("%-10s %12llu %16llu %12.3f %14.3e\n", r.name,
                    static_cast<unsigned long long>(r.c.calls),
                    static_cast<unsigned long long>(r.c.work),
                    r.c.seconds, rate);
    }
}

/**
 * Strip `--stats_json=`/`--stats_csv=` from argv (google-benchmark
 * rejects flags it does not know) and return the extracted path.
 */
std::string
extract_flag(int &argc, char **argv, const std::string &flag)
{
    const std::string prefix = "--" + flag + "=";
    std::string value;
    int w = 0;
    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind(prefix, 0) == 0)
            value = arg.substr(prefix.size());
        else
            argv[w++] = argv[i];
    }
    argc = w;
    return value;
}

/**
 * Map `--op=<class>` to a benchmark filter regex so CI smoke runs can
 * select one kernel family (`--op=qgemm` runs the int8 kernels plus
 * their fp32 comparison rows). Unknown values pass through as a raw
 * regex.
 */
std::string
op_filter(const std::string &op)
{
    if (op == "qgemm")
        return "BM_Qgemm|BM_GemmNnHeadFp32|BM_QuantizeActivations|"
               "BM_QuantizedPredict";
    if (op == "gemm")
        return "BM_Gemm";
    if (op == "lstm")
        return "BM_Lstm";
    if (op == "train")
        return "BM_TrainStep|BM_AdamStep";
    if (op == "attention")
        return "BM_MoeAttention";
    if (op == "embedding")
        return "BM_EmbeddingGather";
    if (op == "rank")
        return "BM_RankTokenPredictions";
    return op;
}

}  // namespace

int
main(int argc, char **argv)
{
    const std::string stats_json = extract_flag(argc, argv, "stats_json");
    const std::string stats_csv = extract_flag(argc, argv, "stats_csv");
    const std::string op = extract_flag(argc, argv, "op");
    std::vector<char *> args(argv, argv + argc);
    std::string filter_arg;
    if (!op.empty()) {
        filter_arg = "--benchmark_filter=" + op_filter(op);
        args.push_back(filter_arg.data());
    }
    argc = static_cast<int>(args.size());
    argv = args.data();
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    voyager::nn::op_stats().reset();
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    report_op_stats();

    if (!stats_json.empty() || !stats_csv.empty()) {
        voyager::StatRegistry reg;
        reg.set_meta("bench", "micro_nn");
        voyager::nn::export_op_stats(reg);
        if (!stats_json.empty()) {
            std::ofstream os(stats_json);
            reg.write_json(os);
        }
        if (!stats_csv.empty()) {
            std::ofstream os(stats_csv);
            reg.write_csv(os);
        }
    }
    return 0;
}
