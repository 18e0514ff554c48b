/**
 * @file
 * Int8 inference engine tests (DESIGN.md §5.13): quantized layers
 * track their fp32 counterparts, a NaN input row stays non-finite
 * through a layer and a whole model without touching other rows,
 * QuantizedVoyagerModel::predict matches the per-LSTM quantize-and-
 * project oracle (reference.hpp) bit for bit, and an end-to-end check
 * that a QuantizedVoyagerModel built from a compressed trained model
 * agrees with the quantize-dequantize fp32 path on >= 99% of top-1
 * predictions — the §5.4 claim, measured on the path that actually
 * executes int8.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <iostream>
#include <vector>

#include "core/compress.hpp"
#include "core/qmodel.hpp"
#include "core/trainer.hpp"
#include "nn/qlayers.hpp"
#include "reference.hpp"
#include "sim/simulator.hpp"
#include "trace/gen/workloads.hpp"

namespace voyager {
namespace {

using core::QuantizedVoyagerModel;
using nn::Matrix;
using trace::gen::Scale;

Matrix
random_matrix(std::size_t r, std::size_t c, float scale,
              std::uint64_t seed)
{
    Rng rng(seed);
    Matrix m(r, c);
    nn::uniform_init(m, scale, rng);
    return m;
}

core::VoyagerConfig
small_voyager()
{
    core::VoyagerConfig cfg;
    cfg.seq_len = 8;
    cfg.pc_embed_dim = 8;
    cfg.page_embed_dim = 16;
    cfg.num_experts = 4;
    cfg.lstm_units = 32;
    cfg.batch_size = 32;
    cfg.learning_rate = 1e-2;
    cfg.lr_decay_ratio = 1.0;
    return cfg;
}

TEST(QuantizedLayers, EmbeddingMatchesFp32PerRowGrid)
{
    Rng rng(31);
    nn::Embedding emb(20, 12, rng);
    const nn::QuantizedEmbedding qemb(emb);
    const std::vector<std::int32_t> ids = {0, 7, 19, 7};
    Matrix fp;
    Matrix q;
    emb.forward(ids, fp);
    qemb.forward(ids, q);
    ASSERT_EQ(q.rows(), 4u);
    ASSERT_EQ(q.cols(), 12u);
    for (std::size_t b = 0; b < ids.size(); ++b) {
        const auto row = static_cast<std::size_t>(ids[b]);
        const float tol =
            qemb.table().scale(row) * 0.5f + 1e-7f;
        for (std::size_t j = 0; j < 12; ++j)
            EXPECT_NEAR(q.at(b, j), fp.at(b, j), tol);
    }
    EXPECT_LT(qemb.int8_bytes(), 20u * 12u * sizeof(float));
}

TEST(QuantizedLayers, LinearTracksFp32)
{
    Rng rng(32);
    nn::Linear lin(24, 40, rng);
    nn::QuantizedLinear qlin(lin);
    EXPECT_EQ(qlin.in_dim(), 24u);
    EXPECT_EQ(qlin.out_dim(), 40u);
    const Matrix x = random_matrix(5, 24, 1.0f, 33);
    Matrix y_fp;
    Matrix y_q;
    lin.forward(x, y_fp);
    qlin.forward(x, y_q);
    double err = 0.0;
    double mag = 0.0;
    for (std::size_t i = 0; i < y_fp.size(); ++i) {
        err += std::fabs(y_q.data()[i] - y_fp.data()[i]);
        mag += std::fabs(y_fp.data()[i]);
    }
    // Mean |error| well under mean |activation|: int8 tracks fp32.
    EXPECT_LT(err, 0.05 * mag);
}

TEST(QuantizedLayers, LstmTracksFp32)
{
    Rng rng(34);
    nn::Lstm lstm(16, 24, rng);
    nn::QuantizedLstm qlstm(lstm);
    EXPECT_EQ(qlstm.in_dim(), 16u);
    EXPECT_EQ(qlstm.hidden(), 24u);
    std::vector<Matrix> xs;
    for (std::size_t t = 0; t < 4; ++t)
        xs.push_back(random_matrix(6, 16, 1.0f, 40 + t));
    // The int8 LSTM takes its inputs as distinct rows plus a
    // (t, b) -> row map; here every (t, b) is its own row.
    Matrix x(4 * 6, 16);
    nn::StepRows rows;
    rows.batch = 6;
    for (std::size_t t = 0; t < 4; ++t) {
        for (std::size_t b = 0; b < 6; ++b) {
            std::copy(xs[t].row(b), xs[t].row(b) + 16,
                      x.row(t * 6 + b));
            rows.index.push_back(static_cast<std::uint32_t>(t * 6 + b));
        }
    }
    Matrix h_fp;
    Matrix h_q;
    Matrix proj;
    nn::QActivations qx;
    nn::QActivations qr;
    lstm.forward(xs, h_fp);
    nn::quantize_with_residual(x, qx, qr);
    qlstm.project_inputs(qx, qr, proj);
    qlstm.forward(proj, rows, h_q);
    ASSERT_EQ(h_q.rows(), 6u);
    ASSERT_EQ(h_q.cols(), 24u);
    for (std::size_t i = 0; i < h_fp.size(); ++i)
        EXPECT_NEAR(h_q.data()[i], h_fp.data()[i], 0.05f);
}

TEST(QuantizedLayers, LinearNaNRowIsNonFiniteLikeFp32)
{
    Rng rng(35);
    const nn::Linear linear(24, 32, rng);
    nn::QuantizedLinear qlinear(linear);
    const Matrix clean = random_matrix(4, 24, 1.0f, 36);
    Matrix x = clean;
    x.at(2, 7) = std::numeric_limits<float>::quiet_NaN();
    Matrix y_fp;
    Matrix y_clean;
    Matrix y_q;
    nn::Linear(linear).forward(x, y_fp);
    qlinear.forward(clean, y_clean);
    qlinear.forward(x, y_q);
    for (std::size_t i = 0; i < 4; ++i) {
        for (std::size_t j = 0; j < 32; ++j) {
            EXPECT_EQ(std::isfinite(y_fp.at(i, j)), i != 2);
            if (i == 2) {
                EXPECT_FALSE(std::isfinite(y_q.at(i, j))) << "ch " << j;
            } else {
                EXPECT_EQ(std::memcmp(&y_q.at(i, j), &y_clean.at(i, j),
                                      sizeof(float)),
                          0)
                    << "row " << i << " ch " << j;
            }
        }
    }
}

constexpr std::int32_t kPcs = 9;
constexpr std::int32_t kPages = 23;
constexpr std::int32_t kOffsets = 17;

/**
 * `batch` windows over one tenant's stream, each shifted one token
 * from the last, and every third a repeat of the one before, over a
 * small vocabulary so tokens also repeat inside a window.
 */
core::VoyagerBatch
shifted_windows(std::size_t seq, std::size_t batch)
{
    core::VoyagerBatch b;
    b.batch = batch;
    b.seq = seq;
    std::size_t start = 0;
    for (std::size_t s = 0; s < batch; ++s) {
        start += s % 3 == 2 ? 0 : 1;
        for (std::size_t t = start; t < start + seq; ++t) {
            const auto i = static_cast<std::int32_t>(t);
            b.pc.push_back(1 + i % 4);
            b.page.push_back((i * 7) % 11);
            b.offset.push_back((i * 5) % kOffsets);
        }
    }
    return b;
}

/**
 * The int8 forward built from its parts, with each LSTM quantizing
 * and projecting the shared inputs itself (project_inputs_ref).
 */
std::vector<std::vector<core::TokenPrediction>>
int8_predict_ref(const core::VoyagerModel &model,
                 const core::VoyagerBatch &batch, std::size_t k)
{
    const core::VoyagerConfig &cfg = model.config();
    const nn::QuantizedEmbedding pc(model.pc_embedding());
    const nn::QuantizedEmbedding page(model.page_embedding());
    const nn::QuantizedEmbedding offset(model.offset_embedding());
    const nn::MoeAttention attn(cfg.num_experts, cfg.attention_scale);
    const core::BatchInputs &in =
        core::assemble_inputs(batch, cfg, pc, page, offset, attn);
    Matrix logits[2];
    for (const bool is_page : {true, false}) {
        nn::QuantizedLstm lstm(is_page ? model.page_lstm()
                                       : model.offset_lstm());
        Matrix proj;
        Matrix h;
        nn::project_inputs_ref(lstm, in.x, proj);
        lstm.forward(proj, in.steps, h);
        nn::QuantizedLinear head(is_page ? model.page_head()
                                         : model.offset_head());
        head.forward(h, logits[is_page ? 0 : 1]);
    }
    return core::rank_token_predictions(logits[0], logits[1],
                                        cfg.use_bce(), k);
}

void
expect_same_bits(const std::vector<std::vector<core::TokenPrediction>> &got,
                 const std::vector<std::vector<core::TokenPrediction>> &want,
                 std::size_t skip_row = static_cast<std::size_t>(-1))
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t b = 0; b < got.size(); ++b) {
        if (b == skip_row)
            continue;
        ASSERT_EQ(got[b].size(), want[b].size()) << "row " << b;
        for (std::size_t i = 0; i < got[b].size(); ++i) {
            EXPECT_EQ(got[b][i].page, want[b][i].page) << "row " << b;
            EXPECT_EQ(got[b][i].offset, want[b][i].offset) << "row " << b;
            EXPECT_EQ(std::memcmp(&got[b][i].prob, &want[b][i].prob,
                                  sizeof(float)),
                      0)
                << "row " << b << " rank " << i;
        }
    }
}

TEST(QuantizedModel, PredictMatchesPerLstmOracleBitForBit)
{
    for (const bool use_pc : {true, false}) {
        core::VoyagerConfig cfg = small_voyager();
        cfg.use_pc_feature = use_pc;
        const core::VoyagerModel model(cfg, kPcs, kPages, kOffsets);
        QuantizedVoyagerModel qmodel(model);
        for (const std::size_t batch : {1u, 2u, 3u, 5u, 8u, 13u}) {
            SCOPED_TRACE(testing::Message() << "use_pc " << use_pc
                                            << " batch " << batch);
            const core::VoyagerBatch b =
                shifted_windows(cfg.seq_len, batch);
            const auto want = int8_predict_ref(model, b, 5);
            expect_same_bits(qmodel.predict(b, 5), want);
        }
    }
}

TEST(QuantizedModel, NonFiniteInputRowPoisonsOnlyItsPredictions)
{
    // An inf weight in pc token 7's embedding row dequantizes that
    // row to NaN (scale inf times byte 0), so every LSTM input row
    // built from pc 7 holds NaN. Only window 2 uses pc 7: its
    // predictions must all be non-finite, and every other window's
    // must match the clean model's bit for bit.
    const core::VoyagerConfig cfg = small_voyager();
    core::VoyagerModel model(cfg, kPcs, kPages, kOffsets);
    QuantizedVoyagerModel clean(model);
    model.pc_embedding().param().value.at(7, 3) =
        std::numeric_limits<float>::infinity();
    QuantizedVoyagerModel poisoned(model);
    Matrix row;
    nn::QuantizedEmbedding(model.pc_embedding()).forward({7}, row);
    for (std::size_t j = 0; j < row.cols(); ++j)
        ASSERT_TRUE(std::isnan(row.at(0, j))) << "col " << j;

    core::VoyagerBatch b = shifted_windows(cfg.seq_len, 5);
    b.pc[2 * cfg.seq_len + 4] = 7;
    const auto got = poisoned.predict(b, 4);
    ASSERT_EQ(got.size(), 5u);
    ASSERT_FALSE(got[2].empty());
    for (const core::TokenPrediction &p : got[2])
        EXPECT_FALSE(std::isfinite(p.prob));
    expect_same_bits(got, clean.predict(b, 4), /*skip_row=*/2);
}

TEST(QuantizedModel, Int8PredictTopOneAgreesWithFp32)
{
    // Train a tiny model online (integration-test idiom), compress
    // it onto the int8 grid, then compare the *executed int8*
    // prediction path against the quantize-dequantize fp32 path.
    // The weights are bit-identical by construction, so >= 99% top-1
    // agreement is the acceptance bar on activation quantization.
    const auto stream_src =
        trace::gen::make_workload("pr", Scale::Tiny, 4);
    const auto cfg = sim::tiny_sim_config();
    const auto stream = extract_llc_stream(stream_src, cfg);
    core::VoyagerAdapter voyager(small_voyager(), stream);
    core::OnlineTrainConfig ocfg;
    ocfg.epochs = 4;
    ocfg.train_passes = 8;
    ocfg.max_train_samples_per_epoch = 1200;
    train_online(voyager, stream.size(), ocfg);

    const auto rep = core::compress_model(voyager.model());
    EXPECT_GT(rep.max_quant_error, 0.0f);
    EXPECT_GT(rep.rms_quant_error, 0.0);
    EXPECT_LE(rep.rms_quant_error,
              static_cast<double>(rep.max_quant_error));

    std::vector<std::size_t> idx;
    for (std::size_t i = stream.size() / 2;
         i < stream.size() / 2 + 400 && i < stream.size(); ++i)
        idx.push_back(i);

    ASSERT_EQ(voyager.int8_model(), nullptr);
    const auto fp32 = voyager.predict_on(idx, 1);
    voyager.enable_int8_inference();
    ASSERT_NE(voyager.int8_model(), nullptr);
    const auto [scale_lo, scale_hi] =
        voyager.int8_model()->weight_scale_range();
    EXPECT_GT(scale_lo, 0.0f);
    EXPECT_GE(scale_hi, scale_lo);
    EXPECT_LT(voyager.int8_model()->int8_bytes(),
              voyager.model().parameter_bytes() / 3);
    const auto int8 = voyager.predict_on(idx, 1);
    voyager.disable_int8_inference();
    ASSERT_EQ(voyager.int8_model(), nullptr);

    std::size_t same = 0;
    std::size_t considered = 0;
    for (std::size_t k = 0; k < idx.size(); ++k) {
        if (fp32[k].empty() && int8[k].empty())
            continue;
        ++considered;
        if (!fp32[k].empty() && !int8[k].empty())
            same += fp32[k][0] == int8[k][0];
    }
    ASSERT_GT(considered, 100u);
    const double agreement = static_cast<double>(same) /
                             static_cast<double>(considered);
    std::cout << "int8 top-1 agreement: " << same << "/" << considered
              << " (" << 100.0 * agreement << "%)\n";
    EXPECT_GE(agreement, 0.99)
        << same << "/" << considered << " top-1 predictions agree";
}

}  // namespace
}  // namespace voyager
