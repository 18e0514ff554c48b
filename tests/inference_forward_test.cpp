/**
 * @file
 * Differential tests of the inference forward (DESIGN.md §5.20): the
 * fp32 and int8 engines assemble each distinct (pc, page, offset)
 * token once, project it through Wx once, and run only the recurrence
 * per step. Each is compared against a per-step reference with no
 * deduplication, built here from the public layers and kernels — the
 * fp32 hidden state and both engines' ranked probabilities must match
 * bit for bit — on batches with shifted same-tenant windows, repeated
 * tokens inside a window and whole duplicate windows. Also pins the
 * distinct-row count and map, and the batch validation at model entry.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/model.hpp"
#include "core/qmodel.hpp"
#include "nn/ops.hpp"
#include "nn/qlayers.hpp"
#include "nn/qops.hpp"
#include "nn/quantize.hpp"

namespace voyager {
namespace {

using core::TokenPrediction;
using core::VoyagerBatch;
using core::VoyagerConfig;
using core::VoyagerModel;
using nn::Matrix;

constexpr std::int32_t kPcs = 7;
constexpr std::int32_t kPages = 13;
constexpr std::int32_t kOffsets = 11;

VoyagerConfig
small_config(bool use_pc = true)
{
    VoyagerConfig c;
    c.seq_len = 6;
    c.pc_embed_dim = 4;
    c.page_embed_dim = 8;
    c.num_experts = 3;
    c.lstm_units = 20;  // 4H = 80: ragged gate blocks and GEMM tiles
    c.use_pc_feature = use_pc;
    c.seed = 5;
    return c;
}

struct Token
{
    std::int32_t pc;
    std::int32_t page;
    std::int32_t offset;
};

/** One window per entry, each `seq` tokens, oldest first. */
VoyagerBatch
make_batch(const std::vector<std::vector<Token>> &windows)
{
    VoyagerBatch b;
    b.batch = windows.size();
    b.seq = windows.empty() ? 0 : windows.front().size();
    for (const auto &w : windows) {
        for (const Token &t : w) {
            b.pc.push_back(t.pc);
            b.page.push_back(t.page);
            b.offset.push_back(t.offset);
        }
    }
    return b;
}

/**
 * Shifted windows of one tenant's stream (which repeats tokens inside
 * a window), a whole duplicate window, a window of one repeated token
 * and an unrelated window.
 */
VoyagerBatch
overlapping_batch(std::size_t T)
{
    std::vector<Token> stream;
    for (std::int32_t i = 0; i < 12; ++i)
        stream.push_back({1 + i % 3, 1 + (i * 5) % 7, (i * 3) % 4});
    std::vector<std::vector<Token>> windows;
    for (std::size_t s = 0; s < 4; ++s)
        windows.emplace_back(stream.begin() + s, stream.begin() + s + T);
    windows.push_back(windows[1]);
    windows.emplace_back(T, Token{6, 12, 10});
    std::vector<Token> other;
    for (std::size_t t = 0; t < T; ++t) {
        const auto i = static_cast<std::int32_t>(t);
        other.push_back({(2 * i) % kPcs, (3 * i + 2) % kPages,
                         (5 * i + 1) % kOffsets});
    }
    windows.push_back(other);
    return make_batch(windows);
}

/**
 * The per-step LSTM inputs with no deduplication: per timestep, gather
 * the batch's ids, run the attention and concatenate
 * [pc | page | attention], as the training forward does.
 */
template <class Emb>
std::vector<Matrix>
per_step_inputs(const VoyagerBatch &batch, const VoyagerConfig &cfg,
                const Emb &pc_emb, const Emb &page_emb,
                const Emb &offset_emb)
{
    nn::MoeAttention attn(cfg.num_experts, cfg.attention_scale);
    const std::size_t B = batch.batch;
    const std::size_t T = batch.seq;
    std::vector<Matrix> xs(T);
    for (std::size_t t = 0; t < T; ++t) {
        std::vector<std::int32_t> pc(B);
        std::vector<std::int32_t> page(B);
        std::vector<std::int32_t> off(B);
        for (std::size_t b = 0; b < B; ++b) {
            pc[b] = batch.pc[b * T + t];
            page[b] = batch.page[b * T + t];
            off[b] = batch.offset[b * T + t];
        }
        Matrix pc_e;
        Matrix page_e;
        Matrix off_e;
        Matrix mixed;
        pc_emb.forward(pc, pc_e);
        page_emb.forward(page, page_e);
        offset_emb.forward(off, off_e);
        attn.forward(page_e, off_e, mixed);
        std::vector<const Matrix *> parts = {&page_e, &mixed};
        if (cfg.use_pc_feature)
            parts.insert(parts.begin(), &pc_e);
        std::size_t width = 0;
        for (const Matrix *p : parts)
            width += p->cols();
        xs[t].resize(B, width);
        for (std::size_t b = 0; b < B; ++b) {
            float *row = xs[t].row(b);
            for (const Matrix *p : parts) {
                std::copy(p->row(b), p->row(b) + p->cols(), row);
                row += p->cols();
            }
        }
    }
    return xs;
}

bool
same_bits(const Matrix &a, const Matrix &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

void
expect_same_predictions(
    const std::vector<std::vector<TokenPrediction>> &got,
    const std::vector<std::vector<TokenPrediction>> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t b = 0; b < got.size(); ++b) {
        ASSERT_EQ(got[b].size(), want[b].size()) << "sample " << b;
        for (std::size_t i = 0; i < got[b].size(); ++i) {
            EXPECT_EQ(got[b][i].page, want[b][i].page);
            EXPECT_EQ(got[b][i].offset, want[b][i].offset);
            EXPECT_EQ(std::memcmp(&got[b][i].prob, &want[b][i].prob,
                                  sizeof(float)),
                      0)
                << "sample " << b << " rank " << i << ": "
                << got[b][i].prob << " vs " << want[b][i].prob;
        }
    }
}

const core::BatchInputs &
assemble_fp32(const VoyagerModel &model, const VoyagerBatch &batch)
{
    const nn::MoeAttention attn(model.config().num_experts,
                                model.config().attention_scale);
    return core::assemble_inputs(batch, model.config(),
                                 model.pc_embedding(),
                                 model.page_embedding(),
                                 model.offset_embedding(), attn);
}

TEST(DistinctRows, ShiftedWindowsShareAllButOneRow)
{
    const VoyagerConfig cfg = small_config();
    const std::size_t T = cfg.seq_len;
    VoyagerModel model(cfg, kPcs, kPages, kOffsets);
    std::vector<Token> stream;
    for (std::int32_t i = 0; i <= static_cast<std::int32_t>(T); ++i)
        stream.push_back({i % kPcs, i, i % kOffsets});
    const VoyagerBatch batch = make_batch(
        {{stream.begin(), stream.begin() + T},
         {stream.begin() + 1, stream.end()}});
    const core::BatchInputs &in = assemble_fp32(model, batch);
    EXPECT_EQ(in.x.rows(), T + 1);
    EXPECT_EQ(in.x.cols(), cfg.pc_embed_dim + 2 * cfg.page_embed_dim);
    ASSERT_EQ(in.steps.batch, 2u);
    ASSERT_EQ(in.steps.steps(), T);
    for (std::size_t t = 0; t + 1 < T; ++t)
        EXPECT_EQ(in.steps.at(t, 1), in.steps.at(t + 1, 0));

    // A whole duplicate window adds no row; one repeated token is one.
    const VoyagerBatch dup = make_batch(
        {{stream.begin(), stream.begin() + T},
         {stream.begin(), stream.begin() + T},
         std::vector<Token>(T, Token{3, 4, 5})});
    EXPECT_EQ(assemble_fp32(model, dup).x.rows(), T + 1);
}

TEST(DistinctRows, PcJoinsTheKeyOnlyWhenUsed)
{
    // Two tokens differing only in pc are two rows with the PC feature
    // and one row without it.
    const VoyagerBatch batch = make_batch(
        {std::vector<Token>(6, Token{1, 2, 3}),
         std::vector<Token>(6, Token{4, 2, 3})});
    VoyagerModel with_pc(small_config(true), kPcs, kPages, kOffsets);
    EXPECT_EQ(assemble_fp32(with_pc, batch).x.rows(), 2u);
    VoyagerModel no_pc(small_config(false), kPcs, kPages, kOffsets);
    const core::BatchInputs &in = assemble_fp32(no_pc, batch);
    EXPECT_EQ(in.x.rows(), 1u);
    EXPECT_EQ(in.x.cols(), 2 * small_config().page_embed_dim);
}

class InferenceForward : public ::testing::TestWithParam<bool>
{
};

TEST_P(InferenceForward, Fp32MatchesPerStepLstmBitForBit)
{
    const VoyagerConfig cfg = small_config(GetParam());
    VoyagerModel model(cfg, kPcs, kPages, kOffsets);
    const VoyagerBatch batch = overlapping_batch(cfg.seq_len);

    const std::vector<Matrix> xs =
        per_step_inputs(batch, cfg, model.pc_embedding(),
                        model.page_embedding(), model.offset_embedding());
    const core::BatchInputs &in = assemble_fp32(model, batch);
    EXPECT_LT(in.x.rows(), batch.batch * batch.seq);

    Matrix logits[2];
    for (const bool page : {true, false}) {
        nn::Lstm ref = page ? model.page_lstm() : model.offset_lstm();
        nn::Lstm lstm = ref;
        Matrix h_ref;
        Matrix h;
        Matrix proj;
        ref.forward(xs, h_ref);
        lstm.project_inputs(in.x, proj);
        lstm.forward_inference(proj, in.steps, h);
        EXPECT_TRUE(same_bits(h, h_ref)) << (page ? "page" : "offset");

        nn::Linear head = page ? model.page_head() : model.offset_head();
        head.forward(h_ref, logits[page ? 0 : 1]);
    }
    const std::size_t k = 5;
    expect_same_predictions(
        model.predict(batch, k),
        core::rank_token_predictions(logits[0], logits[1], false, k));
}

/** fp32 leftover of `x` on the grid of `qx` (the residual pass). */
Matrix
residual(const Matrix &x, const nn::QActivations &qx)
{
    Matrix r(x.rows(), x.cols());
    for (std::size_t i = 0; i < x.rows(); ++i)
        for (std::size_t j = 0; j < x.cols(); ++j)
            r.at(i, j) = x.at(i, j) -
                         (static_cast<float>(qx.row(i)[j]) -
                          static_cast<float>(qx.zero_point(i))) *
                             qx.scale(i);
    return r;
}

/**
 * Per-step int8 LSTM: per step, quantize x_t and run its qgemm, then
 * its residual's, then h_{t-1}'s, all into one zeroed z, then the
 * gate kernel.
 */
Matrix
int8_lstm_reference(const nn::Lstm &src, const std::vector<Matrix> &xs)
{
    const nn::QuantizedLstm q(src);
    const std::size_t B = xs.front().rows();
    const std::size_t H = q.hidden();
    const float *bias = src.bias().value.data();
    Matrix h(B, H);
    Matrix c[2] = {Matrix(B, H), Matrix(B, H)};
    nn::QActivations qa;
    for (std::size_t t = 0; t < xs.size(); ++t) {
        Matrix z(B, 4 * H);
        nn::quantize_activations(xs[t], qa);
        nn::qgemm_nt(qa, q.wx(), z);
        const Matrix r = residual(xs[t], qa);
        nn::quantize_activations(r, qa);
        nn::qgemm_nt(qa, q.wx(), z);
        if (t > 0) {
            nn::quantize_activations(h, qa);
            nn::qgemm_nt(qa, q.wh(), z);
        }
        for (std::size_t b = 0; b < B; ++b)
            nn::lstm_gate_row(z.row(b), bias,
                              t > 0 ? c[t % 2].row(b) : nullptr,
                              c[(t + 1) % 2].row(b), h.row(b), H);
    }
    return h;
}

TEST_P(InferenceForward, Int8MatchesPerStepReferenceBitForBit)
{
    const VoyagerConfig cfg = small_config(GetParam());
    VoyagerModel model(cfg, kPcs, kPages, kOffsets);
    core::QuantizedVoyagerModel qmodel(model);
    const VoyagerBatch batch = overlapping_batch(cfg.seq_len);

    const nn::QuantizedEmbedding pc(model.pc_embedding());
    const nn::QuantizedEmbedding page(model.page_embedding());
    const nn::QuantizedEmbedding offset(model.offset_embedding());
    const std::vector<Matrix> xs =
        per_step_inputs(batch, cfg, pc, page, offset);
    Matrix logits[2];
    for (const bool is_page : {true, false}) {
        const Matrix h = int8_lstm_reference(
            is_page ? model.page_lstm() : model.offset_lstm(), xs);
        nn::QuantizedLinear head(is_page ? model.page_head()
                                         : model.offset_head());
        head.forward(h, logits[is_page ? 0 : 1]);
    }
    const std::size_t k = 5;
    expect_same_predictions(
        qmodel.predict(batch, k),
        core::rank_token_predictions(logits[0], logits[1], false, k));
}

INSTANTIATE_TEST_SUITE_P(PcFeature, InferenceForward,
                         ::testing::Values(true, false));

/** Runs `f`, expecting std::invalid_argument naming `field`. */
void
expect_rejects(const std::function<void()> &f, const std::string &field)
{
    try {
        f();
        ADD_FAILURE() << "no exception for " << field;
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
            << e.what() << " does not name " << field;
    }
}

VoyagerBatch
valid_batch(const VoyagerConfig &cfg, std::size_t batch = 2)
{
    std::vector<std::vector<Token>> windows(
        batch, std::vector<Token>(cfg.seq_len, Token{1, 2, 3}));
    VoyagerBatch b = make_batch(windows);
    b.labels.assign(batch, {core::TokenLabel{2, 3}});
    return b;
}

TEST(BatchValidation, ModelsRejectMalformedBatches)
{
    const VoyagerConfig cfg = small_config();
    VoyagerModel model(cfg, kPcs, kPages, kOffsets);
    core::QuantizedVoyagerModel qmodel(model);
    // Every entry point: fp32 predict, train_step, int8 predict.
    const std::vector<std::function<void(const VoyagerBatch &)>> entries =
        {[&](const VoyagerBatch &b) { model.predict(b, 2); },
         [&](const VoyagerBatch &b) { model.train_step(b); },
         [&](const VoyagerBatch &b) { qmodel.predict(b, 2); }};
    const auto mutated = [&](const std::function<void(VoyagerBatch &)> &m) {
        VoyagerBatch b = valid_batch(cfg);
        m(b);
        return b;
    };
    struct Case
    {
        const char *field;
        std::function<void(VoyagerBatch &)> mutate;
    };
    const std::vector<Case> cases = {
        {"VoyagerBatch.seq",
         [](VoyagerBatch &b) {
             // Consistent vectors for a shorter window.
             b.seq -= 1;
             b.pc.resize(b.batch * b.seq);
             b.page.resize(b.batch * b.seq);
             b.offset.resize(b.batch * b.seq);
         }},
        {"VoyagerBatch.pc", [](VoyagerBatch &b) { b.pc.pop_back(); }},
        {"VoyagerBatch.page",
         [](VoyagerBatch &b) { b.page.push_back(1); }},
        {"VoyagerBatch.offset",
         [](VoyagerBatch &b) { b.offset.pop_back(); }},
        {"VoyagerBatch.pc", [](VoyagerBatch &b) { b.pc[3] = -1; }},
        {"VoyagerBatch.pc", [](VoyagerBatch &b) { b.pc[0] = kPcs; }},
        {"VoyagerBatch.page", [](VoyagerBatch &b) { b.page[5] = -7; }},
        {"VoyagerBatch.page",
         [](VoyagerBatch &b) { b.page.back() = kPages; }},
        {"VoyagerBatch.offset",
         [](VoyagerBatch &b) { b.offset[2] = -1; }},
        {"VoyagerBatch.offset",
         [](VoyagerBatch &b) { b.offset[7] = kOffsets + 100; }},
    };
    for (const Case &c : cases) {
        const VoyagerBatch bad = mutated(c.mutate);
        for (std::size_t e = 0; e < entries.size(); ++e) {
            SCOPED_TRACE(::testing::Message() << "entry point " << e);
            expect_rejects([&] { entries[e](bad); }, c.field);
        }
    }

    // Training needs one label list per sample; inference none.
    const VoyagerBatch few_labels =
        mutated([](VoyagerBatch &b) { b.labels.pop_back(); });
    expect_rejects([&] { model.train_step(few_labels); },
                   "VoyagerBatch.labels");
    EXPECT_NO_THROW(model.predict(few_labels, 2));
    EXPECT_NO_THROW(qmodel.predict(few_labels, 2));
    EXPECT_NO_THROW(model.train_step(valid_batch(cfg)));
}

TEST(BatchValidation, PcIdsUncheckedWithoutThePcFeature)
{
    // Without the PC feature no pc embedding is read, so pc ids are
    // only required to be present, not in range.
    VoyagerModel model(small_config(false), kPcs, kPages, kOffsets);
    VoyagerBatch b = valid_batch(small_config(false));
    b.pc.assign(b.pc.size(), kPcs + 1);
    EXPECT_NO_THROW(model.predict(b, 2));
    EXPECT_NO_THROW(model.train_step(b));
    b.pc.pop_back();
    expect_rejects([&] { model.predict(b, 2); }, "VoyagerBatch.pc");
}

}  // namespace
}  // namespace voyager
