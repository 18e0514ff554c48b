#include "trace/gen/transformer.hpp"

#include <algorithm>
#include <vector>

#include "trace/gen/recorder.hpp"
#include "util/random.hpp"

namespace voyager::trace::gen {

namespace {

/** fp16 activations/weights: 2 bytes per element. */
constexpr Addr kElemBytes = 2;
/** Per-(layer,head) KV slots; contexts are reset well before this. */
constexpr Addr kMaxTokens = 4096;
/** Per-request address stride inside a structure (64 MiB). */
constexpr Addr kRequestStride = 1ull << 26;
/** Weight matrices per layer: Wq, Wk, Wv, Wo, Wffn1, Wffn2. */
constexpr int kMatrices = 6;

/** Structure ids (layout::data_base). */
enum : std::uint32_t
{
    kWeights = 40,
    kKCache = 41,
    kVCache = 42,
    kActivations = 43,
    kScores = 44,
    kEmbedding = 45,
};

/**
 * Derived geometry plus the PCs of every emitting "source line". One
 * instance per generated trace; all address math lives here so the
 * three phase generators emit byte-identical layouts.
 */
struct Model
{
    explicit Model(const TransformerParams &p)
        : p(p), head_bytes(static_cast<Addr>(p.head_dim) * kElemBytes),
          head_lines(std::max<Addr>(1, head_bytes / kLineSize)),
          d_model_bytes(static_cast<Addr>(p.heads) * head_bytes),
          x_lines(std::max<Addr>(1, d_model_bytes / kLineSize))
    {
    }

    const TransformerParams &p;
    Addr head_bytes;
    Addr head_lines;
    Addr d_model_bytes;
    Addr x_lines;

    /** Weight matrix `m` of `layer`: 4 MiB apart, streamed in order. */
    Addr
    weight(int layer, int m, Addr line) const
    {
        return layout::data_base(kWeights) +
               ((static_cast<Addr>(layer) * kMatrices +
                 static_cast<Addr>(m))
                << 22) +
               line * kLineSize;
    }

    Addr
    kv(std::uint32_t structure, int req, int layer, int head,
       Addr token) const
    {
        return layout::data_base(structure) +
               static_cast<Addr>(req) * kRequestStride +
               ((static_cast<Addr>(layer) *
                     static_cast<Addr>(p.heads) +
                 static_cast<Addr>(head)) *
                    kMaxTokens +
                token) *
                   head_bytes;
    }

    Addr
    activation(int req, Addr token) const
    {
        return layout::data_base(kActivations) +
               static_cast<Addr>(req) * kRequestStride +
               token * d_model_bytes;
    }

    Addr
    score(int req, Addr token) const
    {
        return layout::data_base(kScores) +
               static_cast<Addr>(req) * kRequestStride + token * 4;
    }

    Addr
    embedding(Addr row) const
    {
        return layout::data_base(kEmbedding) + row * d_model_bytes;
    }

    // PC layout: one basic block per phase, one line per source line.
    Addr pc_weight(int m) const { return layout::pc_of(40, m); }
    Addr pc_x() const { return layout::pc_of(41, 0); }
    Addr pc_k_append() const { return layout::pc_of(41, 1); }
    Addr pc_v_append() const { return layout::pc_of(41, 2); }
    Addr pc_k_read() const { return layout::pc_of(42, 0); }
    Addr pc_score_store() const { return layout::pc_of(42, 1); }
    Addr pc_v_read() const { return layout::pc_of(42, 2); }
    Addr pc_ffn_load() const { return layout::pc_of(43, 0); }
    Addr pc_ffn_store() const { return layout::pc_of(43, 1); }
    Addr pc_embed() const { return layout::pc_of(44, 0); }
};

/** Sampled-token embedding gather: the one data-dependent (seeded)
 *  access of a decode step — a random row of the embedding table. */
void
emit_embedding_gather(TraceRecorder &rec, const Model &m, Rng &rng)
{
    const Addr row = rng.next_below(
        static_cast<std::uint64_t>(std::max(1, m.p.vocab_rows)));
    for (Addr c = 0; c < m.x_lines; ++c)
        rec.load(m.pc_embed(), m.embedding(row) + c * kLineSize);
}

/** Stream the first weight_stream_lines lines of matrix `mat` —
 *  identical lines on every visit, so layer-phase repetition produces
 *  exactly re-entered streams. */
void
emit_weight_stream(TraceRecorder &rec, const Model &m, int layer,
                   int mat)
{
    const Addr n = static_cast<Addr>(
        std::max(1, m.p.weight_stream_lines));
    for (Addr c = 0; c < n; ++c)
        rec.load(m.pc_weight(mat), m.weight(layer, mat, c));
}

/**
 * One decoder layer of one decode step for request `req` whose context
 * (including the token being generated) is `len` tokens.
 */
void
emit_decode_layer(TraceRecorder &rec, const Model &m, int req,
                  int layer, Addr len)
{
    const Addr token = len - 1;
    // QKV projections: three repeating weight streams + hidden read.
    for (int mat = 0; mat < 3; ++mat)
        emit_weight_stream(rec, m, layer, mat);
    for (Addr c = 0; c < m.x_lines; ++c)
        rec.load(m.pc_x(), m.activation(req, token) + c * kLineSize);
    // KV-cache growth: append this token's K and V per head.
    for (int h = 0; h < m.p.heads; ++h)
        for (Addr c = 0; c < m.head_lines; ++c)
            rec.store(m.pc_k_append(),
                      m.kv(kKCache, req, layer, h, token) +
                          c * kLineSize);
    for (int h = 0; h < m.p.heads; ++h)
        for (Addr c = 0; c < m.head_lines; ++c)
            rec.store(m.pc_v_append(),
                      m.kv(kVCache, req, layer, h, token) +
                          c * kLineSize);
    // Attention scores: token outer, head inner — each head is a
    // strided stream (stride = head_bytes) and the streams arrive
    // interleaved (multi-head concurrency).
    for (Addr j = 0; j < len; ++j) {
        for (int h = 0; h < m.p.heads; ++h)
            for (Addr c = 0; c < m.head_lines; ++c)
                rec.load(m.pc_k_read(),
                         m.kv(kKCache, req, layer, h, j) +
                             c * kLineSize);
        rec.store(m.pc_score_store(), m.score(req, j));
    }
    // Context accumulation: the same interleaved walk over V.
    for (Addr j = 0; j < len; ++j)
        for (int h = 0; h < m.p.heads; ++h)
            for (Addr c = 0; c < m.head_lines; ++c)
                rec.load(m.pc_v_read(),
                         m.kv(kVCache, req, layer, h, j) +
                             c * kLineSize);
    // Output projection + FFN weight streams, then the residual
    // read-modify-write of the token's hidden state.
    for (int mat = 3; mat < kMatrices; ++mat)
        emit_weight_stream(rec, m, layer, mat);
    for (Addr c = 0; c < m.x_lines; ++c)
        rec.load(m.pc_ffn_load(),
                 m.activation(req, token) + c * kLineSize);
    for (Addr c = 0; c < m.x_lines; ++c)
        rec.store(m.pc_ffn_store(),
                  m.activation(req, token) + c * kLineSize);
    rec.compute(static_cast<std::uint64_t>(
        std::max(0, m.p.compute_gap)));
}

/** Fresh prompt length: seq_start plus seeded jitter, clamped so the
 *  KV cache can still grow before the context cap. */
Addr
prompt_length(const TransformerParams &p, Rng &rng)
{
    const Addr base = static_cast<Addr>(std::max(1, p.seq_start));
    return base + rng.next_below(base / 2 + 1);
}

/** Context cap: generation ends and a new request begins. */
Addr
context_cap(const TransformerParams &p)
{
    const Addr cap = static_cast<Addr>(std::max(1, p.seq_start)) * 6;
    return std::min<Addr>(cap, kMaxTokens);
}

/**
 * Buffer size for a transformer trace. A whole step lands before the
 * budget is tested again, so a trace can end several percent past it
 * (prefill at Small scale: 6301 accesses over 160000); a buffer full
 * at that point would reallocate and copy the whole trace.
 */
std::uint64_t
with_headroom(std::uint64_t budget)
{
    return budget + budget / 16;
}

}  // namespace

Trace
make_transformer_prefill_trace(const TransformerParams &p)
{
    const std::uint64_t budget = checked_budget(p.max_accesses);
    Rng rng(p.seed);
    Trace t("xf_prefill");
    t.reserve(with_headroom(budget));
    TraceRecorder rec(t);
    const Model m(p);

    const Addr window =
        static_cast<Addr>(std::max(1, p.attn_window));
    while (rec.recorded() < budget) {
        // A new prompt: seeded length, token-id embedding gathers.
        const Addr len = prompt_length(p, rng);
        for (Addr i = 0; i < len; ++i)
            emit_embedding_gather(rec, m, rng);
        for (int layer = 0; layer < p.layers; ++layer) {
            for (int mat = 0; mat < kMatrices; ++mat)
                emit_weight_stream(rec, m, layer, mat);
            // Dense activation walk over the whole prompt.
            for (Addr i = 0; i < len; ++i)
                for (Addr c = 0; c < m.x_lines; ++c)
                    rec.load(m.pc_x(),
                             m.activation(0, i) + c * kLineSize);
            // Fill the layer's K/V cache for every prompt token.
            for (Addr i = 0; i < len; ++i)
                for (int h = 0; h < p.heads; ++h)
                    for (Addr c = 0; c < m.head_lines; ++c) {
                        rec.store(m.pc_k_append(),
                                  m.kv(kKCache, 0, layer, h, i) +
                                      c * kLineSize);
                        rec.store(m.pc_v_append(),
                                  m.kv(kVCache, 0, layer, h, i) +
                                      c * kLineSize);
                    }
            // Sliding-window causal attention per query token.
            for (Addr i = 0; i < len; ++i) {
                const Addr jlo = i + 1 > window ? i + 1 - window : 0;
                for (Addr j = jlo; j <= i; ++j)
                    for (int h = 0; h < p.heads; ++h)
                        for (Addr c = 0; c < m.head_lines; ++c)
                            rec.load(m.pc_k_read(),
                                     m.kv(kKCache, 0, layer, h, j) +
                                         c * kLineSize);
                rec.store(m.pc_score_store(), m.score(0, i));
                for (Addr j = jlo; j <= i; ++j)
                    for (int h = 0; h < p.heads; ++h)
                        for (Addr c = 0; c < m.head_lines; ++c)
                            rec.load(m.pc_v_read(),
                                     m.kv(kVCache, 0, layer, h, j) +
                                         c * kLineSize);
            }
            for (Addr i = 0; i < len; ++i) {
                for (Addr c = 0; c < m.x_lines; ++c)
                    rec.load(m.pc_ffn_load(),
                             m.activation(0, i) + c * kLineSize);
                for (Addr c = 0; c < m.x_lines; ++c)
                    rec.store(m.pc_ffn_store(),
                              m.activation(0, i) + c * kLineSize);
            }
            rec.compute(static_cast<std::uint64_t>(
                std::max(0, p.compute_gap)));
            if (rec.recorded() >= budget)
                break;
        }
    }
    return t;
}

Trace
make_transformer_decode_trace(const TransformerParams &p)
{
    const std::uint64_t budget = checked_budget(p.max_accesses);
    Rng rng(p.seed);
    Trace t("xf_decode");
    t.reserve(with_headroom(budget));
    TraceRecorder rec(t);
    const Model m(p);

    const Addr cap = context_cap(p);
    Addr len = prompt_length(p, rng);
    while (rec.recorded() < budget) {
        emit_embedding_gather(rec, m, rng);
        for (int layer = 0; layer < p.layers; ++layer) {
            emit_decode_layer(rec, m, 0, layer, len);
            if (rec.recorded() >= budget)
                break;
        }
        if (++len >= cap)
            len = prompt_length(p, rng);  // request done; next prompt
    }
    return t;
}

Trace
make_transformer_mixed_trace(const TransformerParams &p)
{
    const std::uint64_t budget = checked_budget(p.max_accesses);
    Rng rng(p.seed);
    Trace t("xf_mixed");
    t.reserve(with_headroom(budget));
    TraceRecorder rec(t);
    const Model m(p);

    const int batch = std::max(1, p.batch);
    const Addr cap = context_cap(p);
    // Staggered contexts: each tenant starts mid-generation.
    std::vector<Addr> len(static_cast<std::size_t>(batch));
    for (int b = 0; b < batch; ++b)
        len[static_cast<std::size_t>(b)] =
            prompt_length(p, rng) +
            rng.next_below(context_cap(p) / 2 + 1);
    while (rec.recorded() < budget) {
        for (int b = 0; b < batch; ++b)
            emit_embedding_gather(rec, m, rng);
        // Interleave at layer granularity: every tenant's layer-l
        // phase runs before any tenant's layer l+1 (batched serving).
        for (int layer = 0; layer < p.layers; ++layer) {
            for (int b = 0; b < batch; ++b)
                emit_decode_layer(rec, m, b, layer,
                                  len[static_cast<std::size_t>(b)]);
            if (rec.recorded() >= budget)
                break;
        }
        for (int b = 0; b < batch; ++b) {
            auto &l = len[static_cast<std::size_t>(b)];
            if (++l >= cap)
                l = prompt_length(p, rng);
        }
    }
    return t;
}

}  // namespace voyager::trace::gen
