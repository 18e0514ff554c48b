/**
 * @file
 * The paper's page-aware offset embedding mechanism (§4.2.2): a
 * mixture-of-experts dot-product attention. The offset embedding
 * (batch, n*d) is read as n expert chunks of size d; the page
 * embedding (batch, d) is the query; each expert chunk serves as both
 * key and value. Output = attention-weighted sum of the chunks
 * (Eq. 9 and 10).
 */
#pragma once

#include <iosfwd>

#include "nn/matrix.hpp"

namespace voyager::nn {

/** Soft dot-product mixture-of-experts attention (no linear maps). */
class MoeAttention
{
  public:
    /**
     * @param experts number of expert chunks n
     * @param scale   the paper's scaling factor f in (0, 1]
     */
    explicit MoeAttention(std::size_t experts, float scale = 1.0f);

    /**
     * @param page_emb   query (batch, d)
     * @param offset_emb expert chunks (batch, n*d)
     * @param out        page-aware offset embedding (batch, d)
     */
    void forward(const Matrix &page_emb, const Matrix &offset_emb,
                 Matrix &out);

    /**
     * forward() without the caches backward() reads: the same
     * arithmetic, so `out` has the same bits, but the module's state
     * is untouched. Each output row depends only on its input rows.
     */
    void infer(const Matrix &page_emb, const Matrix &offset_emb,
               Matrix &out) const;

    /**
     * Backprop: splits d(out) into gradients for the page embedding
     * and the raw offset embedding (both overwritten).
     */
    void backward(const Matrix &dout, Matrix &dpage, Matrix &doffset);

    /** Attention weights of the last forward (batch, n). */
    const Matrix &weights() const { return attn_; }
    std::size_t experts() const { return experts_; }

    /**
     * The attention has no trainable parameters; save_state/load_state
     * keep the uniform module interface by writing the configuration
     * (experts, scale) as a consistency check only.
     */
    void save_state(std::ostream &os) const;
    /** @throws std::runtime_error on configuration mismatch. */
    void load_state(std::istream &is);

  private:
    /** Scores into `attn` (batch, n), then the mixture into `out`. */
    void mix(const Matrix &page_emb, const Matrix &offset_emb,
             Matrix &attn, Matrix &out) const;

    std::size_t experts_;
    float scale_;
    Matrix page_;    // cached query
    Matrix offset_;  // cached expert chunks
    Matrix attn_;    // cached softmax weights
};

}  // namespace voyager::nn
