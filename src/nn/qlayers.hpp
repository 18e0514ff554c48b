/**
 * @file
 * Inference-only quantized layers (DESIGN.md §5.13). Each is built
 * from its trained fp32 counterpart and exposes the same forward
 * shape contract. The matrix multiplies run int8 (qgemm_nt on
 * per-channel QMatrix weights and dynamically quantized u8
 * activations); the small elementwise tails — bias adds, LSTM gate
 * nonlinearities — stay fp32, where they are cheap and precision
 * actually matters.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "nn/layers.hpp"
#include "nn/lstm.hpp"
#include "nn/qmatrix.hpp"

namespace voyager::nn {

/** Int8 embedding table: gather rows, dequantize per-row scale. */
class QuantizedEmbedding
{
  public:
    explicit QuantizedEmbedding(const Embedding &src);

    /** Gather + dequantize rows: out(batch, dim). */
    void forward(const std::vector<std::int32_t> &ids,
                 Matrix &out) const;

    std::size_t vocab() const { return table_.rows(); }
    std::size_t dim() const { return table_.cols(); }
    const QMatrix &table() const { return table_; }

    /** int8 payload bytes (values + scales). */
    std::uint64_t int8_bytes() const { return table_.bytes(); }

  private:
    QMatrix table_;
};

/** Int8 fully connected layer: qgemm + fp32 bias. */
class QuantizedLinear
{
  public:
    explicit QuantizedLinear(const Linear &src);

    /** Y(batch,out) = dequant(qgemm(quant(X), Wq)) + b. */
    void forward(const Matrix &x, Matrix &y);

    std::size_t in_dim() const { return wq_.cols(); }
    std::size_t out_dim() const { return wq_.rows(); }
    const QMatrix &weight() const { return wq_; }

    /** int8 payload bytes plus the fp32 bias. */
    std::uint64_t int8_bytes() const
    {
        return wq_.bytes() + bias_.size() * sizeof(float);
    }

  private:
    QMatrix wq_;   ///< (out, in), per-output-channel scales
    Matrix bias_;  ///< (1, out) fp32
    QActivations qx_;
};

/**
 * Quantize the rows an int8 LSTM projects: qx = quant(x), then
 * qr = quant(x - dequant(qx)), the error-feedback residual on its own
 * per-row grid (~255x finer than the row's). Row-local, like
 * quantize_activations. A model whose LSTMs project the same rows
 * calls this once and hands the pair to each
 * QuantizedLstm::project_inputs.
 */
void quantize_with_residual(const Matrix &x, QActivations &qx,
                            QActivations &qr);

/**
 * Int8 LSTM: both gate GEMMs (x * Wx and h * Wh) run int8 with the
 * inputs quantized dynamically per row. The x * Wx projection runs
 * once per distinct input row, outside the recurrence, and adds an
 * error-feedback residual pass — the fp32 leftover of the first
 * quantization is itself quantized on a ~255x finer per-row grid and
 * accumulated by a second qgemm, giving ~16 effective activation
 * bits from pure int8 kernels on the concatenated (heterogeneous)
 * input rows. The recurrence re-quantizes h each step. The fp32 tail
 * is the trainable LSTM's own gate kernel (nn::lstm_gate_row: bias +
 * sigmoid/tanh + cell update), charged to the same `nn.lstm_gate` op
 * class.
 */
class QuantizedLstm
{
  public:
    explicit QuantizedLstm(const Lstm &src);

    /**
     * proj(rows, 4H) = int8 x Wx for distinct input rows x (rows,
     * in_dim), given as quantize_with_residual(x, qx, qr): the
     * quantized pass, then the residual pass, into a zeroed buffer.
     * Per-row exact: quantization and qgemm_nt are both row-local.
     */
    void project_inputs(const QActivations &qx, const QActivations &qr,
                        Matrix &proj) const;

    /**
     * Run the sequence from zero state over projected inputs (see
     * Lstm::forward_inference): step t of sample b starts from
     * z = proj.row(rows.at(t, b)), then only h * Wh and the gate
     * kernel run. h_last = h_T (rows.batch, H).
     */
    void forward(const Matrix &proj, const StepRows &rows,
                 Matrix &h_last);

    std::size_t in_dim() const { return wxq_.cols(); }
    std::size_t hidden() const { return whq_.cols(); }
    const QMatrix &wx() const { return wxq_; }
    const QMatrix &wh() const { return whq_; }

    /** int8 payload bytes plus the fp32 bias. */
    std::uint64_t int8_bytes() const
    {
        return wxq_.bytes() + whq_.bytes() +
               bias_.size() * sizeof(float);
    }

  private:
    QMatrix wxq_;  ///< (4H, in)
    QMatrix whq_;  ///< (4H, H)
    Matrix bias_;  ///< (1, 4H) fp32
    QActivations qh_;
    Matrix z_;       ///< (B, 4H) gate pre-activations
    Matrix h_prev_;  ///< (B, H)
    Matrix c_prev_;  ///< (B, H)
    Matrix c_cur_;   ///< (B, H)
};

}  // namespace voyager::nn
