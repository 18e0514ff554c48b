/**
 * @file
 * Loss functions: single-label softmax cross-entropy and the paper's
 * multi-label binary cross-entropy (§4.4). Both return the mean loss
 * and write the logit gradient (already divided by the batch size).
 */
#pragma once

#include <cstdint>
#include <vector>

#include "nn/matrix.hpp"

namespace voyager::nn {

/**
 * Mean softmax cross-entropy with one label per row.
 * @param logits (batch, classes)
 * @param labels batch labels in [0, classes)
 * @param dlogits receives (softmax - onehot) / batch
 */
double softmax_ce_loss(const Matrix &logits,
                       const std::vector<std::int32_t> &labels,
                       Matrix &dlogits);

/**
 * softmax_ce_loss from the softmax already taken: `probs` holds
 * softmax(logits) row by row on entry and (probs - onehot) / batch on
 * return. Bit-identical to softmax_ce_loss on the same logits.
 * @return mean loss
 */
double softmax_ce_from_probs(Matrix &probs,
                             const std::vector<std::int32_t> &labels);

/**
 * Mean multi-label BCE-with-logits: every class listed in labels[r]
 * is a positive for row r, everything else a negative (paper §4.4).
 * The per-row loss is summed over classes, then averaged over rows.
 * @param dlogits receives (sigmoid - y) / batch, with positive terms
 *        scaled by pos_weight
 * @param pos_weight weight on positive-class terms; >1 counteracts the
 *        1-positive-vs-many-negatives imbalance of large vocabularies
 */
double bce_multilabel_loss(const Matrix &logits,
                           const std::vector<std::vector<std::int32_t>> &
                               labels,
                           Matrix &dlogits, float pos_weight = 1.0f);

}  // namespace voyager::nn
