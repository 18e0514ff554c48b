/**
 * @file
 * End-to-end learning tests for the NN substrate: small networks must
 * actually fit small problems (the real proof the math is wired up).
 */
#include <gtest/gtest.h>

#include "nn/adam.hpp"
#include "nn/layers.hpp"
#include "nn/loss.hpp"
#include "nn/lstm.hpp"
#include "nn/ops.hpp"
#include "reference.hpp"

namespace voyager::nn {
namespace {

TEST(Training, LinearClassifierSeparatesClusters)
{
    // Two Gaussian clusters; logistic regression must exceed 95%.
    Rng rng(1);
    Linear lin(2, 2, rng);
    Adam opt(AdamConfig{0.05, 0.9, 0.999, 1e-8, 0.0});
    opt.add_param(&lin.weight());
    opt.add_param(&lin.bias());

    auto sample = [&rng](int cls, Matrix &x, std::size_t row) {
        const float cx = cls == 0 ? -1.0f : 1.0f;
        x.at(row, 0) =
            cx + static_cast<float>(rng.next_gaussian()) * 0.3f;
        x.at(row, 1) =
            -cx + static_cast<float>(rng.next_gaussian()) * 0.3f;
    };

    Matrix x(16, 2);
    std::vector<std::int32_t> labels(16);
    for (int step = 0; step < 150; ++step) {
        for (std::size_t r = 0; r < 16; ++r) {
            labels[r] = static_cast<std::int32_t>(rng.next_below(2));
            sample(labels[r], x, r);
        }
        Matrix y;
        lin.forward(x, y);
        Matrix dl;
        softmax_ce_loss(y, labels, dl);
        Matrix dx;
        lin.backward(dl, dx);
        opt.step();
    }

    int correct = 0;
    const int trials = 200;
    Matrix xt(1, 2);
    for (int i = 0; i < trials; ++i) {
        const int cls = static_cast<int>(rng.next_below(2));
        sample(cls, xt, 0);
        Matrix y;
        lin.forward(xt, y);
        correct += argmax_rows(y)[0] == cls;
    }
    EXPECT_GT(correct, trials * 95 / 100);
}

TEST(Training, LstmLearnsToRecallFirstToken)
{
    // Task: the label equals the token presented at t=0; the LSTM must
    // carry it across T steps (memory test).
    Rng rng(2);
    const std::size_t T = 6;
    const std::size_t B = 8;
    const std::size_t V = 4;
    Embedding emb(V, 8, rng);
    Lstm lstm(8, 16, rng);
    Linear head(16, V, rng);
    Adam opt(AdamConfig{0.01, 0.9, 0.999, 1e-8, 5.0});
    opt.add_embedding(&emb);
    opt.add_param(&lstm.wx());
    opt.add_param(&lstm.wh());
    opt.add_param(&lstm.bias());
    opt.add_param(&head.weight());
    opt.add_param(&head.bias());

    auto run_batch = [&](bool train) {
        std::vector<std::vector<std::int32_t>> ids(
            T, std::vector<std::int32_t>(B));
        std::vector<std::int32_t> labels(B);
        for (std::size_t b = 0; b < B; ++b) {
            labels[b] = static_cast<std::int32_t>(rng.next_below(V));
            ids[0][b] = labels[b];
            for (std::size_t t = 1; t < T; ++t)
                ids[t][b] =
                    static_cast<std::int32_t>(rng.next_below(V));
        }
        std::vector<Matrix> xs(T);
        for (std::size_t t = 0; t < T; ++t)
            emb.forward(ids[t], xs[t]);
        Matrix h;
        lstm.forward(xs, h);
        Matrix y;
        head.forward(h, y);
        if (!train) {
            const auto pred = argmax_rows(y);
            int ok = 0;
            for (std::size_t b = 0; b < B; ++b)
                ok += pred[b] == labels[b];
            return static_cast<double>(ok) / static_cast<double>(B);
        }
        Matrix dl;
        softmax_ce_loss(y, labels, dl);
        Matrix dh;
        head.backward(dl, dh);
        std::vector<Matrix> dxs;
        lstm.backward(dh, dxs);
        for (std::size_t t = 0; t < T; ++t)
            emb.backward(ids[t], dxs[t]);
        opt.step();
        return 0.0;
    };

    for (int step = 0; step < 400; ++step)
        run_batch(true);
    double acc = 0.0;
    for (int i = 0; i < 10; ++i)
        acc += run_batch(false);
    EXPECT_GT(acc / 10.0, 0.9);
}

TEST(Training, LossDecreasesMonotonicallyOnFixedBatch)
{
    Rng rng(3);
    Linear lin(4, 3, rng);
    Adam opt(AdamConfig{0.02, 0.9, 0.999, 1e-8, 0.0});
    opt.add_param(&lin.weight());
    opt.add_param(&lin.bias());
    Matrix x(6, 4);
    uniform_init(x, 1.0f, rng);
    const std::vector<std::int32_t> labels = {0, 1, 2, 0, 1, 2};

    double first = 0.0;
    double last = 0.0;
    for (int step = 0; step < 200; ++step) {
        Matrix y;
        lin.forward(x, y);
        Matrix dl;
        const double loss = softmax_ce_loss(y, labels, dl);
        if (step == 0)
            first = loss;
        last = loss;
        Matrix dx;
        lin.backward(dl, dx);
        opt.step();
    }
    EXPECT_LT(last, first * 0.2);
}

TEST(Training, BceDrivesPositivesAboveNegatives)
{
    Rng rng(4);
    Linear lin(3, 6, rng);
    Adam opt(AdamConfig{0.02, 0.9, 0.999, 1e-8, 0.0});
    opt.add_param(&lin.weight());
    opt.add_param(&lin.bias());
    Matrix x(2, 3);
    uniform_init(x, 1.0f, rng);
    const std::vector<std::vector<std::int32_t>> labels = {{1, 4}, {0}};

    for (int step = 0; step < 300; ++step) {
        Matrix y;
        lin.forward(x, y);
        Matrix dl;
        bce_multilabel_loss(y, labels, dl);
        Matrix dx;
        lin.backward(dl, dx);
        opt.step();
    }
    Matrix y;
    lin.forward(x, y);
    sigmoid_inplace(y);
    EXPECT_GT(y.at(0, 1), 0.8f);
    EXPECT_GT(y.at(0, 4), 0.8f);
    EXPECT_LT(y.at(0, 0), 0.2f);
    EXPECT_GT(y.at(1, 0), 0.8f);
    EXPECT_LT(y.at(1, 1), 0.2f);
}

}  // namespace
}  // namespace voyager::nn
