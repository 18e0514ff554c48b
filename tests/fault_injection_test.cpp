/**
 * @file
 * Fault-injection subsystem tests (DESIGN.md §5.14): FaultPlan
 * grammar round-trips and fingerprints, deterministic injector
 * firing, the Adam non-finite guard (a poisoned gradient must skip
 * the step instead of NaN-ing every weight through the clip scale),
 * atomic-file partial-failure paths (short write / failed rename must
 * leave the original intact and raise).
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "nn/adam.hpp"
#include "nn/matrix.hpp"
#include "nn/ops.hpp"
#include "util/atomic_file.hpp"
#include "util/fault_injection.hpp"
#include "util/health.hpp"
#include "util/stat_registry.hpp"

namespace voyager {
namespace {

/**
 * Every test runs against pristine process-wide singletons: the
 * injector, the health counters and the fault counters all accumulate
 * across tests in one binary otherwise.
 */
class FaultFixture : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        fault_injector().clear();
        health_stats().reset();
        fault_stats().reset();
    }

    void
    TearDown() override
    {
        fault_injector().clear();
        health_stats().reset();
        fault_stats().reset();
    }
};

using FaultPlanTest = FaultFixture;
using FaultInjectorTest = FaultFixture;
using AdamGuardTest = FaultFixture;
using AtomicFileFaultTest = FaultFixture;

// ---------------------------------------------------------------------
// FaultPlan grammar
// ---------------------------------------------------------------------

TEST_F(FaultPlanTest, ParsesSitesOptionsAndSeed)
{
    const auto plan = FaultPlan::parse(
        "nan_grad@step=7;loss_spike@epoch=2:x=50;"
        "io_short@write=0;inf_grad@step=3:every=4;seed=9");
    ASSERT_EQ(plan.sites.size(), 4u);
    EXPECT_EQ(plan.sites[0].kind, FaultKind::NanGrad);
    EXPECT_EQ(plan.sites[0].at, 7u);
    EXPECT_EQ(plan.sites[0].every, 0u);
    EXPECT_EQ(plan.sites[1].kind, FaultKind::LossSpike);
    EXPECT_EQ(plan.sites[1].at, 2u);
    EXPECT_DOUBLE_EQ(plan.sites[1].magnitude, 50.0);
    EXPECT_EQ(plan.sites[2].kind, FaultKind::IoShortWrite);
    EXPECT_EQ(plan.sites[3].kind, FaultKind::InfGrad);
    EXPECT_EQ(plan.sites[3].every, 4u);
    EXPECT_EQ(plan.seed, 9u);
}

TEST_F(FaultPlanTest, RoundTripsThroughCanonicalForm)
{
    const auto plan = FaultPlan::parse(
        "nan_weight@step=11:every=2;io_fail@write=64;"
        "loss_spike@epoch=1:x=1000;seed=3");
    const auto again = FaultPlan::parse(plan.to_string());
    EXPECT_EQ(again.sites, plan.sites);
    EXPECT_EQ(again.seed, plan.seed);
    EXPECT_EQ(again.to_string(), plan.to_string());
}

TEST_F(FaultPlanTest, EmptyAndBlankSpecsAreEmptyPlans)
{
    EXPECT_TRUE(FaultPlan::parse("").empty());
    EXPECT_TRUE(FaultPlan::parse(" ; ;").empty());
}

TEST_F(FaultPlanTest, FingerprintIsStableAndDiscriminating)
{
    const auto a = FaultPlan::parse("nan_grad@step=7");
    const auto b = FaultPlan::parse("nan_grad@step=8");
    EXPECT_EQ(a.fingerprint().size(), 8u);
    EXPECT_EQ(a.fingerprint(), a.fingerprint());
    EXPECT_EQ(a.fingerprint(),
              FaultPlan::parse("nan_grad@at=7").fingerprint());
    EXPECT_NE(a.fingerprint(), b.fingerprint());
}

TEST_F(FaultPlanTest, MalformedSpecsThrow)
{
    struct Case
    {
        const char *spec;
        const char *names;  ///< what the message must quote
    };
    const Case bad[] = {
        {"bogus@step=1", "'bogus'"},             // unknown kind
        {"trace_corrupt@byte=9", "'trace_corrupt'"},
        {"trace_truncate@byte=9", "'trace_truncate'"},
        {"nan_grad@", "expected key=value"},     // no event index
        {"nan_grad@step", "'step'"},             // no '='
        {"nan_grad@step=x", "'x'"},              // non-numeric index
        {"nan_grad@depth=1", "'depth'"},         // unknown event key
        {"nan_grad@step=1:q=2", "'q'"},          // unknown option
        {"nan_grad@step=1:every=z", "'z'"},
        {"loss_spike@epoch=1:x=zz", "'zz'"},
        {"frequency=3", "'frequency=3'"},        // unknown bare directive
        {"seed=abc", "'abc'"},
    };
    for (const Case &c : bad) {
        try {
            FaultPlan::parse(c.spec);
            ADD_FAILURE() << "spec '" << c.spec << "' accepted";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find(c.names),
                      std::string::npos)
                << c.spec << ": " << e.what();
        }
    }
}

// ---------------------------------------------------------------------
// Injector firing semantics
// ---------------------------------------------------------------------

TEST_F(FaultInjectorTest, OneShotSiteFiresExactlyOnce)
{
    fault_injector().install(FaultPlan::parse("nan_grad@step=2"));
    std::vector<bool> fired;
    for (int i = 0; i < 6; ++i)
        fired.push_back(
            fault_injector().on_optimizer_step().grad.has_value());
    EXPECT_EQ(fired, (std::vector<bool>{
                         false, false, true, false, false, false}));
    EXPECT_EQ(fault_stats().injected_grad, 1u);
}

TEST_F(FaultInjectorTest, StridedSiteRefires)
{
    fault_injector().install(
        FaultPlan::parse("nan_weight@step=1:every=2"));
    std::vector<bool> fired;
    for (int i = 0; i < 6; ++i)
        fired.push_back(
            fault_injector().on_optimizer_step().weight.has_value());
    EXPECT_EQ(fired, (std::vector<bool>{
                         false, true, false, true, false, true}));
    EXPECT_EQ(fault_stats().injected_weight, 3u);
}

TEST_F(FaultInjectorTest, LossSpikeScalesOnceAtItsEpoch)
{
    fault_injector().install(
        FaultPlan::parse("loss_spike@epoch=1:x=50"));
    EXPECT_DOUBLE_EQ(fault_injector().on_epoch_loss(0, 2.0), 2.0);
    EXPECT_DOUBLE_EQ(fault_injector().on_epoch_loss(1, 2.0), 150.0);
    // One-shot: a recovery retry of the same epoch stays clean.
    EXPECT_DOUBLE_EQ(fault_injector().on_epoch_loss(1, 2.0), 2.0);
    EXPECT_EQ(fault_stats().injected_loss_spike, 1u);
}

TEST_F(FaultInjectorTest, DisabledInjectorIsANoOp)
{
    EXPECT_FALSE(fault_injector().enabled());
    EXPECT_FALSE(fault_injector().on_optimizer_step().grad);
    EXPECT_DOUBLE_EQ(fault_injector().on_epoch_loss(0, 3.5), 3.5);
    EXPECT_EQ(fault_injector().on_atomic_write(), IoFaultAction::None);
}

TEST_F(FaultInjectorTest, InstallResetsCursorsAndCounters)
{
    fault_injector().install(FaultPlan::parse("nan_grad@step=0"));
    EXPECT_TRUE(fault_injector().on_optimizer_step().grad.has_value());
    EXPECT_EQ(fault_stats().plan_sites, 1u);
    // Reinstalling the same plan replays it from event zero.
    fault_injector().install(FaultPlan::parse("nan_grad@step=0"));
    EXPECT_TRUE(fault_injector().on_optimizer_step().grad.has_value());
    fault_injector().clear();
    EXPECT_FALSE(fault_injector().enabled());
    EXPECT_EQ(fault_stats().plan_sites, 0u);
}

// ---------------------------------------------------------------------
// Adam non-finite guard (the clip-scale NaN hazard)
// ---------------------------------------------------------------------

TEST_F(AdamGuardTest, PoisonedGradientSkipsTheStep)
{
    nn::Param p(1, 2);
    p.value.data()[0] = 1.0f;
    p.value.data()[1] = 2.0f;
    nn::Adam opt;
    opt.add_param(&p);

    p.grad.data()[0] = std::numeric_limits<float>::quiet_NaN();
    p.grad.data()[1] = 0.5f;
    opt.step();

    // Weights untouched, step counter not advanced, gradients zeroed,
    // and the skip counted both locally and process-wide.
    EXPECT_FLOAT_EQ(p.value.data()[0], 1.0f);
    EXPECT_FLOAT_EQ(p.value.data()[1], 2.0f);
    EXPECT_EQ(opt.steps(), 0u);
    EXPECT_EQ(opt.skipped_steps(), 1u);
    EXPECT_FLOAT_EQ(p.grad.data()[1], 0.0f);
    EXPECT_EQ(health_stats().skipped_steps, 1u);

    // An Inf gradient is skipped the same way.
    p.grad.data()[0] = std::numeric_limits<float>::infinity();
    opt.step();
    EXPECT_EQ(opt.skipped_steps(), 2u);
    EXPECT_FLOAT_EQ(p.value.data()[0], 1.0f);

    // The next clean gradient trains normally.
    p.grad.data()[0] = 0.25f;
    p.grad.data()[1] = 0.25f;
    opt.step();
    EXPECT_EQ(opt.steps(), 1u);
    EXPECT_EQ(opt.skipped_steps(), 2u);
    EXPECT_TRUE(nn::is_finite(p.value));
    EXPECT_NE(p.value.data()[0], 1.0f);
}

TEST_F(AdamGuardTest, InjectedGradPoisonIsSkippedNotApplied)
{
    fault_injector().install(FaultPlan::parse("nan_grad@step=1"));
    nn::Param p(1, 2);
    p.value.data()[0] = 1.0f;
    nn::Adam opt;
    opt.add_param(&p);

    p.grad.data()[0] = 0.5f;
    opt.step();  // step 0: clean
    const float after_clean = p.value.data()[0];
    EXPECT_EQ(opt.steps(), 1u);

    p.grad.data()[0] = 0.5f;
    opt.step();  // step 1: injector poisons the gradient
    EXPECT_EQ(opt.skipped_steps(), 1u);
    EXPECT_FLOAT_EQ(p.value.data()[0], after_clean);
    EXPECT_EQ(fault_stats().injected_grad, 1u);
    EXPECT_TRUE(nn::is_finite(p.value));
}

// ---------------------------------------------------------------------
// Atomic-file partial failures
// ---------------------------------------------------------------------

std::string
read_file(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::stringstream ss;
    ss << is.rdbuf();
    return ss.str();
}

std::string
fault_tmp_path(const std::string &stem)
{
    const auto dir = std::filesystem::temp_directory_path();
    return (dir / ("voyager_fault_" + stem + ".bin")).string();
}

TEST_F(AtomicFileFaultTest, ShortWriteLeavesOriginalIntact)
{
    const std::string path = fault_tmp_path("short");
    write_file_atomic(path, "original contents");

    fault_injector().install(FaultPlan::parse("io_short@write=0"));
    EXPECT_THROW(write_file_atomic(path, "replacement!"),
                 std::runtime_error);
    EXPECT_EQ(read_file(path), "original contents");
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
    EXPECT_EQ(fault_stats().injected_io, 1u);

    // The site is one-shot: the retry goes through.
    write_file_atomic(path, "replacement!");
    EXPECT_EQ(read_file(path), "replacement!");
    std::filesystem::remove(path);
}

TEST_F(AtomicFileFaultTest, FailedRenameLeavesOriginalIntact)
{
    const std::string path = fault_tmp_path("rename");
    write_file_atomic(path, "original contents");

    fault_injector().install(FaultPlan::parse("io_fail@write=0"));
    EXPECT_THROW(write_file_atomic(path, "replacement!"),
                 std::runtime_error);
    EXPECT_EQ(read_file(path), "original contents");
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
    EXPECT_EQ(fault_stats().injected_io, 1u);

    write_file_atomic(path, "replacement!");
    EXPECT_EQ(read_file(path), "replacement!");
    std::filesystem::remove(path);
}

// ---------------------------------------------------------------------
// Serve-path faults (DESIGN.md §5.19)
// ---------------------------------------------------------------------

TEST_F(FaultPlanTest, ParsesServeKindsAndRoundTrips)
{
    const auto plan = FaultPlan::parse(
        "serve_stall@batch=2:every=5:x=24;serve_flood@submit=7:x=12;"
        "serve_poison@batch=3;serve_misroute@response=5:every=17;"
        "seed=9");
    ASSERT_EQ(plan.sites.size(), 4u);
    EXPECT_EQ(plan.sites[0].kind, FaultKind::ServeStall);
    EXPECT_EQ(plan.sites[0].at, 2u);
    EXPECT_EQ(plan.sites[0].every, 5u);
    EXPECT_DOUBLE_EQ(plan.sites[0].magnitude, 24.0);
    EXPECT_EQ(plan.sites[1].kind, FaultKind::ServeFlood);
    EXPECT_DOUBLE_EQ(plan.sites[1].magnitude, 12.0);
    EXPECT_EQ(plan.sites[2].kind, FaultKind::ServePoison);
    EXPECT_EQ(plan.sites[3].kind, FaultKind::ServeMisroute);
    EXPECT_EQ(plan.sites[3].every, 17u);

    const auto again = FaultPlan::parse(plan.to_string());
    EXPECT_EQ(again.sites, plan.sites);
    EXPECT_EQ(again.to_string(), plan.to_string());
    EXPECT_NE(plan.fingerprint(),
              FaultPlan::parse("serve_stall@batch=2:every=5:x=25")
                  .fingerprint());
}

TEST_F(FaultInjectorTest, ServeBatchHooksFireDeterministically)
{
    fault_injector().install(FaultPlan::parse(
        "serve_stall@batch=1:every=2:x=10;serve_poison@batch=2"));
    std::vector<std::uint64_t> stalls;
    std::vector<bool> poisons;
    for (int i = 0; i < 6; ++i) {
        const auto f = fault_injector().on_serve_batch();
        stalls.push_back(f.stall_ticks);
        poisons.push_back(f.poison);
    }
    EXPECT_EQ(stalls,
              (std::vector<std::uint64_t>{0, 10, 0, 10, 0, 10}));
    EXPECT_EQ(poisons, (std::vector<bool>{
                           false, false, true, false, false, false}));
    EXPECT_EQ(fault_stats().serve_stalls, 3u);
    EXPECT_EQ(fault_stats().serve_poisoned, 1u);
}

TEST_F(FaultInjectorTest, ServeFloodBurstsAtItsStride)
{
    fault_injector().install(
        FaultPlan::parse("serve_flood@submit=1:every=3:x=5"));
    std::vector<std::uint64_t> bursts;
    for (int i = 0; i < 7; ++i)
        bursts.push_back(fault_injector().on_serve_submit());
    EXPECT_EQ(bursts,
              (std::vector<std::uint64_t>{0, 5, 0, 0, 5, 0, 0}));
    EXPECT_EQ(fault_stats().serve_floods, 2u);
}

TEST_F(FaultInjectorTest, ServeMisrouteIsSeededAndRepairable)
{
    fault_injector().install(
        FaultPlan::parse("serve_misroute@response=0;seed=11"));
    std::uint32_t tenant = 3;
    // Mask is 1 + 11 % 7 = 5, so 3 ^ 5 = 6: always a different id.
    EXPECT_TRUE(fault_injector().corrupt_serve_route(tenant));
    EXPECT_EQ(tenant, 6u);
    // One-shot: the next response routes cleanly.
    EXPECT_FALSE(fault_injector().corrupt_serve_route(tenant));
    EXPECT_EQ(tenant, 6u);
    EXPECT_EQ(fault_stats().serve_misroutes, 1u);

    // Reinstalling replays the identical corruption.
    fault_injector().install(
        FaultPlan::parse("serve_misroute@response=0;seed=11"));
    std::uint32_t again = 3;
    EXPECT_TRUE(fault_injector().corrupt_serve_route(again));
    EXPECT_EQ(again, 6u);
}

TEST_F(FaultInjectorTest, DisabledServeHooksAreNoOps)
{
    EXPECT_FALSE(fault_injector().enabled());
    const auto f = fault_injector().on_serve_batch();
    EXPECT_EQ(f.stall_ticks, 0u);
    EXPECT_FALSE(f.poison);
    EXPECT_EQ(fault_injector().on_serve_submit(), 0u);
    std::uint32_t tenant = 9;
    EXPECT_FALSE(fault_injector().corrupt_serve_route(tenant));
    EXPECT_EQ(tenant, 9u);
}

TEST_F(FaultInjectorTest, ExportsServeFaultCounters)
{
    fault_injector().install(FaultPlan::parse(
        "serve_stall@batch=0:x=4;serve_flood@submit=0:x=2;"
        "serve_misroute@response=0"));
    (void)fault_injector().on_serve_batch();
    (void)fault_injector().on_serve_submit();
    std::uint32_t tenant = 1;
    (void)fault_injector().corrupt_serve_route(tenant);
    StatRegistry reg;
    export_fault_stats(reg);
    EXPECT_EQ(reg.counter("fault.serve.stalls"), 1u);
    EXPECT_EQ(reg.counter("fault.serve.floods"), 1u);
    EXPECT_EQ(reg.counter("fault.serve.misroutes"), 1u);
    EXPECT_EQ(reg.counter("fault.serve.poisoned"), 0u);
}

// ---------------------------------------------------------------------
// Stats export
// ---------------------------------------------------------------------

TEST_F(FaultInjectorTest, ExportsClosedNamespaces)
{
    fault_injector().install(FaultPlan::parse("nan_grad@step=0"));
    (void)fault_injector().on_optimizer_step();
    StatRegistry reg;
    export_fault_stats(reg);
    export_health_stats(reg);
    const std::string doc = reg.json();
    EXPECT_NE(doc.find("\"fault.plan_sites\""), std::string::npos);
    EXPECT_NE(doc.find("\"fault.injected_grad\""), std::string::npos);
    EXPECT_NE(doc.find("\"health.skipped_steps\""), std::string::npos);
    // Deterministic counters: present in the non-volatile document
    // too (unlike checkpoint.*), so golden runs pin them.
    StatEmitOptions opts;
    opts.include_volatile = false;
    EXPECT_NE(reg.json(opts).find("\"fault.plan_sites\""),
              std::string::npos);
    EXPECT_NE(reg.json(opts).find("\"health.checks\""),
              std::string::npos);
}

}  // namespace
}  // namespace voyager
