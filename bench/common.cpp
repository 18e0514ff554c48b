#include "common.hpp"

#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <stdexcept>

#include "nn/ops.hpp"
#include "prefetch/registry.hpp"
#include "util/fault_injection.hpp"
#include "util/health.hpp"
#include "util/string_util.hpp"

namespace voyager::bench {

namespace {

constexpr std::uint32_t kCacheMagic = 0x564f5943;  // "VOYC"
// v4: degraded flag + rollback/skipped-step counters (§5.14).
constexpr std::uint32_t kCacheVersion = 4;

template <typename T>
void
write_pod(std::ostream &os, const T &v)
{
    os.write(reinterpret_cast<const char *>(&v), sizeof(v));
}

template <typename T>
bool
read_pod(std::istream &is, T &v)
{
    is.read(reinterpret_cast<char *>(&v), sizeof(v));
    return static_cast<bool>(is);
}

/**
 * An exception no bench main catches (a rejected flag value, an
 * unknown benchmark name, an unwritable output path) ends the process
 * with an `Error: <what>` line and exit 1, voyager_cli's status for
 * the same errors, instead of std::terminate's abort. Any other
 * terminate cause still aborts.
 */
[[noreturn]] void
exit_on_uncaught_exception()
{
    if (const auto e = std::current_exception()) {
        try {
            std::rethrow_exception(e);
        } catch (const std::exception &ex) {
            std::cerr << "Error: " << ex.what() << "\n";
        } catch (...) {
            std::cerr << "Error: unknown exception\n";
        }
        std::cout.flush();
        std::_Exit(1);
    }
    std::abort();
}

// Installed at static initialisation, so it also covers throws from
// BenchContext's constructor; every binary that builds a BenchContext
// links this file.
[[maybe_unused]] const bool kExitOnUncaughtInstalled =
    (std::set_terminate(exit_on_uncaught_exception), true);

}  // namespace

BenchContext::BenchContext(int argc, const char *const *argv,
                           const std::string &bench_name)
    : bench_name_(bench_name), cfg_(Config::from_args(argc, argv))
{
    scale_ = trace::gen::parse_scale(cfg_.get_string("scale", "small"));
    switch (scale_) {
      case Scale::Paper:
        sim_ = sim::default_sim_config();
        break;
      case Scale::Small:
        sim_ = sim::small_sim_config();
        break;
      case Scale::Tiny:
        sim_ = sim::tiny_sim_config();
        break;
    }
    seed_ = cfg_.get_uint("seed", 1);
    epochs_ = cfg_.get_uint("epochs", 5);
    passes_ = cfg_.get_uint(
        "passes", scale_ == Scale::Paper ? 1 : 3);
    max_samples_ = cfg_.get_uint(
        "max_samples", scale_ == Scale::Paper ? 0 : 6000);
    llc_cap_ = cfg_.get_uint(
        "llc_cap", scale_ == Scale::Paper ? 0 : 20000);
    cache_dir_ = cfg_.get_string("cache_dir", "bench_cache");
    use_cache_ = !cfg_.get_bool("no_cache", false);
    checkpoint_dir_ = cfg_.get_string("checkpoint", "");
    checkpoint_every_ = cfg_.get_uint("checkpoint_every", 1);
    resume_ = cfg_.get_bool("resume", false);
    strict_ = cfg_.get_bool("strict", false);
    stats_json_path_ = cfg_.get_string("stats_json", "");
    stats_csv_path_ = cfg_.get_string("stats_csv", "");
    start_time_ = std::chrono::steady_clock::now();

    const std::string fault_spec = cfg_.get_string("fault_plan", "");
    if (!fault_spec.empty()) {
        const auto plan = FaultPlan::parse(fault_spec);
        fault_injector().install(plan);
        stats_.set_meta("fault_plan", plan.to_string());
        stats_.set_meta("fault_fingerprint", plan.fingerprint());
    }

    const char *scale_name = scale_ == Scale::Paper  ? "paper"
                           : scale_ == Scale::Small ? "small"
                                                    : "tiny";
    stats_.set_meta("bench", bench_name_);
    stats_.set_meta("scale", scale_name);
    stats_.set_meta("seed", std::to_string(seed_));
    stats_.set_meta("epochs", std::to_string(epochs_));
    stats_.set_meta("passes", std::to_string(passes_));
    stats_.set_meta("max_samples", std::to_string(max_samples_));
    stats_.set_meta("llc_cap", std::to_string(llc_cap_));
}

BenchContext::~BenchContext()
{
    try {
        emit_stats();
    } catch (const std::exception &e) {
        std::cerr << "stats emission failed: " << e.what() << "\n";
    }
}

void
BenchContext::emit_stats()
{
    if (stats_emitted_ ||
        (stats_json_path_.empty() && stats_csv_path_.empty()))
        return;
    stats_emitted_ = true;
    nn::export_op_stats(stats_);
    core::export_checkpoint_stats(stats_);
    export_health_stats(stats_);
    export_fault_stats(stats_);
    stats_.set_meta("degraded", any_degraded_ ? "1" : "0");
    stats_.gauge("wall.seconds", true) =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_time_)
            .count();
    if (!stats_json_path_.empty()) {
        std::ofstream os(stats_json_path_);
        if (!os)
            throw std::runtime_error("cannot open " + stats_json_path_);
        stats_.write_json(os);
    }
    if (!stats_csv_path_.empty()) {
        std::ofstream os(stats_csv_path_);
        if (!os)
            throw std::runtime_error("cannot open " + stats_csv_path_);
        stats_.write_csv(os);
    }
}

std::vector<std::string>
BenchContext::benchmarks(const std::vector<std::string> &defaults) const
{
    const std::string filter = cfg_.get_string("benchmarks", "");
    if (filter.empty() || filter == "default")
        return defaults;
    if (filter == "all")
        return trace::gen::all_benchmarks();
    std::vector<std::string> out;
    for (auto &name : split(filter, ','))
        out.push_back(trim(name));
    return out;
}

const trace::Trace &
BenchContext::get_trace(const std::string &benchmark)
{
    auto it = traces_.find(benchmark);
    if (it == traces_.end()) {
        auto t = trace::gen::make_workload(benchmark, scale_, seed_);
        if (llc_cap_ > 0) {
            // Truncate the trace at the llc_cap-th LLC access so the
            // neural-training cost is bounded uniformly across
            // benchmarks with very different filter rates.
            const auto &oltp = trace::gen::oltp_benchmarks();
            if (std::find(oltp.begin(), oltp.end(), benchmark) !=
                oltp.end()) {
                t.truncate(llc_cap_);
            } else {
                const auto stream = sim::extract_llc_stream(t, sim_);
                if (stream.size() > llc_cap_) {
                    const auto cutoff = stream[llc_cap_].instr_id;
                    std::size_t keep = t.size();
                    for (std::size_t i = 0; i < t.size(); ++i) {
                        if (t[i].instr_id >= cutoff) {
                            keep = i;
                            break;
                        }
                    }
                    t.truncate(keep);
                }
            }
        }
        const auto ts = t.stats();
        const std::string p = "trace." + stat_name_segment(benchmark);
        stats_.counter(p + ".accesses") = ts.accesses;
        stats_.counter(p + ".instructions") = ts.instructions;
        stats_.counter(p + ".unique_pcs") = ts.unique_pcs;
        stats_.counter(p + ".unique_lines") = ts.unique_lines;
        stats_.counter(p + ".unique_pages") = ts.unique_pages;
        stats_.gauge(p + ".load_fraction") = ts.load_fraction;
        it = traces_.emplace(
            benchmark,
            std::make_unique<trace::Trace>(std::move(t))).first;
    }
    return *it->second;
}

const std::vector<LlcAccess> &
BenchContext::get_stream(const std::string &benchmark)
{
    auto it = streams_.find(benchmark);
    if (it == streams_.end()) {
        // search/ads traces model memory instructions only (no IPC
        // simulation in the paper either); their "LLC stream" is the
        // raw access stream.
        std::vector<LlcAccess> stream;
        const auto &oltp = trace::gen::oltp_benchmarks();
        if (std::find(oltp.begin(), oltp.end(), benchmark) !=
            oltp.end()) {
            const auto &t = get_trace(benchmark);
            stream.reserve(t.size());
            for (std::size_t i = 0; i < t.size(); ++i) {
                LlcAccess a;
                a.index = i;
                a.instr_id = t[i].instr_id;
                a.pc = t[i].pc;
                a.line = t[i].line();
                a.is_load = t[i].is_load;
                stream.push_back(a);
            }
        } else {
            stream = sim::extract_llc_stream(get_trace(benchmark), sim_);
        }
        stats_.counter("trace." + stat_name_segment(benchmark) +
                       ".llc_stream_len") = stream.size();
        it = streams_.emplace(
            benchmark,
            std::make_unique<std::vector<LlcAccess>>(
                std::move(stream))).first;
    }
    return *it->second;
}

core::VoyagerConfig
BenchContext::voyager_config(const VoyagerVariant &v) const
{
    core::VoyagerConfig c;
    if (scale_ == Scale::Paper) {
        c = core::VoyagerConfig::paper();
    } else {
        // Scaled profile (DESIGN.md §6): smaller dims AND a shorter
        // history than Table 1 — on one CPU core the history length is
        // the dominant per-sample cost and 8 preserves the ablation
        // shapes at this trace scale.
        c.seq_len = 8;
        c.pc_embed_dim = 8;
        c.page_embed_dim = 32;
        c.num_experts = 4;
        c.lstm_units = 64;
        c.batch_size = 64;
        c.learning_rate = 3e-2;
        c.lr_decay_ratio = 1.5;
        c.dropout_keep = 0.9f;
    }
    c.seed = seed_ * 7919 + 13;
    c.use_pc_feature = v.use_pc_feature;
    c.attention_scale = v.attention_scale;
    if (v.single_scheme) {
        c.multi_label = false;
        c.schemes = {*v.single_scheme};
    }
    c.multi_label_loss = v.bce_loss ? core::MultiLabelLoss::Bce
                                    : core::MultiLabelLoss::SoftmaxBest;
    return c;
}

core::DeltaLstmConfig
BenchContext::delta_lstm_config() const
{
    core::DeltaLstmConfig c;
    if (scale_ == Scale::Paper) {
        c = core::DeltaLstmConfig::paper();
    } else {
        c.seq_len = 8;
        c.pc_embed_dim = 8;
        c.delta_embed_dim = 32;
        c.lstm_units = 32;
        c.batch_size = 64;
        c.max_deltas = 2000;
        c.learning_rate = 1e-2;
    }
    c.seed = seed_ * 104729 + 17;
    return c;
}

core::OnlineTrainConfig
BenchContext::train_config(std::uint32_t degree) const
{
    core::OnlineTrainConfig t;
    t.epochs = epochs_;
    t.degree = degree;
    t.train_passes = passes_;
    t.max_train_samples_per_epoch = max_samples_;
    // Cumulative replay: at miniature scale each correlation recurs
    // only a handful of times per epoch; training on everything seen
    // so far recovers the sample efficiency the paper gets from its
    // 50M-instruction epochs. Still causal (see OnlineTrainConfig).
    t.cumulative = scale_ != Scale::Paper;
    t.seed = seed_;
    return t;
}

std::string
BenchContext::result_key(const std::string &benchmark,
                         const std::string &model,
                         std::uint32_t degree) const
{
    std::string key =
        strfmt("%s_%s_s%d_seed%llu_e%zu_p%zu_m%zu_d%u_v%u",
               benchmark.c_str(), model.c_str(),
               static_cast<int>(scale_),
               static_cast<unsigned long long>(seed_), epochs_,
               passes_, max_samples_, degree, kCacheVersion);
    // Fault-injected runs must never collide with clean entries.
    if (fault_injector().enabled())
        key += "_f" + fault_injector().plan().fingerprint();
    return key;
}

std::string
BenchContext::cache_path(const std::string &key) const
{
    return cache_dir_ + "/" + key + ".bin";
}

core::CheckpointConfig
BenchContext::checkpoint_config(const std::string &key) const
{
    core::CheckpointConfig c;
    if (checkpoint_dir_.empty())
        return c;
    std::error_code ec;
    std::filesystem::create_directories(checkpoint_dir_, ec);
    c.path = checkpoint_dir_ + "/" + key + ".ckpt";
    c.every_epochs = checkpoint_every_;
    c.resume = resume_;
    return c;
}

std::optional<core::OnlineResult>
BenchContext::load_cached(const std::string &key) const
{
    if (!use_cache_)
        return std::nullopt;
    std::ifstream is(cache_path(key), std::ios::binary);
    if (!is)
        return std::nullopt;
    std::uint32_t magic = 0;
    std::uint32_t version = 0;
    if (!read_pod(is, magic) || magic != kCacheMagic ||
        !read_pod(is, version) || version != kCacheVersion)
        return std::nullopt;
    core::OnlineResult res;
    std::uint64_t n = 0;
    std::uint64_t first = 0;
    if (!read_pod(is, n) || !read_pod(is, first))
        return std::nullopt;
    res.first_predicted_index = first;
    read_pod(is, res.train_seconds);
    read_pod(is, res.inference_seconds);
    read_pod(is, res.trained_samples);
    read_pod(is, res.predicted_samples);
    std::uint8_t degraded = 0;
    if (!read_pod(is, degraded))
        return std::nullopt;
    res.degraded = degraded != 0;
    read_pod(is, res.rollbacks);
    read_pod(is, res.skipped_steps);
    res.predictions.resize(n);
    for (auto &slot : res.predictions) {
        std::uint8_t k = 0;
        if (!read_pod(is, k))
            return std::nullopt;
        slot.resize(k);
        for (auto &line : slot)
            if (!read_pod(is, line))
                return std::nullopt;
    }
    return res;
}

void
BenchContext::store_cached(const std::string &key,
                           const core::OnlineResult &res) const
{
    if (!use_cache_)
        return;
    std::error_code ec;
    std::filesystem::create_directories(cache_dir_, ec);
    std::ofstream os(cache_path(key), std::ios::binary);
    if (!os)
        return;
    write_pod(os, kCacheMagic);
    write_pod(os, kCacheVersion);
    write_pod(os, static_cast<std::uint64_t>(res.predictions.size()));
    write_pod(os, static_cast<std::uint64_t>(res.first_predicted_index));
    write_pod(os, res.train_seconds);
    write_pod(os, res.inference_seconds);
    write_pod(os, res.trained_samples);
    write_pod(os, res.predicted_samples);
    write_pod(os, static_cast<std::uint8_t>(res.degraded ? 1 : 0));
    write_pod(os, res.rollbacks);
    write_pod(os, res.skipped_steps);
    for (const auto &slot : res.predictions) {
        write_pod(os, static_cast<std::uint8_t>(slot.size()));
        for (const Addr line : slot)
            write_pod(os, line);
    }
}

core::OnlineResult
BenchContext::voyager_result(const std::string &benchmark,
                             const VoyagerVariant &variant,
                             std::uint32_t degree)
{
    // Training is degree-independent; predictions are always stored at
    // kNeuralDegree and sliced down for the caller.
    const std::string key =
        result_key(benchmark, variant.name, kNeuralDegree);
    auto res = load_cached(key);
    if (!res) {
        const auto &stream = get_stream(benchmark);
        core::VocabConfig vocab_cfg;
        vocab_cfg.use_deltas = variant.use_deltas;
        core::VoyagerAdapter adapter(voyager_config(variant), stream,
                                     vocab_cfg);
        StatRegistry::ScopedTimer timer(stats_, "time.train");
        res = core::train_online(adapter, stream.size(),
                                 train_config(kNeuralDegree),
                                 checkpoint_config(key));
        store_cached(key, *res);
    }
    res->export_stats(stats_, "train." + stat_name_segment(benchmark) +
                                  "." + stat_name_segment(variant.name));
    if (res->degraded) {
        apply_degraded_fallback(benchmark, variant.name, *res, degree);
    } else if (degree < kNeuralDegree) {
        res->predictions = slice_degree(res->predictions, degree);
    }
    return *res;
}

core::OnlineResult
BenchContext::delta_lstm_result(const std::string &benchmark,
                                std::uint32_t degree)
{
    const std::string key =
        result_key(benchmark, "delta_lstm", kNeuralDegree);
    auto res = load_cached(key);
    if (!res) {
        const auto &stream = get_stream(benchmark);
        core::DeltaLstmAdapter adapter(delta_lstm_config(), stream);
        StatRegistry::ScopedTimer timer(stats_, "time.train");
        res = core::train_online(adapter, stream.size(),
                                 train_config(kNeuralDegree),
                                 checkpoint_config(key));
        store_cached(key, *res);
    }
    res->export_stats(stats_, "train." + stat_name_segment(benchmark) +
                                  ".delta_lstm");
    if (res->degraded) {
        apply_degraded_fallback(benchmark, "delta_lstm", *res, degree);
    } else if (degree < kNeuralDegree) {
        res->predictions = slice_degree(res->predictions, degree);
    }
    return *res;
}

void
BenchContext::apply_degraded_fallback(const std::string &benchmark,
                                      const std::string &model,
                                      core::OnlineResult &res,
                                      std::uint32_t degree)
{
    any_degraded_ = true;
    std::cerr << "WARNING: " << model << " training on " << benchmark
              << " degraded after " << res.rollbacks
              << " rollback(s); falling back to the isb+bo hybrid"
              << " at degree " << degree << "\n";
    res.predictions =
        core::isb_bo_fallback_predictions(get_stream(benchmark), degree);
}

std::uint64_t
BenchContext::voyager_bytes(const std::string &benchmark,
                            const VoyagerVariant &variant)
{
    const auto &stream = get_stream(benchmark);
    core::VocabConfig vocab_cfg;
    vocab_cfg.use_deltas = variant.use_deltas;
    const auto vocab = core::Vocabulary::build(stream, vocab_cfg);
    core::VoyagerModel model(voyager_config(variant),
                             vocab.num_pc_tokens(),
                             vocab.num_page_tokens(),
                             vocab.num_offset_tokens());
    return model.parameter_bytes();
}

std::uint64_t
BenchContext::delta_lstm_bytes(const std::string &benchmark)
{
    const auto &stream = get_stream(benchmark);
    const auto cfg = delta_lstm_config();
    const auto vocab = core::DeltaVocab::build(stream, cfg.max_deltas);
    FlatHashSet<Addr> pcs;
    for (const auto &a : stream)
        pcs.insert(a.pc);
    core::DeltaLstmModel model(
        cfg, static_cast<std::int32_t>(pcs.size()) + 1, vocab.size());
    return model.parameter_bytes();
}

sim::SimResult
BenchContext::run_rule(const std::string &benchmark,
                       const std::string &prefetcher, std::uint32_t degree)
{
    auto pf = prefetch::make_prefetcher(prefetcher, degree);
    sim::SimResult r;
    {
        StatRegistry::ScopedTimer timer(stats_, "time.sim");
        r = sim::simulate(get_trace(benchmark), sim_, *pf);
    }
    const std::string prefix = "sim." + stat_name_segment(benchmark) +
                               "." + stat_name_segment(prefetcher) +
                               ".d" + std::to_string(degree);
    r.export_stats(stats_, prefix);
    pf->export_stats(stats_, prefix);
    return r;
}

sim::SimResult
BenchContext::run_replay(const std::string &benchmark,
                         const std::string &display_name,
                         const std::vector<std::vector<Addr>> &preds,
                         std::uint64_t storage_bytes)
{
    sim::ReplayPrefetcher replay(display_name, preds, storage_bytes);
    sim::SimResult r;
    {
        StatRegistry::ScopedTimer timer(stats_, "time.sim");
        r = sim::simulate(get_trace(benchmark), sim_, replay);
    }
    const std::string prefix = "sim." + stat_name_segment(benchmark) +
                               "." + stat_name_segment(display_name);
    r.export_stats(stats_, prefix);
    replay.export_stats(stats_, prefix);
    return r;
}

sim::SimResult
BenchContext::run_baseline(const std::string &benchmark)
{
    sim::NullPrefetcher none;
    sim::SimResult r;
    {
        StatRegistry::ScopedTimer timer(stats_, "time.sim");
        r = sim::simulate(get_trace(benchmark), sim_, none);
    }
    r.export_stats(stats_,
                   "sim." + stat_name_segment(benchmark) + ".none");
    return r;
}

core::UnifiedMetric
BenchContext::unified(const std::string &benchmark,
                      const std::vector<std::vector<Addr>> &preds,
                      std::size_t first_index)
{
    return core::unified_accuracy_coverage(get_stream(benchmark), preds,
                                           first_index, kUnifiedHorizon);
}

std::vector<std::vector<Addr>>
BenchContext::rule_predictions(const std::string &benchmark,
                               const std::string &prefetcher,
                               std::uint32_t degree)
{
    auto pf = prefetch::make_prefetcher(prefetcher, degree);
    return core::run_prefetcher_on_stream(*pf, get_stream(benchmark));
}

std::size_t
BenchContext::first_epoch_index(const std::string &benchmark)
{
    const std::size_t n = get_stream(benchmark).size();
    return (n + epochs_ - 1) / epochs_;
}

void
BenchContext::print_banner(std::ostream &os, const std::string &what) const
{
    const char *scale_name = scale_ == Scale::Paper  ? "paper"
                           : scale_ == Scale::Small ? "small"
                                                    : "tiny";
    os << "=== " << bench_name_ << ": " << what << " ===\n";
    os << "scale=" << scale_name << " seed=" << seed_
       << " epochs=" << epochs_ << " passes=" << passes_
       << " max_samples/epoch=" << max_samples_ << "\n";
    const auto &h = sim_.hierarchy;
    os << "hierarchy: L1 " << human_bytes(h.l1.size_bytes) << "/"
       << h.l1.assoc << "w/" << h.l1.latency << "c, L2 "
       << human_bytes(h.l2.size_bytes) << "/" << h.l2.assoc << "w/"
       << h.l2.latency << "c, LLC " << human_bytes(h.llc.size_bytes)
       << "/" << h.llc.assoc << "w/" << h.llc.latency << "c, DRAM "
       << h.dram.channels << "ch/" << h.dram.ranks << "rk/"
       << h.dram.banks << "bk tRP=tRCD=tCAS=" << h.dram.t_rp << "\n\n";
}

std::vector<std::vector<Addr>>
BenchContext::slice_degree(const std::vector<std::vector<Addr>> &preds,
                           std::uint32_t degree)
{
    std::vector<std::vector<Addr>> out(preds.size());
    for (std::size_t i = 0; i < preds.size(); ++i) {
        const std::size_t k =
            std::min<std::size_t>(degree, preds[i].size());
        out[i].assign(preds[i].begin(),
                      preds[i].begin() + static_cast<std::ptrdiff_t>(k));
    }
    return out;
}

}  // namespace voyager::bench
